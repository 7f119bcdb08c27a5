// Tests for the post-mortem flight recorder: trip wiring, artifact schema,
// dump budgets and debounce.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/base/event_loop.h"
#include "src/obs/event_ledger.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/health_snapshot.h"

namespace potemkin {
namespace {

std::string ReadAll(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return "";
  }
  std::string text;
  char buffer[4096];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, got);
  }
  std::fclose(file);
  return text;
}

TEST(FlightRecorderTest, BreachTripsASchemaValidDumpWithSnapshots) {
  EventLoop loop;
  MetricRegistry registry;
  HealthMonitor monitor(&loop, &registry, "farm");
  monitor.SampleNow();
  monitor.SampleNow();
  monitor.SampleNow();  // three in history; artifact must carry the last two

  EventLedger ledger(64);
  FlightRecorderConfig config;
  config.output_dir = ::testing::TempDir();
  config.prefix = "fr_breach";
  FlightRecorder recorder(config, &ledger, &monitor);
  recorder.Arm();
  EXPECT_TRUE(recorder.armed());

  ledger.Append(LedgerEvent::kFirstContact, 1, 100, 42, 43);
  ledger.Append(LedgerEvent::kContainmentAllow, 1, 150);  // not a trip type
  EXPECT_EQ(recorder.dumps_written(), 0u);
  ledger.Append(LedgerEvent::kContainmentBreach, 1, 200, 99, 445);
  ASSERT_EQ(recorder.dumps_written(), 1u);

  const std::string text = ReadAll(recorder.last_path());
  ASSERT_FALSE(text.empty());
  EXPECT_NE(text.find("\"postmortem\": \"potemkin\""), std::string::npos);
  EXPECT_NE(text.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"reason\": \"containment_breach\""), std::string::npos);
  EXPECT_NE(text.find("\"trigger_seq\": 2"), std::string::npos);
  // The ledger tail, byte-compatible with the JSONL record shape.
  EXPECT_NE(text.find("\"type\":\"first_contact\""), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"containment_breach\""), std::string::npos);
  // The last two health snapshots, still versioned.
  EXPECT_NE(text.find("\"snapshots\": ["), std::string::npos);
  EXPECT_NE(text.find("\"sequence\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"sequence\": 2"), std::string::npos);
  EXPECT_EQ(text.find("\"sequence\": 0,"), std::string::npos);
  // Balanced braces: the artifact parses as one JSON object.
  int depth = 0;
  for (char c : text) {
    depth += c == '{';
    depth -= c == '}';
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(FlightRecorderTest, EventTailIsBounded) {
  EventLedger ledger(64);
  FlightRecorderConfig config;
  config.max_events = 3;
  FlightRecorder recorder(config, &ledger, nullptr);
  for (int64_t i = 0; i < 10; ++i) {
    ledger.Append(LedgerEvent::kPacketDelivered, 1, i);
  }
  const std::string json = recorder.BuildDumpJson("manual", 999, 0);
  EXPECT_EQ(json.find("\"seq\":6,"), std::string::npos);  // older than the tail
  EXPECT_NE(json.find("\"seq\":7,"), std::string::npos);
  EXPECT_NE(json.find("\"seq\":9,"), std::string::npos);
}

TEST(FlightRecorderTest, DumpBudgetAndDebounce) {
  EventLedger ledger(64);
  FlightRecorderConfig config;
  config.output_dir = ::testing::TempDir();
  config.prefix = "fr_budget";
  config.max_dumps = 2;
  config.min_interval = Duration::Seconds(1);
  FlightRecorder recorder(config, &ledger, nullptr);
  recorder.Arm();

  constexpr int64_t kSecond = 1000000000;
  ledger.Append(LedgerEvent::kContainmentBreach, 1, 0);
  EXPECT_EQ(recorder.dumps_written(), 1u);
  // Within the debounce window: suppressed.
  ledger.Append(LedgerEvent::kContainmentBreach, 1, kSecond / 2);
  EXPECT_EQ(recorder.dumps_written(), 1u);
  EXPECT_EQ(recorder.dumps_suppressed(), 1u);
  // Past the window: second (and last budgeted) dump.
  ledger.Append(LedgerEvent::kContainmentBreach, 1, 2 * kSecond);
  EXPECT_EQ(recorder.dumps_written(), 2u);
  // Budget exhausted forever after.
  ledger.Append(LedgerEvent::kContainmentBreach, 1, 100 * kSecond);
  EXPECT_EQ(recorder.dumps_written(), 2u);
  EXPECT_EQ(recorder.dumps_suppressed(), 2u);
}

TEST(FlightRecorderTest, DisarmStopsTripsAndDestructorDisarms) {
  EventLedger ledger(16);
  FlightRecorderConfig config;
  config.output_dir = ::testing::TempDir();
  {
    FlightRecorder recorder(config, &ledger, nullptr);
    recorder.Arm();
    recorder.Disarm();
    EXPECT_FALSE(recorder.armed());
    EXPECT_EQ(ledger.trip_mask(), 0u);
    recorder.Arm();
    EXPECT_NE(ledger.trip_mask(), 0u);
  }
  // Destroyed while armed: the trip must not dangle.
  EXPECT_EQ(ledger.trip_mask(), 0u);
  ledger.Append(LedgerEvent::kContainmentBreach, 1, 0);  // must not crash
}

// The exact bytes of a whole dump: CI byte-compares post-mortem artifacts, so
// this rendering may only change on purpose.
TEST(FlightRecorderTest, GoldenDumpBytes) {
  EventLoop loop;
  MetricRegistry registry;
  Counter packets = registry.RegisterCounter("rx.packets", "pkts");
  HealthMonitor monitor(&loop, &registry, "farm");
  for (int i = 0; i < 3; ++i) {
    packets.Inc(1);
    loop.RunFor(Duration::Millis(500));
    monitor.SampleNow();  // the dump carries the last two samples
  }
  EventLedger ledger(4);
  for (uint64_t i = 0; i < 6; ++i) {
    ledger.Append(LedgerEvent::kPacketDelivered, 2,
                  static_cast<int64_t>(i) * 1000, 167837697, 60 + i);
  }
  FlightRecorderConfig config;
  config.max_events = 3;
  FlightRecorder recorder(config, &ledger, &monitor);
  EXPECT_EQ(recorder.BuildDumpJson("manual", 1500000000, 5),
            "{\n"
            "  \"postmortem\": \"potemkin\",\n"
            "  \"schema_version\": 1,\n"
            "  \"reason\": \"manual\",\n"
            "  \"time_ns\": 1500000000,\n"
            "  \"trigger_seq\": 5,\n"
            "  \"events\": [\n"
            "    {\"seq\":3,\"time_ns\":3000,\"session\":2,"
            "\"type\":\"packet_delivered\",\"a\":167837697,\"b\":63},\n"
            "    {\"seq\":4,\"time_ns\":4000,\"session\":2,"
            "\"type\":\"packet_delivered\",\"a\":167837697,\"b\":64},\n"
            "    {\"seq\":5,\"time_ns\":5000,\"session\":2,"
            "\"type\":\"packet_delivered\",\"a\":167837697,\"b\":65}\n"
            "  ],\n"
            "  \"snapshots\": [\n"
            "{\n"
            "  \"snapshot\": \"farm\",\n"
            "  \"schema_version\": 1,\n"
            "  \"sequence\": 1,\n"
            "  \"time_ns\": 1000000000,\n"
            "  \"alerts_schema_version\": 1,\n"
            "  \"alerts\": [],\n"
            "  \"metrics\": [\n"
            "    {\"metric\": \"rx.packets\", \"value\": 2, \"unit\": \"pkts\"}\n"
            "  ]\n"
            "},\n"
            "{\n"
            "  \"snapshot\": \"farm\",\n"
            "  \"schema_version\": 1,\n"
            "  \"sequence\": 2,\n"
            "  \"time_ns\": 1500000000,\n"
            "  \"alerts_schema_version\": 1,\n"
            "  \"alerts\": [],\n"
            "  \"metrics\": [\n"
            "    {\"metric\": \"rx.packets\", \"value\": 3, \"unit\": \"pkts\"}\n"
            "  ]\n"
            "}\n"
            "  ]\n"
            "}\n");
}

}  // namespace
}  // namespace potemkin
