// Tests for versioned health snapshots and the periodic HealthMonitor.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/base/event_loop.h"
#include "src/obs/health_snapshot.h"
#include "src/obs/metric_registry.h"

namespace potemkin {
namespace {

TEST(HealthSnapshotTest, JsonCarriesSchemaVersionAndMetricRows) {
  HealthSnapshot snapshot;
  snapshot.source = "honeyfarm";
  snapshot.time_ns = 5000000000;
  snapshot.sequence = 3;
  snapshot.metrics.push_back({"gateway.rx.packets", 42.0, "count"});
  snapshot.metrics.push_back({"pool.hit_rate", 0.5, "ratio"});
  const std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"snapshot\": \"honeyfarm\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"sequence\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"time_ns\": 5000000000"), std::string::npos);
  // The metric rows share the BENCH report shape.
  EXPECT_NE(json.find("{\"metric\": \"gateway.rx.packets\", \"value\": 42, "
                      "\"unit\": \"count\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"value\": 0.5"), std::string::npos);
}

TEST(HealthMonitorTest, PeriodicSamplingAtVirtualCadence) {
  EventLoop loop;
  MetricRegistry registry;
  Counter c = registry.RegisterCounter("events", "count");
  HealthMonitor monitor(&loop, &registry, "test");
  // The sink sees every sample; history keeps only the last kMaxHistory.
  std::vector<HealthSnapshot> seen;
  monitor.set_sink([&](const HealthSnapshot& snapshot) {
    seen.push_back(snapshot);
  });
  monitor.Start(Duration::Seconds(1));
  EXPECT_TRUE(monitor.running());
  loop.ScheduleAfter(Duration::Millis(2500), [&] { c.Inc(7); });
  loop.RunFor(Duration::Seconds(4));  // samples at t=1,2,3,4
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(monitor.samples_taken(), 4u);
  // Sequence and virtual timestamps are monotone and cadence-aligned.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(seen[i].sequence, i);
    EXPECT_EQ(seen[i].time_ns, static_cast<int64_t>((i + 1) * 1000000000));
  }
  // The counter bump lands between samples 2 and 3.
  auto value_in = [](const HealthSnapshot& snapshot) {
    for (const auto& sample : snapshot.metrics) {
      if (sample.name == "events") {
        return sample.value;
      }
    }
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(value_in(seen[1]), 0.0);
  EXPECT_DOUBLE_EQ(value_in(seen[2]), 7.0);
  ASSERT_EQ(monitor.history().size(), HealthMonitor::kMaxHistory);
  for (size_t i = 0; i < HealthMonitor::kMaxHistory; ++i) {
    const HealthSnapshot& kept = monitor.history()[i];
    EXPECT_EQ(kept.sequence, 4 - HealthMonitor::kMaxHistory + i);
    EXPECT_EQ(kept.ToJson(), seen[kept.sequence].ToJson());
  }
}

TEST(HealthMonitorTest, StopHaltsSamplingAndKeepsHistory) {
  EventLoop loop;
  MetricRegistry registry;
  HealthMonitor monitor(&loop, &registry, "test");
  monitor.Start(Duration::Seconds(1));
  loop.RunFor(Duration::Seconds(2));
  monitor.Stop();
  EXPECT_FALSE(monitor.running());
  loop.RunFor(Duration::Seconds(10));
  EXPECT_EQ(monitor.history().size(), 2u);
  EXPECT_TRUE(loop.Empty());  // the periodic slot was actually cancelled
}

TEST(HealthMonitorTest, SinkSeesEverySample) {
  EventLoop loop;
  MetricRegistry registry;
  HealthMonitor monitor(&loop, &registry, "test");
  uint64_t sink_calls = 0;
  uint64_t last_sequence = 0;
  monitor.set_sink([&](const HealthSnapshot& snapshot) {
    ++sink_calls;
    last_sequence = snapshot.sequence;
  });
  monitor.Start(Duration::Millis(100));
  loop.RunFor(Duration::Millis(350));
  EXPECT_EQ(sink_calls, 3u);
  EXPECT_EQ(last_sequence, 2u);
}

TEST(HealthMonitorTest, HistoryIsBounded) {
  EventLoop loop;
  MetricRegistry registry;
  HealthMonitor monitor(&loop, &registry, "test");
  for (uint64_t i = 0; i < HealthMonitor::kMaxHistory + 10; ++i) {
    monitor.SampleNow();
  }
  EXPECT_EQ(monitor.history().size(), HealthMonitor::kMaxHistory);
  EXPECT_EQ(monitor.samples_taken(), HealthMonitor::kMaxHistory + 10);
  // Oldest entries were the ones discarded.
  EXPECT_EQ(monitor.history().front().sequence, 10u);
}

TEST(HealthMonitorTest, HistoryBoundKeepsJsonSchemaValid) {
  EventLoop loop;
  MetricRegistry registry;
  Counter c = registry.RegisterCounter("events", "count");
  HealthMonitor monitor(&loop, &registry, "bounded");
  for (uint64_t i = 0; i < HealthMonitor::kMaxHistory + 25; ++i) {
    c.Inc();
    monitor.SampleNow();
  }
  ASSERT_EQ(monitor.history().size(), HealthMonitor::kMaxHistory);
  // Every survivor still renders the full versioned layout — eviction must
  // never leave a snapshot that consumers (bench_tool validate, metrics_dump,
  // the flight recorder) would reject.
  for (const HealthSnapshot& snapshot : {monitor.history().front(),
                                         monitor.history().back()}) {
    const std::string json = snapshot.ToJson();
    EXPECT_NE(json.find("\"snapshot\": \"bounded\""), std::string::npos);
    EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"alerts_schema_version\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"metrics\": ["), std::string::npos);
    EXPECT_NE(json.find("{\"metric\": \"events\""), std::string::npos);
    // Alerts precede metrics (the fixed, byte-compared layout).
    EXPECT_LT(json.find("\"alerts\""), json.find("\"metrics\""));
    int depth = 0;
    for (char ch : json) {
      depth += ch == '{';
      depth -= ch == '}';
      ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
  }
  // The retained window is the newest samples, values intact.
  EXPECT_EQ(monitor.history().front().sequence, 25u);
  EXPECT_DOUBLE_EQ(monitor.history().back().metrics[0].value,
                   static_cast<double>(HealthMonitor::kMaxHistory + 25));
}

TEST(HealthMonitorTest, StartIsIdempotentWhileRunning) {
  EventLoop loop;
  MetricRegistry registry;
  HealthMonitor monitor(&loop, &registry, "test");
  monitor.Start(Duration::Seconds(1));
  monitor.Start(Duration::Millis(10));  // ignored: already running
  loop.RunFor(Duration::Seconds(2));
  EXPECT_EQ(monitor.history().size(), 2u);
  EXPECT_EQ(loop.pending_events(), 1u);  // exactly one periodic armed
}

// The exact snapshot bytes: CI byte-compares snapshot artifacts, so this
// rendering may only change on purpose.
TEST(HealthSnapshotTest, GoldenJsonBytes) {
  HealthSnapshot snapshot;
  snapshot.source = "farm \"a\"";
  snapshot.time_ns = 1000000000000001;  // above 1e15: the %.17g form
  snapshot.sequence = 7;
  snapshot.alerts.push_back(
      {"clone_latency_p99", "clone.latency_ns_p99", 0.25, 1e6, true, 5});
  snapshot.alerts.push_back({"breach", "escapes", -0.0, 0.0, false, 0});
  snapshot.metrics.push_back({"gateway.rx.packets", 42.0, "count"});
  snapshot.metrics.push_back({"pool.hit_rate", 0.1, "ratio"});
  snapshot.metrics.push_back({"nan", std::nan(""), ""});
  EXPECT_EQ(snapshot.ToJson(),
            "{\n"
            "  \"snapshot\": \"farm \\\"a\\\"\",\n"
            "  \"schema_version\": 1,\n"
            "  \"sequence\": 7,\n"
            "  \"time_ns\": 1000000000000001,\n"
            "  \"alerts_schema_version\": 1,\n"
            "  \"alerts\": [\n"
            "    {\"alert\": \"clone_latency_p99\", \"metric\": "
            "\"clone.latency_ns_p99\", \"value\": 0.25, \"threshold\": 1000000, "
            "\"firing\": true, \"since_ns\": 5},\n"
            "    {\"alert\": \"breach\", \"metric\": \"escapes\", \"value\": -0, "
            "\"threshold\": 0, \"firing\": false, \"since_ns\": 0}\n"
            "  ],\n"
            "  \"metrics\": [\n"
            "    {\"metric\": \"gateway.rx.packets\", \"value\": 42, "
            "\"unit\": \"count\"},\n"
            "    {\"metric\": \"pool.hit_rate\", \"value\": 0.10000000000000001, "
            "\"unit\": \"ratio\"},\n"
            "    {\"metric\": \"nan\", \"value\": null, \"unit\": \"\"}\n"
            "  ]\n"
            "}\n");
}

}  // namespace
}  // namespace potemkin
