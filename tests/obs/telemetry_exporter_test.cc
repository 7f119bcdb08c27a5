// Tests for the JSONL telemetry exporter: schema shape, EventLoop cadence,
// bounded ring retention, determinism across identically-driven registries,
// the alerts column, and the Prometheus one-shot rendering.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/event_loop.h"
#include "src/obs/event_ledger.h"
#include "src/obs/metric_registry.h"
#include "src/obs/telemetry_exporter.h"
#include "src/obs/watchdog.h"

namespace potemkin {
namespace {

TEST(TelemetryExporterTest, HeaderCarriesSchemaAndConfig) {
  EventLoop loop;
  MetricRegistry registry;
  TelemetryExporterConfig config;
  config.source = "test-farm";
  config.interval = Duration::Millis(250);
  config.ring_capacity = 8;
  TelemetryExporter exporter(&loop, &registry, config);
  const std::string header = exporter.HeaderLine();
  EXPECT_NE(header.find("\"telemetry\":\"potemkin\""), std::string::npos);
  EXPECT_NE(header.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(header.find("\"source\":\"test-farm\""), std::string::npos);
  EXPECT_NE(header.find("\"interval_ns\":250000000"), std::string::npos);
  EXPECT_NE(header.find("\"ring_capacity\":8"), std::string::npos);
}

TEST(TelemetryExporterTest, SampleLineShape) {
  EventLoop loop;
  MetricRegistry registry;
  Counter packets = registry.RegisterCounter("rx.packets", "pkts");
  LatencyHistogram lat = registry.RegisterLatency("lat_ns", "ns");
  packets.Inc(3);
  lat.Record(1000);
  TelemetryExporter exporter(&loop, &registry);
  const std::string& line = exporter.SampleNow();
  EXPECT_NE(line.find("{\"seq\":0,\"time_ns\":0,\"alerts\":[],\"metrics\":[["),
            std::string::npos);
  EXPECT_NE(line.find("[\"rx.packets\",3]"), std::string::npos);
  EXPECT_NE(line.find("[\"lat_ns_p99\","), std::string::npos);
  EXPECT_NE(line.find("[\"lat_ns_count\",1]"), std::string::npos);
  // Well-formed close: metrics array then object.
  EXPECT_EQ(line.substr(line.size() - 2), "]}");
  EXPECT_EQ(exporter.sequence(), 1u);
}

TEST(TelemetryExporterTest, EmptyRegistryStillWellFormed) {
  EventLoop loop;
  MetricRegistry registry;
  TelemetryExporter exporter(&loop, &registry);
  const std::string& line = exporter.SampleNow();
  EXPECT_NE(line.find("\"metrics\":[]}"), std::string::npos);
}

TEST(TelemetryExporterTest, PeriodicTicksOnLoopCadence) {
  EventLoop loop;
  MetricRegistry registry;
  Counter ticks = registry.RegisterCounter("ticks", "count");
  TelemetryExporterConfig config;
  config.interval = Duration::Seconds(1);
  TelemetryExporter exporter(&loop, &registry, config);
  std::vector<std::string> seen;
  exporter.set_sink([&](const std::string& line) { seen.push_back(line); });
  exporter.Start();
  ticks.Inc(1);
  loop.RunFor(Duration::Seconds(5));
  exporter.Stop();
  loop.RunFor(Duration::Seconds(5));  // stopped: no further samples
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(exporter.sequence(), 5u);
  // First tick at t=1s, not t=0.
  EXPECT_NE(seen[0].find("\"time_ns\":1000000000"), std::string::npos);
}

TEST(TelemetryExporterTest, RingBoundsRetentionAndCountsDrops) {
  EventLoop loop;
  MetricRegistry registry;
  TelemetryExporterConfig config;
  config.ring_capacity = 4;
  TelemetryExporter exporter(&loop, &registry, config);
  for (int i = 0; i < 10; ++i) {
    exporter.SampleNow();
  }
  EXPECT_EQ(exporter.sequence(), 10u);
  EXPECT_EQ(exporter.retained(), 4u);
  EXPECT_EQ(exporter.dropped(), 6u);
  // Oldest retained is seq 6.
  EXPECT_NE(exporter.RetainedLine(0).find("\"seq\":6"), std::string::npos);
  EXPECT_NE(exporter.RetainedLine(3).find("\"seq\":9"), std::string::npos);
}

TEST(TelemetryExporterTest, IdenticallyDrivenRegistriesProduceIdenticalSeries) {
  // The determinism contract CI leans on: same updates, same cadence ->
  // byte-identical lines.
  auto run = [] {
    EventLoop loop;
    MetricRegistry registry;
    Counter c = registry.RegisterCounter("c", "count");
    LatencyHistogram h = registry.RegisterLatency("h_ns", "ns");
    TelemetryExporter exporter(&loop, &registry);
    std::string series;
    exporter.set_sink([&](const std::string& line) {
      series += line;
      series += '\n';
    });
    exporter.Start();
    for (int t = 0; t < 5; ++t) {
      c.Inc(3);
      h.Record(static_cast<uint64_t>(1000 * (t + 1)));
      loop.RunFor(Duration::Seconds(1));
    }
    return exporter.HeaderLine() + "\n" + series;
  };
  EXPECT_EQ(run(), run());
}

TEST(TelemetryExporterTest, AlertsColumnListsFiringRules) {
  EventLoop loop;
  MetricRegistry registry;
  Gauge depth = registry.RegisterGauge("queue.depth", "pkts");
  EventLedger ledger(64);
  Watchdog dog(&ledger);
  dog.AddRule({"deep_queue", "queue.depth", WatchdogKind::kAbove,
               /*raise=*/100.0, /*clear=*/50.0, Duration::Zero()});
  TelemetryExporter exporter(&loop, &registry);
  exporter.set_watchdog(&dog);

  depth.Set(10);
  HealthSnapshot quiet;
  quiet.metrics.push_back({"queue.depth", 10.0, "pkts"});
  dog.Evaluate(quiet);
  EXPECT_NE(exporter.SampleNow().find("\"alerts\":[]"), std::string::npos);

  depth.Set(500);
  HealthSnapshot loud;
  loud.time_ns = 1;
  loud.metrics.push_back({"queue.depth", 500.0, "pkts"});
  dog.Evaluate(loud);
  EXPECT_NE(exporter.SampleNow().find("\"alerts\":[\"deep_queue\"]"),
            std::string::npos);
}

TEST(TelemetryExporterTest, WriteJsonlEmitsHeaderThenRetainedWindow) {
  EventLoop loop;
  MetricRegistry registry;
  Counter c = registry.RegisterCounter("c", "count");
  c.Inc(1);
  TelemetryExporterConfig config;
  config.ring_capacity = 2;
  TelemetryExporter exporter(&loop, &registry, config);
  exporter.SampleNow();
  exporter.SampleNow();
  exporter.SampleNow();
  const std::string path = ::testing::TempDir() + "/telemetry_test.jsonl";
  ASSERT_TRUE(exporter.WriteJsonl(path));
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string text;
  char buffer[4096];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, got);
  }
  std::fclose(file);
  // Header first, then the retained window (seq 1 and 2; seq 0 rotated out).
  EXPECT_EQ(text.find("\"telemetry\":\"potemkin\""), text.find("{") + 1);
  EXPECT_EQ(text.find("\"seq\":0"), std::string::npos);
  EXPECT_NE(text.find("\"seq\":1"), std::string::npos);
  EXPECT_NE(text.find("\"seq\":2"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(TelemetryExporterTest, PrometheusTextRendersMetricsAndAlerts) {
  HealthSnapshot snapshot;
  snapshot.source = "farm";
  snapshot.metrics.push_back({"gateway.rx.packets", 42.0, "pkts"});
  snapshot.metrics.push_back({"lat_p99", 1.5e6, "ns"});
  AlertSample alert;
  alert.rule = "hot_p99";
  alert.metric = "lat_p99";
  alert.firing = true;
  snapshot.alerts.push_back(alert);
  const std::string text = PrometheusTextFor(snapshot);
  // Dots sanitized to underscores, unit as label, exact value.
  EXPECT_NE(text.find("potemkin_gateway_rx_packets{unit=\"pkts\"} 42"),
            std::string::npos);
  EXPECT_NE(text.find("potemkin_lat_p99{unit=\"ns\"} 1500000"),
            std::string::npos);
  EXPECT_NE(text.find(
                "potemkin_alert_firing{rule=\"hot_p99\",metric=\"lat_p99\"} 1"),
            std::string::npos);
}

// The exact bytes of one series line: CI byte-compares soak series, so this
// rendering may only change on purpose.
TEST(TelemetryExporterTest, GoldenLineBytes) {
  EventLoop loop;
  MetricRegistry registry;
  registry.RegisterCounter("rx.packets", "pkts").Inc(3);
  registry.RegisterGauge("queue.depth", "items").Set(-2);
  FixedHistogram bytes = registry.RegisterHistogram("bytes", "B", {100, 200});
  bytes.Record(50);
  bytes.Record(150);
  bytes.Record(250);
  registry.RegisterLatency("lat_ns", "ns").Record(1000);
  int owner = 0;
  registry.RegisterProbe(&owner, "hit_rate", "ratio", [] { return 0.1; });
  TelemetryExporter exporter(&loop, &registry);
  loop.RunFor(Duration::Millis(1500));
  EXPECT_EQ(exporter.SampleNow(),
            "{\"seq\":0,\"time_ns\":1500000000,\"alerts\":[],\"metrics\":["
            "[\"rx.packets\",3],[\"queue.depth\",-2],[\"bytes_count\",3],"
            "[\"bytes_p50\",200],[\"bytes_p99\",200],[\"bytes_max\",200],"
            "[\"lat_ns_count\",1],[\"lat_ns_p50\",1023],[\"lat_ns_p90\",1023],"
            "[\"lat_ns_p99\",1023],[\"lat_ns_p999\",1023],[\"lat_ns_max\",1000],"
            "[\"hit_rate\",0.10000000000000001]]}");
  registry.RemoveProbes(&owner);
}

}  // namespace
}  // namespace potemkin
