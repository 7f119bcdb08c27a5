// Tests for the metric registry: handle semantics, same-name aggregation,
// histogram bucketing/quantiles, probes, and handle stability under growth.
#include <gtest/gtest.h>

#include <map>

#include "src/obs/metric_registry.h"
#include "tests/obs/sample_rows.h"

namespace potemkin {
namespace {

std::map<std::string, double> CollectMap(const MetricRegistry& registry) {
  std::map<std::string, double> out;
  for (const auto& sample : SampleRows(registry)) {
    out[sample.name] = sample.value;
  }
  return out;
}

TEST(MetricRegistryTest, CounterIncrementsAndCollects) {
  MetricRegistry registry;
  Counter c = registry.RegisterCounter("pkts", "count");
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_DOUBLE_EQ(registry.ValueOf("pkts"), 42.0);
  const auto samples = SampleRows(registry);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].name, "pkts");
  EXPECT_EQ(samples[0].unit, "count");
}

TEST(MetricRegistryTest, DefaultConstructedHandlesAreSafeSinks) {
  // An uninstrumented component's handles must be usable without a registry;
  // they write into shared sink cells and never fault.
  Counter c;
  Gauge g;
  FixedHistogram h;
  c.Inc(7);
  g.Set(-3);
  g.Add(1);
  h.Record(12.5);
  SUCCEED();
}

TEST(MetricRegistryTest, SameNameRegistrationAggregates) {
  // Two component instances registering the same metric share storage.
  MetricRegistry registry;
  Counter a = registry.RegisterCounter("clone.completed", "count");
  Counter b = registry.RegisterCounter("clone.completed", "count");
  a.Inc(2);
  b.Inc(3);
  EXPECT_DOUBLE_EQ(registry.ValueOf("clone.completed"), 5.0);
  EXPECT_EQ(registry.counter_count(), 1u);
}

TEST(MetricRegistryTest, GaugeSetAndAdd) {
  MetricRegistry registry;
  Gauge g = registry.RegisterGauge("depth", "items");
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.value(), 7);
  EXPECT_DOUBLE_EQ(registry.ValueOf("depth"), 7.0);
}

TEST(MetricRegistryTest, HandlesStayValidAsRegistryGrows) {
  // Deque storage: the first handle must still hit its own cell after many
  // later registrations (a vector would have reallocated under it).
  MetricRegistry registry;
  Counter first = registry.RegisterCounter("first", "count");
  for (int i = 0; i < 1000; ++i) {
    registry.RegisterCounter("filler_" + std::to_string(i), "count").Inc();
  }
  first.Inc(5);
  EXPECT_DOUBLE_EQ(registry.ValueOf("first"), 5.0);
  EXPECT_DOUBLE_EQ(registry.ValueOf("filler_999"), 1.0);
}

TEST(MetricRegistryTest, HistogramBucketsAndQuantiles) {
  MetricRegistry registry;
  FixedHistogram h =
      registry.RegisterHistogram("lat", "ms", LinearBuckets(10.0, 10.0, 4));
  // Bounds 10,20,30,40 (+overflow). 100 samples in [1..100].
  for (int i = 1; i <= 100; ++i) {
    h.Record(static_cast<double>(i));
  }
  EXPECT_EQ(h.count(), 100u);
  const auto values = CollectMap(registry);
  EXPECT_DOUBLE_EQ(values.at("lat_count"), 100.0);
  // p50 lands in the 41..100 overflow bucket -> reported as the last bound.
  EXPECT_DOUBLE_EQ(values.at("lat_p50"), 40.0);
  EXPECT_DOUBLE_EQ(values.at("lat_p99"), 40.0);
  EXPECT_DOUBLE_EQ(values.at("lat_max"), 40.0);
}

TEST(MetricRegistryTest, HistogramQuantileWithinBounds) {
  MetricRegistry registry;
  FixedHistogram h =
      registry.RegisterHistogram("sz", "bytes", LinearBuckets(100.0, 100.0, 4));
  // 99 small samples, one large: p50 in the first bucket, max in the last hit.
  for (int i = 0; i < 99; ++i) {
    h.Record(50.0);
  }
  h.Record(250.0);
  const auto values = CollectMap(registry);
  EXPECT_DOUBLE_EQ(values.at("sz_p50"), 100.0);
  EXPECT_DOUBLE_EQ(values.at("sz_max"), 300.0);
}

TEST(MetricRegistryTest, ExponentialBucketBuilder) {
  const std::vector<double> bounds = ExponentialBuckets(1.0, 2.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[3], 8.0);
}

TEST(MetricRegistryTest, ProbesSampleAtCollectTime) {
  MetricRegistry registry;
  int owner = 0;
  double level = 1.5;
  registry.RegisterProbe(&owner, "pool.occupancy", "ratio",
                         [&level] { return level; });
  EXPECT_DOUBLE_EQ(registry.ValueOf("pool.occupancy"), 1.5);
  level = 2.5;  // probes are live views, not cached values
  EXPECT_DOUBLE_EQ(registry.ValueOf("pool.occupancy"), 2.5);
}

TEST(MetricRegistryTest, RemoveProbesDropsOnlyThatOwner) {
  MetricRegistry registry;
  int owner_a = 0;
  int owner_b = 0;
  registry.RegisterProbe(&owner_a, "a.one", "count", [] { return 1.0; });
  registry.RegisterProbe(&owner_a, "a.two", "count", [] { return 2.0; });
  registry.RegisterProbe(&owner_b, "b.one", "count", [] { return 3.0; });
  EXPECT_EQ(registry.probe_count(), 3u);
  registry.RemoveProbes(&owner_a);
  EXPECT_EQ(registry.probe_count(), 1u);
  EXPECT_DOUBLE_EQ(registry.ValueOf("b.one"), 3.0);
  EXPECT_DOUBLE_EQ(registry.ValueOf("a.one"), 0.0);  // gone -> absent -> 0
}

TEST(MetricRegistryTest, DuplicateProbeNameKeepsLatest) {
  MetricRegistry registry;
  int owner = 0;
  registry.RegisterProbe(&owner, "level", "count", [] { return 1.0; });
  registry.RegisterProbe(&owner, "level", "count", [] { return 9.0; });
  EXPECT_DOUBLE_EQ(registry.ValueOf("level"), 9.0);
  // Both slots are retained (removal is by owner) and both are walked, in
  // registration order, so the last row carries the latest registration.
  std::vector<double> level_values;
  for (const auto& sample : SampleRows(registry)) {
    if (sample.name == "level") {
      level_values.push_back(sample.value);
    }
  }
  EXPECT_EQ(level_values, (std::vector<double>{1.0, 9.0}));
}

TEST(MetricRegistryTest, RowOrderIsRegistrationOrder) {
  MetricRegistry registry;
  registry.RegisterCounter("z", "count");
  registry.RegisterCounter("a", "count");
  const auto samples = SampleRows(registry);
  ASSERT_GE(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "z");
  EXPECT_EQ(samples[1].name, "a");
}

}  // namespace
}  // namespace potemkin
