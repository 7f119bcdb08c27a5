// Tests for the zero-alloc log-linear latency histogram: bucket math at the
// exact/log boundary, saturation, deterministic cross-shard merge, windowed
// subtraction, and percentile sanity under randomized input.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/base/rng.h"
#include "src/obs/metric_registry.h"
#include "tests/obs/sample_rows.h"

namespace potemkin {
namespace {

LatencySnapshot SnapOf(const LatencyHistogram& h) {
  LatencySnapshot snap;
  h.SnapshotInto(&snap);
  return snap;
}

TEST(LatencyHistogramTest, EmptyHistogramQuantilesAreZero) {
  MetricRegistry registry;
  LatencyHistogram h = registry.RegisterLatency("empty", "ns");
  const LatencySnapshot snap = SnapOf(h);
  EXPECT_EQ(snap.total, 0u);
  EXPECT_EQ(snap.max, 0u);
  EXPECT_EQ(snap.Quantile(0.5), 0u);
  EXPECT_EQ(snap.Quantile(0.999), 0u);
}

TEST(LatencyHistogramTest, SingleSampleDominatesEveryQuantile) {
  MetricRegistry registry;
  LatencyHistogram h = registry.RegisterLatency("single", "ns");
  h.Record(12345);
  const LatencySnapshot snap = SnapOf(h);
  EXPECT_EQ(snap.total, 1u);
  EXPECT_EQ(snap.max, 12345u);
  // One sample: every quantile lands in its bucket; the upper bound must
  // cover the recorded value within one sub-bucket of relative error.
  const uint64_t p50 = snap.Quantile(0.5);
  EXPECT_GE(p50, 12345u);
  EXPECT_LE(p50, 12345u + 12345u / LatencyHistogram::kSubBuckets + 1);
  EXPECT_EQ(snap.Quantile(0.5), snap.Quantile(0.999));
}

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  // Values below kSubBuckets get dedicated unit-width buckets: quantiles on
  // them are exact, not approximations.
  MetricRegistry registry;
  LatencyHistogram h = registry.RegisterLatency("small", "ns");
  for (uint64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
    h.Record(v);
  }
  const LatencySnapshot snap = SnapOf(h);
  EXPECT_EQ(snap.total, LatencyHistogram::kSubBuckets);
  EXPECT_EQ(snap.Quantile(0.0), 0u);
  // 16 samples 0..15: rank of q=0.5 is ceil(0.5*16)-1 = 7.
  EXPECT_EQ(snap.Quantile(0.5), 7u);
  EXPECT_EQ(snap.Quantile(1.0), 15u);
}

TEST(LatencyHistogramTest, SaturatesAtMaxTrackableButKeepsRawMax) {
  MetricRegistry registry;
  LatencyHistogram h = registry.RegisterLatency("sat", "ns");
  const uint64_t huge = ~0ull;  // far beyond kMaxTrackable
  h.Record(huge);
  const LatencySnapshot snap = SnapOf(h);
  EXPECT_EQ(snap.total, 1u);
  // Bucketing clamps to the top bucket...
  EXPECT_LE(snap.Quantile(0.999), LatencyHistogram::kMaxTrackable);
  // ...but the exact maximum survives untouched.
  EXPECT_EQ(snap.max, huge);
  EXPECT_EQ(h.max_value(), huge);
}

TEST(LatencyHistogramTest, CrossShardMergeEqualsSingleStream) {
  // Shard-split recording then deterministic merge must equal one histogram
  // fed the whole stream: the property that makes per-shard cells free.
  MetricRegistry merged_registry;
  MetricRegistry shard_a_registry;
  MetricRegistry shard_b_registry;
  LatencyHistogram whole = merged_registry.RegisterLatency("w", "ns");
  LatencyHistogram shard_a = shard_a_registry.RegisterLatency("s", "ns");
  LatencyHistogram shard_b = shard_b_registry.RegisterLatency("s", "ns");

  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t v = rng.NextU64() % 5000000;
    whole.Record(v);
    (i % 2 == 0 ? shard_a : shard_b).Record(v);
  }

  LatencySnapshot merged = SnapOf(shard_a);
  const LatencySnapshot b = SnapOf(shard_b);
  merged.MergeFrom(b);
  const LatencySnapshot single = SnapOf(whole);

  EXPECT_EQ(merged.total, single.total);
  EXPECT_EQ(merged.max, single.max);
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(merged.Quantile(q), single.Quantile(q)) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, RegistrySharesCellsByName) {
  // Two handles registered under one name in one registry alias the same
  // cells: how sharded gateways aggregate without locks.
  MetricRegistry registry;
  LatencyHistogram a = registry.RegisterLatency("shared", "ns");
  LatencyHistogram b = registry.RegisterLatency("shared", "ns");
  a.Record(100);
  b.Record(200);
  EXPECT_EQ(SnapOf(a).total, 2u);
  EXPECT_EQ(SnapOf(b).total, 2u);
}

TEST(LatencyHistogramTest, QuantilesMonotoneAndAccurateUnderRandomInput) {
  MetricRegistry registry;
  LatencyHistogram h = registry.RegisterLatency("rand", "ns");
  Rng rng(42);
  std::vector<uint64_t> values;
  values.reserve(50000);
  for (int i = 0; i < 50000; ++i) {
    // Mixed scales: exact range, microseconds, and multi-millisecond tail.
    const uint64_t v = (i % 3 == 0) ? rng.NextU64() % 16
                                    : (i % 3 == 1) ? rng.NextU64() % 100000
                                                   : rng.NextU64() % 50000000;
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  const LatencySnapshot snap = SnapOf(h);
  ASSERT_EQ(snap.total, values.size());

  uint64_t prev = 0;
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    const uint64_t est = snap.Quantile(q);
    EXPECT_GE(est, prev) << "quantiles must be monotone, q=" << q;
    prev = est;
    const uint64_t exact =
        values[static_cast<size_t>(q * static_cast<double>(values.size() - 1))];
    // Log-linear with 16 sub-buckets: <= 1/16 relative error plus rank slop.
    const double bound = static_cast<double>(exact) * (1.0 / 16.0) + 2.0;
    EXPECT_LE(static_cast<double>(est),
              static_cast<double>(exact) + bound + static_cast<double>(exact) * 0.02)
        << "q=" << q << " est=" << est << " exact=" << exact;
    EXPECT_GE(static_cast<double>(est),
              static_cast<double>(exact) * 0.90 - 2.0)
        << "q=" << q << " est=" << est << " exact=" << exact;
  }
}

TEST(LatencyHistogramTest, SubtractBaselineGivesWindowedView) {
  MetricRegistry registry;
  LatencyHistogram h = registry.RegisterLatency("window", "ns");
  for (int i = 0; i < 1000; ++i) {
    h.Record(100);  // first window: all fast
  }
  LatencySnapshot mid = SnapOf(h);
  for (int i = 0; i < 1000; ++i) {
    h.Record(1000000);  // second window: all slow
  }
  LatencySnapshot second = SnapOf(h);
  second.SubtractBaseline(mid);
  EXPECT_EQ(second.total, 1000u);
  // The windowed view must see only the slow half.
  EXPECT_GE(second.Quantile(0.5), 1000000u);
  // The cumulative view's p50 straddles both.
  EXPECT_LE(SnapOf(h).Quantile(0.25), 110u);
}

TEST(LatencyHistogramTest, WalkEmitsSixRowsPerLatency) {
  MetricRegistry registry;
  LatencyHistogram h = registry.RegisterLatency("lat", "ns");
  h.Record(50);
  h.Record(5000);
  const std::vector<MetricRegistry::Sample> samples = SampleRows(registry);
  std::vector<std::string> names;
  for (const auto& sample : samples) {
    names.push_back(sample.name);
  }
  for (const char* want :
       {"lat_count", "lat_p50", "lat_p90", "lat_p99", "lat_p999", "lat_max"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end())
        << "missing row " << want;
  }
  for (const auto& sample : samples) {
    if (sample.name == "lat_count") {
      EXPECT_EQ(sample.value, 2.0);
      EXPECT_EQ(sample.unit, "count");
    }
    if (sample.name == "lat_max") {
      EXPECT_EQ(sample.value, 5000.0);
      EXPECT_EQ(sample.unit, "ns");
    }
  }
}

TEST(LatencyHistogramTest, DefaultHandleIsSafeSink) {
  // A default-constructed handle (metrics disabled) must swallow records
  // without touching any registry.
  LatencyHistogram h;
  h.Record(123);
  EXPECT_GE(h.count(), 1u);  // sink cells are shared; count only grows
}

}  // namespace
}  // namespace potemkin
