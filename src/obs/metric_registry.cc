#include "src/obs/metric_registry.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/base/log.h"

namespace potemkin {

namespace {
// Shared sinks for default-constructed handles: recording into an unregistered
// handle is harmless instead of a null deref, and the hot path needs no branch.
std::atomic<uint64_t> g_counter_sink{0};
std::atomic<int64_t> g_gauge_sink{0};
std::atomic<uint64_t> g_histogram_sink[2]{};
const double g_histogram_sink_bound[1] = {0.0};
LatencyHistogram::Cells g_latency_sink{};
}  // namespace

Counter::Counter() : cell_(&g_counter_sink) {}
Gauge::Gauge() : cell_(&g_gauge_sink) {}
FixedHistogram::FixedHistogram()
    : bounds_(g_histogram_sink_bound), num_bounds_(1), counts_(g_histogram_sink) {}
LatencyHistogram::LatencyHistogram() : cells_(&g_latency_sink) {}

uint64_t LatencyHistogram::count() const {
  uint64_t total = 0;
  for (uint32_t i = 0; i < kNumBuckets; ++i) {
    total += cells_->counts[i].load(std::memory_order_relaxed);
  }
  return total;
}

void LatencyHistogram::SnapshotInto(LatencySnapshot* out) const {
  out->total = 0;
  for (uint32_t i = 0; i < kNumBuckets; ++i) {
    out->counts[i] = cells_->counts[i].load(std::memory_order_relaxed);
    out->total += out->counts[i];
  }
  out->max = cells_->max.load(std::memory_order_relaxed);
}

uint64_t LatencyHistogram::BucketUpperBound(uint32_t index) {
  if (index >= kNumBuckets) {
    index = kNumBuckets - 1;
  }
  if (index < kSubBuckets) {
    return index;
  }
  const uint32_t base = index / kSubBuckets;  // >= 1
  const uint64_t sub = index % kSubBuckets;
  return ((kSubBuckets + sub + 1) << (base - 1)) - 1;
}

void LatencySnapshot::Clear() {
  std::memset(counts, 0, sizeof(counts));
  total = 0;
  max = 0;
}

void LatencySnapshot::MergeFrom(const LatencySnapshot& other) {
  for (uint32_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    counts[i] += other.counts[i];
  }
  total += other.total;
  max = std::max(max, other.max);
}

void LatencySnapshot::SubtractBaseline(const LatencySnapshot& earlier) {
  for (uint32_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    // Saturate rather than wrap: snapshots of a live histogram taken from
    // another thread can be momentarily inconsistent per bucket.
    counts[i] -= std::min(counts[i], earlier.counts[i]);
  }
  total = 0;
  for (uint32_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    total += counts[i];
  }
  // `max` stays cumulative — the cells keep no per-window maximum.
}

uint64_t LatencySnapshot::Quantile(double q) const {
  if (total == 0) {
    return 0;
  }
  // 0-based rank of the q-quantile sample; q=1 stops at the highest non-empty
  // bucket instead of falling through to the top bound, q<=0 at the lowest.
  const double up = std::ceil(q * static_cast<double>(total));
  const uint64_t rank = up >= 1.0 ? static_cast<uint64_t>(up) - 1 : 0;
  uint64_t seen = 0;
  for (uint32_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    seen += counts[i];
    if (seen > rank) {
      return LatencyHistogram::BucketUpperBound(i);
    }
  }
  return LatencyHistogram::kMaxTrackable;
}

uint64_t FixedHistogram::count() const {
  uint64_t total = 0;
  for (size_t i = 0; i <= num_bounds_; ++i) {
    total += counts_[i].load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<double> LinearBuckets(double start, double width, size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(start + width * static_cast<double>(i));
  }
  return bounds;
}

std::vector<double> ExponentialBuckets(double start, double factor, size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

Counter MetricRegistry::RegisterCounter(const std::string& name,
                                        const std::string& unit) {
  for (CounterSlot& slot : counters_) {
    if (slot.name == name) {
      return Counter(&slot.value);
    }
  }
  counters_.emplace_back();
  CounterSlot& slot = counters_.back();
  slot.name = name;
  slot.unit = unit;
  return Counter(&slot.value);
}

Gauge MetricRegistry::RegisterGauge(const std::string& name,
                                    const std::string& unit) {
  for (GaugeSlot& slot : gauges_) {
    if (slot.name == name) {
      return Gauge(&slot.value);
    }
  }
  gauges_.emplace_back();
  GaugeSlot& slot = gauges_.back();
  slot.name = name;
  slot.unit = unit;
  return Gauge(&slot.value);
}

FixedHistogram MetricRegistry::RegisterHistogram(const std::string& name,
                                                 const std::string& unit,
                                                 std::vector<double> bounds) {
  PK_CHECK(!bounds.empty()) << "histogram " << name << " needs bucket bounds";
  PK_CHECK(std::is_sorted(bounds.begin(), bounds.end()))
      << "histogram " << name << " bounds must be increasing";
  for (HistogramSlot& slot : histograms_) {
    if (slot.name == name) {
      PK_CHECK(slot.bounds == bounds)
          << "histogram " << name << " re-registered with different bounds";
      return FixedHistogram(slot.bounds.data(), slot.bounds.size(),
                            &slot.counts[0]);
    }
  }
  histograms_.emplace_back();
  HistogramSlot& slot = histograms_.back();
  slot.name = name;
  slot.unit = unit;
  slot.bounds = std::move(bounds);
  slot.rows = {name + "_count", name + "_p50", name + "_p99", name + "_max"};
  // std::deque<atomic> cannot resize (atomics are not movable); grow in place.
  for (size_t i = 0; i <= slot.bounds.size(); ++i) {
    slot.counts.emplace_back(0);
  }
  return FixedHistogram(slot.bounds.data(), slot.bounds.size(), &slot.counts[0]);
}

LatencyHistogram MetricRegistry::RegisterLatency(const std::string& name,
                                                 const std::string& unit) {
  for (LatencySlot& slot : latencies_) {
    if (slot.name == name) {
      return LatencyHistogram(slot.cells.get());
    }
  }
  latencies_.emplace_back();
  LatencySlot& slot = latencies_.back();
  slot.name = name;
  slot.unit = unit;
  slot.rows = {name + "_count", name + "_p50", name + "_p90",
               name + "_p99",   name + "_p999", name + "_max"};
  slot.cells = std::make_unique<LatencyHistogram::Cells>();
  return LatencyHistogram(slot.cells.get());
}

void MetricRegistry::RegisterProbe(const void* owner, const std::string& name,
                                   const std::string& unit,
                                   std::function<double()> probe) {
  probes_.push_back(ProbeSlot{owner, name, unit, std::move(probe)});
}

void MetricRegistry::RemoveProbes(const void* owner) {
  std::erase_if(probes_, [owner](const ProbeSlot& p) { return p.owner == owner; });
}

double MetricRegistry::HistogramSlot::Quantile(uint64_t total,
                                               double q) const {
  if (total == 0) {
    return 0.0;
  }
  // Rank of the q-quantile element (0-based): for q=1 this is the last
  // sample, so the scan stops at the highest non-empty bucket instead of
  // falling through to the overall last bound.
  const uint64_t rank =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(total))) - 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i].load(std::memory_order_relaxed);
    if (seen > rank) {
      // Upper bound of the bucket; the overflow bucket reports its lower
      // bound (the largest registered bound) — fixed buckets trade tail
      // resolution for a zero-cost record.
      return bounds[std::min(i, bounds.size() - 1)];
    }
  }
  return bounds.back();
}

bool MetricRegistry::SnapshotLatency(const std::string& name,
                                     LatencySnapshot* out) const {
  for (const LatencySlot& slot : latencies_) {
    if (slot.name == name) {
      LatencyHistogram(slot.cells.get()).SnapshotInto(out);
      return true;
    }
  }
  out->Clear();
  return false;
}

double MetricRegistry::ValueOf(std::string_view name) const {
  double value = 0.0;
  VisitSamples([&](const std::string& row, double row_value,
                   const std::string& /*unit*/) {
    if (row == name) {
      value = row_value;  // the last row with the name wins
    }
  });
  return value;
}

MetricRegistry& MetricRegistry::Default() {
  // Leaked for the same reason as PacketPool::Default(): handles may be used
  // from destructors of statics during teardown.
  static MetricRegistry* const registry = new MetricRegistry();
  return *registry;
}

}  // namespace potemkin
