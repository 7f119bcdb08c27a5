// Farm-wide metric registry: the single telemetry surface every component
// reports through, designed so that instrumenting a hot path costs one relaxed
// atomic add and nothing else.
//
// The registry separates *registration* (cold: may allocate, happens once per
// component construction) from *recording* (hot: zero allocations, zero locks,
// no branches on registry internals). Registration hands back a small handle —
// `Counter`, `Gauge`, or `FixedHistogram` — that points directly at atomic
// storage owned by the registry; the handle's increment methods compile down to
// a single `fetch_add(std::memory_order_relaxed)` on a pre-resolved address.
// Storage lives in deques, whose elements never move, so handles stay valid for
// the registry's lifetime no matter how many metrics register after them.
//
// Four metric kinds cover the farm:
//   * Counter          — monotone event count (packets delivered, clones done)
//   * Gauge            — instantaneous signed level (queue depth)
//   * FixedHistogram   — distribution over fixed, registration-time bucket
//                        bounds (batch bin sizes, frame bytes); recording scans
//                        a handful of bounds and does one atomic add
//   * LatencyHistogram — log-linear (HDR-style) distribution over the full
//                        uint64 range at ~6.25% relative precision; recording
//                        is a bit-scan plus one relaxed atomic add, and the
//                        row walk extracts p50/p90/p99/p999 + exact max.
//                        Per-shard instances snapshot into POD
//                        `LatencySnapshot`s that merge deterministically in
//                        shard order.
//
// plus *probes*: named callbacks sampled only when a snapshot is taken, for
// components that already keep their own counters (binding-table load factor,
// pool occupancy, containment verdicts). A probe costs its owner nothing on the
// packet path. Probes capture component pointers, so owners MUST call
// `RemoveProbes(owner)` from their destructor (the instrumented components in
// this repo all do).
//
// Registering the same name twice returns a handle to the same storage —
// multiple instances of a component (common in tests sharing the process-wide
// default registry) aggregate rather than collide.
#ifndef SRC_OBS_METRIC_REGISTRY_H_
#define SRC_OBS_METRIC_REGISTRY_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace potemkin {

class MetricRegistry;

// Handle to a monotone counter. Default-constructed handles target a shared
// sink cell, so an uninstrumented component never branches or faults.
class Counter {
 public:
  Counter();
  void Inc(uint64_t n = 1) { cell_->fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return cell_->load(std::memory_order_relaxed); }

 private:
  friend class MetricRegistry;
  explicit Counter(std::atomic<uint64_t>* cell) : cell_(cell) {}
  std::atomic<uint64_t>* cell_;
};

// Handle to an instantaneous signed level.
class Gauge {
 public:
  Gauge();
  void Set(int64_t v) { cell_->store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { cell_->fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return cell_->load(std::memory_order_relaxed); }

 private:
  friend class MetricRegistry;
  explicit Gauge(std::atomic<int64_t>* cell) : cell_(cell) {}
  std::atomic<int64_t>* cell_;
};

// Handle to a histogram over fixed bucket bounds. `Record` places the value in
// the first bucket whose upper bound admits it (the last bucket is unbounded)
// with a short linear scan over the registration-time bounds — bounded work,
// no allocation, one relaxed atomic add.
class FixedHistogram {
 public:
  FixedHistogram();
  void Record(double value) {
    size_t i = 0;
    while (i < num_bounds_ && value > bounds_[i]) {
      ++i;
    }
    counts_[i].fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t count() const;

 private:
  friend class MetricRegistry;
  FixedHistogram(const double* bounds, size_t num_bounds,
                 std::atomic<uint64_t>* counts)
      : bounds_(bounds), num_bounds_(num_bounds), counts_(counts) {}
  const double* bounds_;
  size_t num_bounds_;
  std::atomic<uint64_t>* counts_;  // num_bounds_ + 1 cells
};

struct LatencySnapshot;

// Handle to a zero-allocation log-linear (HDR-style) histogram for latency and
// size distributions whose dynamic range is unknown at registration time.
//
// Bucket layout: values below kSubBuckets (16) get one bucket each (exact);
// above that, every power-of-two range splits into 16 sub-buckets, so the
// bucket upper bound over-reports a recorded value by at most 1/16 (~6.25%).
// Values are clamped to kMaxTrackable = 2^48-1 — anything larger lands in the
// saturating top bucket (a separate `max` cell still remembers the exact raw
// maximum). Total footprint is kNumBuckets (720) fixed POD cells per instance.
//
// Record cost: one branch-free bucket index (a count-leading-zeros plus
// shifts) and one relaxed atomic add, plus a relaxed load of the running max
// that only escalates to a CAS when the sample is a new maximum — by
// construction a rare event in steady state.
class LatencyHistogram {
 public:
  static constexpr uint32_t kSubBucketBits = 4;
  static constexpr uint32_t kSubBuckets = 1u << kSubBucketBits;  // 16
  static constexpr uint32_t kMaxExponent = 48;
  static constexpr uint32_t kNumBuckets =
      (kMaxExponent - kSubBucketBits) * kSubBuckets + kSubBuckets;  // 720
  static constexpr uint64_t kMaxTrackable =
      (uint64_t{1} << kMaxExponent) - 1;

  // The POD cell block a handle points at. Owned by the registry (or the
  // shared sink for default-constructed handles); never moves.
  struct Cells {
    std::atomic<uint64_t> counts[kNumBuckets]{};
    alignas(64) std::atomic<uint64_t> max{0};
  };

  LatencyHistogram();

  void Record(uint64_t value) {
    cells_->counts[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    uint64_t prev = cells_->max.load(std::memory_order_relaxed);
    while (value > prev &&
           !cells_->max.compare_exchange_weak(prev, value,
                                              std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const;
  // Exact raw maximum ever recorded (not a bucket bound), 0 when empty.
  uint64_t max_value() const {
    return cells_->max.load(std::memory_order_relaxed);
  }

  // Copies the current cell values into `out` (overwrites it). Per-shard
  // snapshots taken this way merge deterministically via
  // LatencySnapshot::MergeFrom in shard order.
  void SnapshotInto(LatencySnapshot* out) const;

  // Bucket index for `value` after clamping to kMaxTrackable.
  static uint32_t BucketIndex(uint64_t value) {
    if (value > kMaxTrackable) {
      value = kMaxTrackable;
    }
    if (value < kSubBuckets) {
      return static_cast<uint32_t>(value);
    }
    const uint32_t msb = 63u - static_cast<uint32_t>(std::countl_zero(value));
    return (msb - kSubBucketBits + 1) * kSubBuckets +
           static_cast<uint32_t>((value >> (msb - kSubBucketBits)) &
                                 (kSubBuckets - 1));
  }
  // Largest value that lands in bucket `index` (inverse of BucketIndex).
  static uint64_t BucketUpperBound(uint32_t index);

 private:
  friend class MetricRegistry;
  explicit LatencyHistogram(Cells* cells) : cells_(cells) {}
  Cells* cells_;
};

// POD snapshot of a LatencyHistogram: plain counters, no atomics, safe to
// copy, diff, and merge. Merging per-shard snapshots in ascending shard order
// is the deterministic reduction used by the sharded gateway and the soak
// harness's windowed-percentile checks.
struct LatencySnapshot {
  uint64_t counts[LatencyHistogram::kNumBuckets];
  uint64_t total = 0;
  uint64_t max = 0;

  void Clear();
  // Accumulates `other` into this snapshot (bucket-wise add, max of maxes).
  void MergeFrom(const LatencySnapshot& other);
  // Subtracts an earlier snapshot of the same histogram, leaving only the
  // samples recorded in the window between the two (for "flat p99" checks).
  void SubtractBaseline(const LatencySnapshot& earlier);
  // Bucket-upper-bound estimate of the q-quantile (q in (0, 1]); 0 when
  // empty. Quantile(1.0) reports the top non-empty bucket's bound, which may
  // exceed `max` by the bucket width.
  uint64_t Quantile(double q) const;
};

// Convenience bucket-bound builders for RegisterHistogram.
std::vector<double> LinearBuckets(double start, double width, size_t count);
std::vector<double> ExponentialBuckets(double start, double factor, size_t count);

class MetricRegistry {
 public:
  struct Sample {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // ---- Registration (cold path; may allocate) ----
  Counter RegisterCounter(const std::string& name, const std::string& unit);
  Gauge RegisterGauge(const std::string& name, const std::string& unit);
  // `bounds` must be strictly increasing; an implicit overflow bucket is added.
  FixedHistogram RegisterHistogram(const std::string& name,
                                   const std::string& unit,
                                   std::vector<double> bounds);
  // Log-linear histogram over uint64 values (latencies in ns, sizes in
  // packets/pages). Re-registering a name returns the same storage, so shard
  // instances sharing a registry aggregate into one farm-wide distribution.
  LatencyHistogram RegisterLatency(const std::string& name,
                                   const std::string& unit);
  // Registers a callback sampled on every VisitSamples walk. `owner` keys
  // removal; the callback must stay valid until RemoveProbes(owner).
  void RegisterProbe(const void* owner, const std::string& name,
                     const std::string& unit, std::function<double()> probe);
  // Drops every probe registered under `owner` (called from owner destructors).
  void RemoveProbes(const void* owner);

  // ---- Collection (snapshot path; never taken per packet) ----
  // The registry's one row walk: health snapshots, telemetry lines and
  // ValueOf all read it. Calls `visit(name, value, unit)` once per row, in
  // registration order within each kind: counters and gauges one row each;
  // fixed histograms `<name>_count`, `<name>_p50`, `<name>_p99` and
  // `<name>_max` (bucket-upper-bound estimates); latency histograms
  // `<name>_count`, `<name>_p50`, `<name>_p90`, `<name>_p99`, `<name>_p999`
  // (bucket-upper-bound estimates) and `<name>_max` (exact); then each
  // probe's sampled value. `_count` rows carry the unit "count". Names and
  // units are stable `const std::string&`s (histogram row names are pre-built
  // at registration), so a walk allocates nothing. Probe names are not
  // deduplicated: two live probes with one name yield two rows, and a reader
  // that wants one value takes the last (the newest registration).
  template <typename Visit>
  void VisitSamples(Visit&& visit) const {
    for (const CounterSlot& slot : counters_) {
      visit(slot.name,
            static_cast<double>(slot.value.load(std::memory_order_relaxed)),
            slot.unit);
    }
    for (const GaugeSlot& slot : gauges_) {
      visit(slot.name,
            static_cast<double>(slot.value.load(std::memory_order_relaxed)),
            slot.unit);
    }
    for (const HistogramSlot& slot : histograms_) {
      uint64_t total = 0;
      for (const auto& cell : slot.counts) {
        total += cell.load(std::memory_order_relaxed);
      }
      visit(slot.rows[0], static_cast<double>(total), kCountUnit);
      visit(slot.rows[1], slot.Quantile(total, 0.50), slot.unit);
      visit(slot.rows[2], slot.Quantile(total, 0.99), slot.unit);
      visit(slot.rows[3], slot.Quantile(total, 1.0), slot.unit);
    }
    for (const LatencySlot& slot : latencies_) {
      // The snapshot is a ~5.8 KB stack object: no heap traffic on the walk.
      LatencySnapshot snap;
      LatencyHistogram(slot.cells.get()).SnapshotInto(&snap);
      visit(slot.rows[0], static_cast<double>(snap.total), kCountUnit);
      visit(slot.rows[1], static_cast<double>(snap.Quantile(0.50)), slot.unit);
      visit(slot.rows[2], static_cast<double>(snap.Quantile(0.90)), slot.unit);
      visit(slot.rows[3], static_cast<double>(snap.Quantile(0.99)), slot.unit);
      visit(slot.rows[4], static_cast<double>(snap.Quantile(0.999)), slot.unit);
      visit(slot.rows[5], static_cast<double>(snap.max), slot.unit);
    }
    for (const ProbeSlot& slot : probes_) {
      visit(slot.name, slot.probe(), slot.unit);
    }
  }

  // Copies the named latency histogram's cells into `out`. Returns false (and
  // leaves `out` cleared) when no such histogram is registered.
  bool SnapshotLatency(const std::string& name, LatencySnapshot* out) const;

  // Cold lookup of one row's value by name (tests, benches): a full
  // VisitSamples walk that allocates nothing (the name is a view, so a literal
  // builds no string). The last row with the name wins; returns 0.0 when
  // absent.
  double ValueOf(std::string_view name) const;

  size_t counter_count() const { return counters_.size(); }
  size_t probe_count() const { return probes_.size(); }

  // Process-wide registry used by components not wired to an explicit one.
  static MetricRegistry& Default();

 private:
  // The value cells are cache-line aligned so two counters that registered
  // adjacently (and therefore sit in neighboring deque slots) never share a
  // line: with per-shard gateway threads hammering different counters, false
  // sharing would otherwise turn independent relaxed adds into a coherence
  // ping-pong. Cold metadata (name/unit) may share the line; only the cell is
  // written on the hot path.
  struct CounterSlot {
    std::string name;
    std::string unit;
    alignas(64) std::atomic<uint64_t> value{0};
  };
  struct GaugeSlot {
    std::string name;
    std::string unit;
    alignas(64) std::atomic<int64_t> value{0};
  };
  struct HistogramSlot {
    std::string name;
    std::string unit;
    std::vector<double> bounds;
    std::deque<std::atomic<uint64_t>> counts;  // bounds.size() + 1, stable
    // Pre-built derived row names (_count/_p50/_p99/_max) so VisitSamples
    // never concatenates strings on an exporter tick.
    std::array<std::string, 4> rows;

    // Bound of the bucket holding the q-quantile of `total` samples.
    double Quantile(uint64_t total, double q) const;
  };
  struct LatencySlot {
    std::string name;
    std::string unit;
    // Pre-built derived row names: _count/_p50/_p90/_p99/_p999/_max.
    std::array<std::string, 6> rows;
    // Heap block (~5.8 KB of cells) with a stable address; the deque slot
    // itself also never moves, but the indirection keeps slots cheap to walk.
    std::unique_ptr<LatencyHistogram::Cells> cells;
  };
  struct ProbeSlot {
    const void* owner;
    std::string name;
    std::string unit;
    std::function<double()> probe;
  };

  static inline const std::string kCountUnit = "count";

  // Deques: element addresses are stable across growth, which is what keeps
  // previously handed-out handles valid.
  std::deque<CounterSlot> counters_;
  std::deque<GaugeSlot> gauges_;
  std::deque<HistogramSlot> histograms_;
  std::deque<LatencySlot> latencies_;
  std::vector<ProbeSlot> probes_;
};

}  // namespace potemkin

#endif  // SRC_OBS_METRIC_REGISTRY_H_
