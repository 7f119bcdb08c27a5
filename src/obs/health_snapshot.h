// Versioned farm-health snapshots over the metric registry.
//
// A `HealthSnapshot` is one frozen view of every registered metric and probe
// (active VMs, binding-table load factor, packet-pool occupancy, dedup hit
// rate, containment verdict counts, recycler churn, …) stamped with the
// virtual time it was taken. Its JSON rendering is *versioned* —
// `schema_version` is bumped on any incompatible change — and deliberately
// shares the flat metric-row shape of the BENCH_<name>.json perf reports;
// `tools/bench_tool validate` schema-checks it (rejecting unknown schema
// versions with exit 2) and `tools/metrics_dump` reads it back.
//
// `HealthMonitor` drives periodic snapshotting off the simulation's
// `EventLoop::SchedulePeriodic`: one retained callback samples the registry at
// a fixed virtual-time cadence, keeps a bounded history, and optionally feeds
// each snapshot to a sink (the metrics_dump CLI, a file writer, a test).
// Sampling cost is proportional to the number of registered metrics, never to
// traffic — the packet path is untouched.
#ifndef SRC_OBS_HEALTH_SNAPSHOT_H_
#define SRC_OBS_HEALTH_SNAPSHOT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/base/event_loop.h"
#include "src/obs/metric_registry.h"

namespace potemkin {

class Watchdog;

// One firing watchdog alert as exported in a snapshot's `alerts` section.
struct AlertSample {
  std::string rule;    // watchdog rule name, e.g. "clone_latency_p99"
  std::string metric;  // snapshot metric the rule watches
  double value = 0.0;  // observed value (or rate) at this snapshot
  double threshold = 0.0;  // the rule's raise threshold
  bool firing = true;
  int64_t since_ns = 0;  // virtual time the alert raised
};

struct HealthSnapshot {
  // Bump on any incompatible change to the JSON layout; bench_tool validate
  // and metrics_dump pin the versions they understand.
  static constexpr int kSchemaVersion = 1;
  // The `alerts` section carries its own version so alert-shape changes don't
  // force a metrics-schema bump (and vice versa).
  static constexpr int kAlertsSchemaVersion = 1;

  std::string source;  // which farm/component produced it, e.g. "honeyfarm"
  int64_t time_ns = 0;  // virtual time of the sample
  uint64_t sequence = 0;  // monotone per-monitor sample index
  std::vector<AlertSample> alerts;  // watchdog rules firing at sample time
  std::vector<MetricRegistry::Sample> metrics;

  // Versioned JSON. The `alerts` section precedes `metrics` so a reader sees
  // what is firing before the long metric list, and the order stays fixed
  // because snapshot artifacts are byte-compared across runs.
  //   {
  //     "snapshot": "<source>",
  //     "schema_version": 1,
  //     "sequence": 3,
  //     "time_ns": 5000000000,
  //     "alerts_schema_version": 1,
  //     "alerts": [ {"alert": "...", "metric": "...", "value": ...,
  //                  "threshold": ..., "firing": true, "since_ns": ...}, ... ],
  //     "metrics": [ {"metric": "...", "value": ..., "unit": "..."}, ... ]
  //   }
  std::string ToJson() const;
  // Writes ToJson() to `path`; returns false on I/O failure.
  bool WriteJson(const std::string& path) const;
};

class HealthMonitor {
 public:
  using Sink = std::function<void(const HealthSnapshot&)>;

  // Snapshots retained in history(); older ones are discarded.
  static constexpr size_t kMaxHistory = 256;

  HealthMonitor(EventLoop* loop, MetricRegistry* registry, std::string source);
  ~HealthMonitor();
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  // Begins periodic sampling every `interval` of virtual time. Idempotent
  // while running.
  void Start(Duration interval);
  // Cancels the periodic event; history is retained.
  void Stop();
  bool running() const { return running_; }

  // Takes (and records) a snapshot immediately.
  const HealthSnapshot& SampleNow();

  void set_sink(Sink sink) { sink_ = std::move(sink); }
  // Attaches a watchdog: every sample is evaluated against its rules and the
  // firing set is exported into the snapshot's `alerts` section. Not owned.
  void set_watchdog(Watchdog* watchdog) { watchdog_ = watchdog; }
  Watchdog* watchdog() const { return watchdog_; }
  const std::deque<HealthSnapshot>& history() const { return history_; }
  uint64_t samples_taken() const { return next_sequence_; }

 private:
  EventLoop* loop_;
  MetricRegistry* registry_;
  std::string source_;
  EventHandle periodic_;
  bool running_ = false;
  uint64_t next_sequence_ = 0;
  std::deque<HealthSnapshot> history_;
  Sink sink_;
  Watchdog* watchdog_ = nullptr;
};

}  // namespace potemkin

#endif  // SRC_OBS_HEALTH_SNAPSHOT_H_
