// Periodic JSONL time-series exporter over the metric registry: the farm's
// flight-data recorder for soak runs.
//
// Where HealthSnapshot is a point-in-time document (one JSON object with
// units and alert details), the TelemetryExporter is a *stream*: on every
// EventLoop tick it renders one JSONL line — sequence number, virtual
// timestamp, the firing watchdog alert set, and every registry sample row —
// into a fixed ring of pre-reserved strings. Both read the registry through
// its one row walk, VisitSamples. Steady-state ticks allocate nothing: row
// names are pre-built, lines are rewritten in place, and the ring bounds
// memory no matter how long the soak runs (old lines are overwritten;
// `dropped()` counts them). A sink callback observes every line as it is
// produced, so a soak harness can stream the full series to disk while the
// in-memory window stays bounded.
//
// Schema (kTelemetrySchemaVersion):
//   header:  {"telemetry":"potemkin","schema_version":1,"source":...,
//             "interval_ns":...,"ring_capacity":...}
//   sample:  {"seq":N,"time_ns":T,"alerts":["rule",...],
//             "metrics":[["name",value],...]}
// `metrics` is an array of [name,value] pairs, not an object: VisitSamples
// does not deduplicate probe names, and duplicate keys in a JSON object are a
// parsing trap — an array of pairs is dup-safe.
//
// Everything rendered is *virtual-time deterministic*: same seed, same
// traffic, same tick cadence → byte-identical series (CI diffs them with
// `cmp`). Keep wall-clock measurements (RSS, elapsed real time) out of the
// stream; they belong in BENCH report rows.
#ifndef SRC_OBS_TELEMETRY_EXPORTER_H_
#define SRC_OBS_TELEMETRY_EXPORTER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/event_loop.h"
#include "src/base/time_types.h"
#include "src/obs/health_snapshot.h"
#include "src/obs/metric_registry.h"

namespace potemkin {

class Watchdog;

inline constexpr int kTelemetrySchemaVersion = 1;

struct TelemetryExporterConfig {
  // Virtual-time cadence of Start()'s periodic tick.
  Duration interval = Duration::Seconds(1);
  // Retained-line window; older lines are overwritten (and counted dropped).
  size_t ring_capacity = 1024;
  // Initial capacity of each ring line. Lines longer than this grow their
  // string once and keep the capacity, so only the first oversized tick
  // allocates.
  size_t line_reserve = 8192;
  std::string source = "honeyfarm";
};

class TelemetryExporter {
 public:
  TelemetryExporter(EventLoop* loop, MetricRegistry* registry,
                    TelemetryExporterConfig config = {});
  ~TelemetryExporter();
  TelemetryExporter(const TelemetryExporter&) = delete;
  TelemetryExporter& operator=(const TelemetryExporter&) = delete;

  // Alert-state source for the per-line `alerts` array. The exporter only
  // *reads* firing state — evaluation cadence stays the HealthMonitor's.
  void set_watchdog(const Watchdog* watchdog) { watchdog_ = watchdog; }
  // Called with every rendered line (no trailing newline). The reference is
  // into the ring: copy or write it out before returning if it must outlive
  // the tick.
  void set_sink(std::function<void(const std::string&)> sink) {
    sink_ = std::move(sink);
  }

  void Start();
  void Stop();
  bool running() const { return running_; }

  // Renders one sample line immediately (Start()'s tick calls this).
  const std::string& SampleNow();

  // The schema-versioned header line (no trailing newline).
  std::string HeaderLine() const;

  // Header plus the retained window, oldest first, one line each. Returns
  // false when the file cannot be written.
  bool WriteJsonl(const std::string& path) const;

  uint64_t sequence() const { return sequence_; }
  size_t retained() const;
  uint64_t dropped() const;
  // Retained line `i` (0 = oldest retained). Precondition: i < retained().
  const std::string& RetainedLine(size_t i) const;

  const TelemetryExporterConfig& config() const { return config_; }

 private:
  EventLoop* loop_;
  MetricRegistry* registry_;
  TelemetryExporterConfig config_;
  const Watchdog* watchdog_ = nullptr;
  std::function<void(const std::string&)> sink_;
  std::vector<std::string> ring_;
  uint64_t sequence_ = 0;
  bool running_ = false;
  EventHandle periodic_;
};

// One-shot Prometheus text-exposition rendering of a health snapshot: every
// metric row as `potemkin_<sanitized_name>{unit="..."} value`, plus a
// `potemkin_alert_firing{rule="...",metric="..."} 1` series per firing alert.
// Metric names have every character outside [a-zA-Z0-9_:] replaced with '_'.
std::string PrometheusTextFor(const HealthSnapshot& snapshot);

}  // namespace potemkin

#endif  // SRC_OBS_TELEMETRY_EXPORTER_H_
