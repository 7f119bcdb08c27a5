#include "src/obs/telemetry_exporter.h"

#include "src/base/json_util.h"
#include "src/base/log.h"
#include "src/obs/watchdog.h"

namespace potemkin {

TelemetryExporter::TelemetryExporter(EventLoop* loop, MetricRegistry* registry,
                                     TelemetryExporterConfig config)
    : loop_(loop), registry_(registry), config_(std::move(config)) {
  PK_CHECK(loop_ != nullptr) << "TelemetryExporter needs an event loop";
  PK_CHECK(registry_ != nullptr) << "TelemetryExporter needs a registry";
  PK_CHECK(config_.ring_capacity > 0) << "telemetry ring needs capacity";
  // All ring allocation happens here, once: steady-state ticks rewrite these
  // strings in place and keep their capacity.
  ring_.resize(config_.ring_capacity);
  for (std::string& line : ring_) {
    line.reserve(config_.line_reserve);
  }
}

TelemetryExporter::~TelemetryExporter() { Stop(); }

void TelemetryExporter::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  periodic_ = loop_->SchedulePeriodic(config_.interval, [this] { SampleNow(); });
}

void TelemetryExporter::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  loop_->Cancel(periodic_);
  periodic_ = EventHandle{};
}

const std::string& TelemetryExporter::SampleNow() {
  std::string& line = ring_[sequence_ % ring_.size()];
  line.clear();
  line += "{\"seq\":";
  AppendJsonNumber(line, static_cast<double>(sequence_));
  line += ",\"time_ns\":";
  AppendJsonNumber(line, static_cast<double>(loop_->Now().nanos()));
  line += ",\"alerts\":[";
  if (watchdog_ != nullptr) {
    bool first = true;
    for (size_t i = 0; i < watchdog_->rule_count(); ++i) {
      if (!watchdog_->state(i).firing) {
        continue;
      }
      if (!first) {
        line += ',';
      }
      first = false;
      AppendJsonString(line, watchdog_->rule(i).name);
    }
  }
  line += "],\"metrics\":[";
  const char* open = "[";
  registry_->VisitSamples([&](const std::string& name, double value,
                              const std::string& /*unit*/) {
    line += open;
    open = ",[";
    AppendJsonString(line, name);
    line += ',';
    AppendJsonNumber(line, value);
    line += ']';
  });
  line += "]}";
  ++sequence_;
  if (sink_) {
    sink_(line);
  }
  return line;
}

std::string TelemetryExporter::HeaderLine() const {
  std::string out = "{\"telemetry\":\"potemkin\",\"schema_version\":";
  AppendJsonNumber(out, kTelemetrySchemaVersion);
  out += ",\"source\":";
  AppendJsonString(out, config_.source);
  out += ",\"interval_ns\":";
  AppendJsonNumber(out, static_cast<double>(config_.interval.nanos()));
  out += ",\"ring_capacity\":";
  AppendJsonNumber(out, static_cast<double>(config_.ring_capacity));
  out += "}";
  return out;
}

size_t TelemetryExporter::retained() const {
  return sequence_ < ring_.size() ? static_cast<size_t>(sequence_)
                                  : ring_.size();
}

uint64_t TelemetryExporter::dropped() const {
  return sequence_ > ring_.size() ? sequence_ - ring_.size() : 0;
}

const std::string& TelemetryExporter::RetainedLine(size_t i) const {
  const uint64_t oldest = sequence_ - retained();
  return ring_[(oldest + i) % ring_.size()];
}

bool TelemetryExporter::WriteJsonl(const std::string& path) const {
  std::string out = HeaderLine();
  out += '\n';
  for (size_t i = 0; i < retained(); ++i) {
    out += RetainedLine(i);
    out += '\n';
  }
  return WriteStringToFile(path, out);
}

namespace {

void AppendPrometheusName(std::string& out, const std::string& name) {
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
}

void AppendPrometheusLabel(std::string& out, const std::string& value) {
  for (const char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
}

}  // namespace

std::string PrometheusTextFor(const HealthSnapshot& snapshot) {
  std::string out;
  out += "# Potemkin honeyfarm one-shot metrics dump (source=";
  AppendPrometheusLabel(out, snapshot.source);
  out += ", time_ns=";
  AppendJsonNumber(out, static_cast<double>(snapshot.time_ns));
  out += ")\n";
  for (const auto& metric : snapshot.metrics) {
    out += "potemkin_";
    AppendPrometheusName(out, metric.name);
    if (!metric.unit.empty()) {
      out += "{unit=\"";
      AppendPrometheusLabel(out, metric.unit);
      out += "\"}";
    }
    out += ' ';
    AppendJsonNumber(out, metric.value);
    out += '\n';
  }
  for (const auto& alert : snapshot.alerts) {
    out += "potemkin_alert_firing{rule=\"";
    AppendPrometheusLabel(out, alert.rule);
    out += "\",metric=\"";
    AppendPrometheusLabel(out, alert.metric);
    out += "\"} 1\n";
  }
  return out;
}

}  // namespace potemkin
