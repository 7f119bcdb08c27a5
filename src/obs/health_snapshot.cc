#include "src/obs/health_snapshot.h"

#include <utility>

#include "src/base/json_util.h"
#include "src/base/log.h"
#include "src/obs/watchdog.h"

namespace potemkin {

std::string HealthSnapshot::ToJson() const {
  std::string out = "{\n  \"snapshot\": ";
  AppendJsonString(out, source);
  out += ",\n  \"schema_version\": ";
  AppendJsonNumber(out, static_cast<double>(kSchemaVersion));
  out += ",\n  \"sequence\": ";
  AppendJsonNumber(out, static_cast<double>(sequence));
  out += ",\n  \"time_ns\": ";
  AppendJsonNumber(out, static_cast<double>(time_ns));
  // Alerts come BEFORE metrics; the order is part of the byte-compared
  // artifact layout (see the header).
  out += ",\n  \"alerts_schema_version\": ";
  AppendJsonNumber(out, static_cast<double>(kAlertsSchemaVersion));
  out += ",\n  \"alerts\": [";
  for (size_t i = 0; i < alerts.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"alert\": ";
    AppendJsonString(out, alerts[i].rule);
    out += ", \"metric\": ";
    AppendJsonString(out, alerts[i].metric);
    out += ", \"value\": ";
    AppendJsonNumber(out, alerts[i].value);
    out += ", \"threshold\": ";
    AppendJsonNumber(out, alerts[i].threshold);
    out += ", \"firing\": ";
    out += alerts[i].firing ? "true" : "false";
    out += ", \"since_ns\": ";
    AppendJsonNumber(out, static_cast<double>(alerts[i].since_ns));
    out += "}";
  }
  out += alerts.empty() ? "]" : "\n  ]";
  out += ",\n  \"metrics\": [";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"metric\": ";
    AppendJsonString(out, metrics[i].name);
    out += ", \"value\": ";
    AppendJsonNumber(out, metrics[i].value);
    out += ", \"unit\": ";
    AppendJsonString(out, metrics[i].unit);
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool HealthSnapshot::WriteJson(const std::string& path) const {
  return WriteStringToFile(path, ToJson());
}

HealthMonitor::HealthMonitor(EventLoop* loop, MetricRegistry* registry,
                             std::string source)
    : loop_(loop), registry_(registry), source_(std::move(source)) {
  PK_CHECK(loop_ != nullptr) << "HealthMonitor needs an event loop";
  PK_CHECK(registry_ != nullptr) << "HealthMonitor needs a registry";
}

HealthMonitor::~HealthMonitor() { Stop(); }

void HealthMonitor::Start(Duration interval) {
  if (running_) {
    return;
  }
  running_ = true;
  periodic_ = loop_->SchedulePeriodic(interval, [this] { SampleNow(); });
}

void HealthMonitor::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  loop_->Cancel(periodic_);
  periodic_ = EventHandle{};
}

const HealthSnapshot& HealthMonitor::SampleNow() {
  HealthSnapshot snapshot;
  snapshot.source = source_;
  snapshot.time_ns = loop_->Now().nanos();
  snapshot.sequence = next_sequence_++;
  snapshot.metrics = registry_->Collect();
  if (watchdog_ != nullptr) {
    watchdog_->Evaluate(snapshot);
    watchdog_->AppendAlertSamples(&snapshot.alerts);
  }
  history_.push_back(std::move(snapshot));
  while (history_.size() > kMaxHistory) {
    history_.pop_front();
  }
  if (sink_) {
    sink_(history_.back());
  }
  return history_.back();
}

}  // namespace potemkin
