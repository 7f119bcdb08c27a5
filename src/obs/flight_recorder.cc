#include "src/obs/flight_recorder.h"

#include <utility>

#include "src/base/json_util.h"

namespace potemkin {

FlightRecorder::FlightRecorder(FlightRecorderConfig config, EventLedger* ledger,
                               HealthMonitor* health)
    : config_(std::move(config)), ledger_(ledger), health_(health) {}

FlightRecorder::~FlightRecorder() { Disarm(); }

void FlightRecorder::Arm() {
  if (armed_ || ledger_ == nullptr) {
    armed_ = ledger_ != nullptr;
    return;
  }
  armed_ = true;
  const uint64_t mask = EventLedger::TripBit(LedgerEvent::kContainmentBreach) |
                        EventLedger::TripBit(LedgerEvent::kAlertRaised) |
                        EventLedger::TripBit(LedgerEvent::kFatal);
  ledger_->SetTrip(mask, [this](const EventLedger::Record& record) {
    Dump(LedgerEventName(record.type), record.time_ns, record.seq);
  });
}

void FlightRecorder::Disarm() {
  if (!armed_) {
    return;
  }
  armed_ = false;
  if (ledger_ != nullptr) {
    ledger_->ClearTrip();
  }
}

std::string FlightRecorder::BuildDumpJson(const std::string& reason,
                                          int64_t time_ns,
                                          uint64_t trigger_seq) const {
  std::string out =
      "{\n  \"postmortem\": \"potemkin\",\n  \"schema_version\": ";
  AppendJsonInt(out, kSchemaVersion);
  out += ",\n  \"reason\": ";
  AppendJsonString(out, reason);
  out += ",\n  \"time_ns\": ";
  AppendJsonInt(out, time_ns);
  out += ",\n  \"trigger_seq\": ";
  AppendJsonInt(out, trigger_seq);
  out += ",\n  \"events\": [";
  if (ledger_ != nullptr) {
    // The tail is read from the ring in place: the ledger may hold a million
    // records, and the dump wants the last `max_events`.
    const size_t size = ledger_->size();
    const size_t start =
        size > config_.max_events ? size - config_.max_events : 0;
    for (size_t i = start; i < size; ++i) {
      out += i == start ? "\n    " : ",\n    ";
      EventLedger::AppendRecordJson(out, ledger_->at(i));
    }
  }
  out += "\n  ],\n  \"snapshots\": [";
  if (health_ != nullptr) {
    // History keeps exactly the snapshots a dump carries (the last two).
    const char* separator = "\n";
    for (const HealthSnapshot& snapshot : health_->history()) {
      out += separator;
      separator = ",\n";
      snapshot.AppendJson(out);
    }
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string FlightRecorder::Dump(const std::string& reason, int64_t time_ns,
                                 uint64_t trigger_seq) {
  if (dumps_written_ >= config_.max_dumps ||
      (dumps_written_ > 0 &&
       time_ns - last_dump_ns_ < config_.min_interval.nanos())) {
    ++dumps_suppressed_;
    return "";
  }
  const std::string path = config_.output_dir + "/" + config_.prefix + "_" +
                           std::to_string(dumps_written_) + "_" + reason +
                           ".json";
  if (!WriteStringToFile(path,
                         BuildDumpJson(reason, time_ns, trigger_seq))) {
    ++dumps_suppressed_;
    return "";
  }
  ++dumps_written_;
  last_dump_ns_ = time_ns;
  last_path_ = path;
  return path;
}

}  // namespace potemkin
