#include "src/obs/event_ledger.h"

#include <cstring>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/base/json_util.h"
#include "src/base/log.h"

namespace potemkin {

namespace {

bool IsLogEvent(LedgerEvent type) {
  return type == LedgerEvent::kLogWarning || type == LedgerEvent::kLogError ||
         type == LedgerEvent::kFatal;
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash ? slash + 1 : path;
}

// A complete ("X") event spanning `begin` to `end` on their session's track.
void AppendChromeSpan(std::string& out, const char* name,
                      const EventLedger::Record& begin,
                      const EventLedger::Record& end) {
  out += "{\"name\":";
  AppendJsonString(out, name);
  out += ",\"cat\":\"clone\",\"ph\":\"X\",\"ts\":";
  AppendJsonFixed3(out, static_cast<double>(begin.time_ns) / 1e3);
  out += ",\"dur\":";
  AppendJsonFixed3(out, static_cast<double>(end.time_ns - begin.time_ns) / 1e3);
  out += ",\"pid\":0,\"tid\":";
  AppendJsonInt(out, end.session);
  out += ",\"args\":{\"begin_seq\":";
  AppendJsonInt(out, begin.seq);
  out += ",\"end_seq\":";
  AppendJsonInt(out, end.seq);
  out += "}}";
}

}  // namespace

const char* LedgerEventName(LedgerEvent type) {
  switch (type) {
    case LedgerEvent::kFirstContact:
      return "first_contact";
    case LedgerEvent::kPacketDelivered:
      return "packet_delivered";
    case LedgerEvent::kPacketQueued:
      return "packet_queued";
    case LedgerEvent::kPacketDropped:
      return "packet_dropped";
    case LedgerEvent::kCloneRequested:
      return "clone_requested";
    case LedgerEvent::kCloneStarted:
      return "clone_started";
    case LedgerEvent::kCloneDone:
      return "clone_done";
    case LedgerEvent::kCloneFailed:
      return "clone_failed";
    case LedgerEvent::kGuestRequest:
      return "guest_request";
    case LedgerEvent::kGuestResponse:
      return "guest_response";
    case LedgerEvent::kExploit:
      return "exploit";
    case LedgerEvent::kInfection:
      return "infection";
    case LedgerEvent::kScannerFlagged:
      return "scanner_flagged";
    case LedgerEvent::kContainmentAllow:
      return "containment_allow";
    case LedgerEvent::kContainmentDrop:
      return "containment_drop";
    case LedgerEvent::kContainmentReflect:
      return "containment_reflect";
    case LedgerEvent::kContainmentRateLimit:
      return "containment_rate_limit";
    case LedgerEvent::kContainmentDnsProxy:
      return "containment_dns_proxy";
    case LedgerEvent::kContainmentBreach:
      return "containment_breach";
    case LedgerEvent::kEgressResponse:
      return "egress_response";
    case LedgerEvent::kVmRetired:
      return "vm_retired";
    case LedgerEvent::kAlertRaised:
      return "alert_raised";
    case LedgerEvent::kAlertCleared:
      return "alert_cleared";
    case LedgerEvent::kLogWarning:
      return "log_warning";
    case LedgerEvent::kLogError:
      return "log_error";
    case LedgerEvent::kFatal:
      return "fatal";
    case LedgerEvent::kCtrlState:
      return "ctrl_state";
    case LedgerEvent::kCtrlDrainBegin:
      return "ctrl_drain_begin";
    case LedgerEvent::kCtrlDrainEnd:
      return "ctrl_drain_end";
    case LedgerEvent::kCtrlMigrate:
      return "ctrl_migrate";
    case LedgerEvent::kCtrlFailover:
      return "ctrl_failover";
    case LedgerEvent::kCtrlRotate:
      return "ctrl_rotate";
    case LedgerEvent::kCtrlScale:
      return "ctrl_scale";
    case LedgerEvent::kChaosFault:
      return "chaos_fault";
    case LedgerEvent::kChaosHeal:
      return "chaos_heal";
    case LedgerEvent::kPersonaState:
      return "persona_state";
    case LedgerEvent::kPersonaAuthFailure:
      return "persona_auth_failure";
    case LedgerEvent::kPersonaLockout:
      return "persona_lockout";
    case LedgerEvent::kPersonaDecoy:
      return "persona_decoy";
    case LedgerEvent::kPersonaEscalation:
      return "persona_escalation";
    case LedgerEvent::kEscapeAttempt:
      return "escape_attempt";
    case LedgerEvent::kMalwareStage:
      return "malware_stage";
    case LedgerEvent::kCount:
      break;
  }
  return "unknown";
}

EventLedger::EventLedger(size_t capacity) {
  PK_CHECK(capacity > 0) << "event ledger needs a nonzero ring";
  ring_.resize(capacity);
}

void EventLedger::Reset(size_t capacity) {
  PK_CHECK(capacity > 0) << "event ledger needs a nonzero ring";
  ring_.assign(capacity, Record{});
  head_ = 0;
  count_ = 0;
  next_seq_ = 0;
  dropped_ = 0;
}

std::vector<EventLedger::Record> EventLedger::Events() const {
  std::vector<Record> out;
  out.reserve(count_);
  for (size_t i = 0; i < count_; ++i) {
    out.push_back(at(i));
  }
  return out;
}

std::vector<EventLedger::Record> EventLedger::EventsForSession(
    SessionId session) const {
  std::vector<Record> out;
  for (size_t i = 0; i < count_; ++i) {
    if (at(i).session == session) {
      out.push_back(at(i));
    }
  }
  return out;
}

void EventLedger::SetTrip(uint64_t mask, TripHandler handler) {
  trip_mask_ = mask;
  trip_ = std::move(handler);
}

void EventLedger::ClearTrip() {
  trip_mask_ = 0;
  trip_ = nullptr;
}

void EventLedger::AppendRecordJson(std::string& out, const Record& record) {
  out += "{\"seq\":";
  AppendJsonInt(out, record.seq);
  out += ",\"time_ns\":";
  AppendJsonInt(out, record.time_ns);
  out += ",\"session\":";
  AppendJsonInt(out, record.session);
  out += ",\"type\":";
  AppendJsonString(out, LedgerEventName(record.type));
  out += ",\"a\":";
  AppendJsonInt(out, record.a);
  out += ",\"b\":";
  AppendJsonInt(out, record.b);
  if (IsLogEvent(record.type) && record.a != 0) {
    // `a` is the address of the static __FILE__ literal the log site passed;
    // a source file's basename needs no escaping.
    const char* file = reinterpret_cast<const char*>(
        static_cast<uintptr_t>(record.a));
    out += ",\"site\":\"";
    out += Basename(file);
    out += ':';
    AppendJsonInt(out, record.b);
    out += '"';
  }
  out += '}';
}

std::string EventLedger::ToJsonLines() const {
  std::string out = "{\"ledger\":\"potemkin\",\"schema_version\":";
  AppendJsonInt(out, kSchemaVersion);
  out += ",\"appended\":";
  AppendJsonInt(out, next_seq_);
  out += ",\"dropped\":";
  AppendJsonInt(out, dropped_);
  out += "}\n";
  for (size_t i = 0; i < count_; ++i) {
    AppendRecordJson(out, at(i));
    out += '\n';
  }
  return out;
}

bool EventLedger::WriteJsonLines(const std::string& path) const {
  return WriteStringToFile(path, ToJsonLines());
}

std::string EventLedger::ToChromeJson() const {
  std::string out = "{\"traceEvents\":[";
  // Every event starts on its own line; all but the first follow a comma.
  const char* separator = "\n";
  auto next_event = [&] {
    out += separator;
    separator = ",\n";
  };
  // One metadata event per distinct session, in order of first appearance, so
  // every attack gets its own named track; tid 0 collects session-less farm
  // events.
  std::unordered_set<SessionId> seen;
  for (size_t i = 0; i < count_; ++i) {
    const SessionId session = at(i).session;
    if (!seen.insert(session).second) {
      continue;
    }
    next_event();
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":";
    AppendJsonInt(out, session);
    if (session == kNoSession) {
      out += ",\"args\":{\"name\":\"farm\"}}";
    } else {
      out += ",\"args\":{\"name\":\"session ";
      AppendJsonInt(out, session);
      out += "\"}}";
    }
  }
  // Clone spans are derived from begin/end pairs on one session:
  // clone_requested -> clone_started is the control-plane queue wait, and
  // clone_started -> clone_done | clone_failed is the clone itself. A pair
  // whose begin was evicted, or whose end has not been appended yet, emits no
  // span. Session-less clones share tid 0 and cannot be paired, so they stay
  // instants only.
  struct OpenClone {
    const Record* requested = nullptr;
    const Record* started = nullptr;
  };
  std::unordered_map<SessionId, OpenClone> open;
  for (size_t i = 0; i < count_; ++i) {
    const Record& record = at(i);
    next_event();
    out += "{\"name\":";
    AppendJsonString(out, LedgerEventName(record.type));
    out += ",\"cat\":\"ledger\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
    AppendJsonFixed3(out, static_cast<double>(record.time_ns) / 1e3);
    out += ",\"pid\":0,\"tid\":";
    AppendJsonInt(out, record.session);
    out += ",\"args\":{\"seq\":";
    AppendJsonInt(out, record.seq);
    out += ",\"a\":";
    AppendJsonInt(out, record.a);
    out += ",\"b\":";
    AppendJsonInt(out, record.b);
    out += "}}";
    if (record.session == kNoSession) {
      continue;
    }
    switch (record.type) {
      case LedgerEvent::kCloneRequested:
        open[record.session].requested = &record;
        break;
      case LedgerEvent::kCloneStarted: {
        OpenClone& clone = open[record.session];
        if (clone.requested != nullptr) {
          next_event();
          AppendChromeSpan(out, "clone_queue", *clone.requested, record);
          clone.requested = nullptr;
        }
        clone.started = &record;
        break;
      }
      case LedgerEvent::kCloneDone:
      case LedgerEvent::kCloneFailed: {
        const auto it = open.find(record.session);
        if (it != open.end() && it->second.started != nullptr) {
          next_event();
          AppendChromeSpan(out, "clone", *it->second.started, record);
          it->second.started = nullptr;
        }
        break;
      }
      default:
        break;
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool EventLedger::WriteChromeJson(const std::string& path) const {
  return WriteStringToFile(path, ToChromeJson());
}

void EventLedger::InstallLogHook(EventLedger* ledger,
                                 std::function<int64_t()> clock) {
  if (ledger == nullptr) {
    SetLogHook(nullptr);
    return;
  }
  SetLogHook([ledger, clock = std::move(clock)](LogLevel level,
                                                const char* file, int line,
                                                bool fatal) {
    const LedgerEvent type = fatal ? LedgerEvent::kFatal
                             : level == LogLevel::kWarning
                                 ? LedgerEvent::kLogWarning
                                 : LedgerEvent::kLogError;
    ledger->Append(type, kNoSession, clock ? clock() : 0,
                   static_cast<uint64_t>(reinterpret_cast<uintptr_t>(file)),
                   static_cast<uint64_t>(line));
  });
}

EventLedger& EventLedger::Default() {
  // Leaked like MetricRegistry::Default(): appenders may outlive static
  // teardown order.
  static EventLedger* const ledger = new EventLedger();
  return *ledger;
}

}  // namespace potemkin
