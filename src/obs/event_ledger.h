// Causal event ledger: the farm's structured flight log.
//
// Aggregate metrics answer "how much"; the ledger answers "what happened to
// THIS attack". Every layer of the datapath appends fixed-size records —
// first contact, clone lifecycle, guest interaction, containment verdict,
// alerts, WARN/ERROR logs — keyed by the SessionId the gateway minted when the
// attack's first packet arrived. `tools/forensics` (and the flight recorder)
// stitch records sharing a session back into one causal per-IP timeline.
//
// The ledger is a single bounded ring of POD records, preallocated up front:
// appending on the packet hot path writes a handful of words and never
// allocates, and when the ring wraps the oldest records are overwritten
// (counted as drops) so a long-running farm cannot grow forensic memory
// without bound. Event arguments are two opaque uint64 slots whose meaning is
// fixed per event type (documented on the enum) — no strings on the hot path.
//
// Rare event types can be armed as *trips*: a mask of types whose append
// synchronously invokes a handler (the flight recorder's dump hook). Trip
// handlers must not append to the ledger they observe.
#ifndef SRC_OBS_EVENT_LEDGER_H_
#define SRC_OBS_EVENT_LEDGER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/session.h"

namespace potemkin {

// Argument conventions: `a`/`b` per type. IPs are raw host-order uint32,
// times are virtual nanoseconds.
enum class LedgerEvent : uint8_t {
  kFirstContact = 0,      // a=src ip, b=dst (farm) ip — session minted here
  kPacketDelivered,       // a=src ip, b=frame bytes
  kPacketQueued,          // a=src ip, b=queue depth after enqueue
  kPacketDropped,         // a=src ip, b=drop reason (DropReason)
  kCloneRequested,        // a=dst ip, b=host id
  kCloneStarted,          // a=dst ip, b=host id
  kCloneDone,             // a=vm id, b=clone latency ns
  kCloneFailed,           // a=dst ip, b=host id
  kGuestRequest,          // a=dst port, b=payload bytes
  kGuestResponse,         // a=dst port, b=response bytes
  kExploit,               // a=attacker ip, b=dst port
  kInfection,             // a=victim ip, b=attacker ip
  kScannerFlagged,        // a=src ip, b=distinct targets probed
  kContainmentAllow,      // a=dst ip, b=dst port
  kContainmentDrop,       // a=dst ip, b=dst port
  kContainmentReflect,    // a=original dst ip, b=reflected-to ip
  kContainmentRateLimit,  // a=dst ip, b=dst port
  kContainmentDnsProxy,   // a=dst ip, b=dst port
  kContainmentBreach,     // a=dst ip, b=dst port — infected VM packet released
  kEgressResponse,        // a=dst ip, b=frame bytes (response/backscatter out)
  kVmRetired,             // a=vm id, b=retire reason (RetireReason)
  kAlertRaised,           // a=watchdog rule index, b=observed value (rounded)
  kAlertCleared,          // a=watchdog rule index, b=observed value (rounded)
  kLogWarning,            // a=(uintptr) __FILE__ literal, b=line
  kLogError,              // a=(uintptr) __FILE__ literal, b=line
  kFatal,                 // a=(uintptr) __FILE__ literal, b=line
  // Control-plane decisions (src/ctrl): the controller's state machine writes
  // its transitions into the same causal timeline the datapath uses, so a
  // drain or failover is visible between the packets it affected.
  kCtrlState,             // a=host id, b=new BackendState
  kCtrlDrainBegin,        // a=host id, b=bindings on the host at drain start
  kCtrlDrainEnd,          // a=host id, b=1 if the deadline forced retirement
  kCtrlMigrate,           // a=farm ip, b=(from_host << 32) | to_host
  kCtrlFailover,          // a=host id, b=bindings invalidated
  kCtrlRotate,            // a=host id, b=new image generation
  kCtrlScale,             // a=ScaleAction, b=action target (host id / batch)
  kChaosFault,            // a=ChaosFault kind, b=target (host / shard pair)
  kChaosHeal,             // a=ChaosFault kind, b=target
  // Service-persona session progress (src/guest/persona): stateful protocol
  // emulators record their state-machine transitions and decoy serves so a
  // forensic timeline shows how deep an attacker got into each facade.
  kPersonaState,          // a=(PersonaKind << 8) | new state, b=dst port
  kPersonaAuthFailure,    // a=failed attempts so far, b=dst port
  kPersonaLockout,        // a=src ip, b=dst port
  kPersonaDecoy,          // a=decoy document id, b=bytes served
  // Adversarial post-compromise behavior (src/guest/persona/escape): scripted
  // escalation and escape attempts containment must catch and attribute.
  kPersonaEscalation,     // a=vm ip, b=technique id
  kEscapeAttempt,         // a=target (non-farm) ip, b=EscapeKind
  kMalwareStage,          // a=stage number, b=vm ip (multi-stage droppers)
  kCount,                 // keep last; must stay <= 64 for the trip mask
};

// Stable snake_case name used in every JSON export ("first_contact", ...).
const char* LedgerEventName(LedgerEvent type);

// Drop reasons carried in `b` of kPacketDropped.
enum class LedgerDropReason : uint8_t {
  kQueueFull = 0,
  kNotQueueing = 1,
  kNoCapacity = 2,
  kTtlExpired = 3,
  kScannerFiltered = 4,
};

class EventLedger {
 public:
  // Bump on any incompatible change to the JSONL / post-mortem record layout.
  static constexpr int kSchemaVersion = 1;
  static constexpr size_t kDefaultCapacity = 8192;

  struct Record {
    uint64_t seq = 0;     // monotone append index; never wraps, never reused
    int64_t time_ns = 0;  // virtual time of the event
    uint64_t a = 0;       // per-type argument (see LedgerEvent)
    uint64_t b = 0;
    SessionId session = kNoSession;
    LedgerEvent type = LedgerEvent::kFirstContact;
  };

  using TripHandler = std::function<void(const Record&)>;

  explicit EventLedger(size_t capacity = kDefaultCapacity);

  // Discards all retained records and reallocates the ring. NOT hot-path safe;
  // call at setup time (e.g. a farm sizing its ledger for a long replay).
  void Reset(size_t capacity);

  // Hot-path append: writes one preallocated record, no heap traffic. The
  // caller supplies the virtual time (the ledger has no clock of its own).
  void Append(LedgerEvent type, SessionId session, int64_t time_ns,
              uint64_t a = 0, uint64_t b = 0) {
    Record& r = ring_[head_];
    r.seq = next_seq_++;
    r.time_ns = time_ns;
    r.a = a;
    r.b = b;
    r.session = session;
    r.type = type;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    if (count_ < ring_.size()) {
      ++count_;
    } else {
      ++dropped_;
    }
    if ((trip_mask_ >> static_cast<unsigned>(type)) & 1u) {
      if (trip_) {
        trip_(r);
      }
    }
  }

  // Retained record `i`, oldest first (precondition: i < size()). Exporters
  // walk the ring in place with this instead of copying it.
  const Record& at(size_t i) const {
    // The oldest record sits at `head_` once the ring has wrapped, at 0 before.
    const size_t index = (count_ == ring_.size() ? head_ : 0) + i;
    return ring_[index < ring_.size() ? index : index - ring_.size()];
  }
  // Retained records, oldest first (a copy, for tests and tools).
  std::vector<Record> Events() const;
  // Retained records carrying `session`, oldest first.
  std::vector<Record> EventsForSession(SessionId session) const;

  size_t size() const { return count_; }
  size_t capacity() const { return ring_.size(); }
  uint64_t appended() const { return next_seq_; }
  uint64_t dropped() const { return dropped_; }

  // Arms `handler` to run synchronously whenever a type in `mask` is appended
  // (flight-recorder hook). The handler MUST NOT append to this ledger.
  static constexpr uint64_t TripBit(LedgerEvent type) {
    return 1ull << static_cast<unsigned>(type);
  }
  void SetTrip(uint64_t mask, TripHandler handler);
  void ClearTrip();
  uint64_t trip_mask() const { return trip_mask_; }

  // JSON Lines: one meta line, then one object per retained record:
  //   {"ledger":"potemkin","schema_version":1,"appended":N,"dropped":D}
  //   {"seq":0,"time_ns":0,"session":1,"type":"first_contact","a":...,"b":...}
  // Log/fatal records additionally carry "site":"file.cc:42".
  std::string ToJsonLines() const;
  bool WriteJsonLines(const std::string& path) const;

  // Chrome trace_event JSON: one track (tid) per session — tid 0 collects
  // session-less farm events — each record an instant ("i") event, plus
  // complete ("X") "clone_queue" and "clone" spans derived from each session's
  // clone_requested -> clone_started -> clone_done|clone_failed records.
  // Linear in retained records.
  std::string ToChromeJson() const;
  bool WriteChromeJson(const std::string& path) const;

  // Renders one record as the JSONL object (no trailing newline); shared with
  // the flight recorder so the two artifacts stay byte-compatible.
  static void AppendRecordJson(std::string& out, const Record& record);

  // Routes WARN/ERROR logs (and fatal checks) through `ledger` via the base
  // log hook, so free-form logs and structured events share one ordered
  // timeline. `clock` supplies the virtual time to stamp; null `ledger`
  // uninstalls the hook. Replaces any previously installed hook.
  static void InstallLogHook(EventLedger* ledger,
                             std::function<int64_t()> clock);

  // Process-wide ledger for components not wired to an explicit one.
  static EventLedger& Default();

 private:
  std::vector<Record> ring_;
  // Write-cursor block, padded onto its own cache line: every Append mutates
  // all four fields, and without the alignment they could share a line with
  // the ring's vector header (or an adjacent object in a per-shard
  // Observability bundle), false-sharing the hottest store in the forensic
  // path against readers of the ring pointer.
  alignas(64) size_t head_ = 0;  // next write position
  size_t count_ = 0;             // live records (<= ring_.size())
  uint64_t next_seq_ = 0;
  uint64_t dropped_ = 0;
  uint64_t trip_mask_ = 0;
  TripHandler trip_;
};

static_assert(static_cast<unsigned>(LedgerEvent::kCount) <= 64,
              "trip mask is one bit per event type");

}  // namespace potemkin

#endif  // SRC_OBS_EVENT_LEDGER_H_
