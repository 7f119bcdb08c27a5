// Attack-session forensics: stitches the event ledger back into per-IP
// causal timelines.
//
// Runs a deterministic replayed attack against a small farm — background
// radiation on a /24, a seeded Slammer-like worm, reflect containment, the SLO
// watchdog armed — then reports what the ledger recorded. Every packet's first
// contact mints a SessionId at the gateway; clone lifecycle, guest
// interaction, containment verdicts and alerts all carry it, so one session is
// one attack's complete story.
//
// Usage:
//   forensics [--session=IP] [--jsonl=PATH] [--chrome=PATH]
//             [--seconds=N] [--seed=N] [--chaos=N]
//
//   (no flags)      per-session summary table, busiest sessions first; a
//                   session whose first contact the ring evicted shows
//                   `evicted` endpoints and a "(partial)" story
//   --session=IP    full first-packet -> clone -> interaction -> containment
//                   timeline for the session first-contacted at farm address IP
//                   (or sourced from IP)
//   --jsonl=PATH    export the whole ledger as JSON Lines
//   --chrome=PATH   export a Chrome trace (one track per session)
//   --chaos=N       fly the replay under the control plane with N seeded
//                   faults; the summary gains a control-plane timeline of
//                   every controller decision and chaos injection
//
// Unknown flags are usage errors (exit 2); --session with an address no
// session touched exits 1.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/flags.h"
#include "src/base/strings.h"
#include "src/base/table.h"
#include "src/core/honeyfarm.h"
#include "src/ctrl/chaos.h"
#include "src/ctrl/controller.h"
#include "src/malware/radiation.h"
#include "src/obs/event_ledger.h"

namespace potemkin {
namespace {

std::string Ip(uint64_t raw) {
  return Ipv4Address(static_cast<uint32_t>(raw)).ToString();
}

const char* DropReasonName(uint64_t reason) {
  switch (static_cast<LedgerDropReason>(reason)) {
    case LedgerDropReason::kQueueFull: return "queue_full";
    case LedgerDropReason::kNotQueueing: return "not_queueing";
    case LedgerDropReason::kNoCapacity: return "no_capacity";
    case LedgerDropReason::kTtlExpired: return "ttl_expired";
    case LedgerDropReason::kScannerFiltered: return "scanner_filtered";
  }
  return "?";
}

// Human rendering of one record's a/b arguments, per the enum's conventions.
std::string DescribeRecord(Honeyfarm& farm, const EventLedger::Record& r) {
  switch (r.type) {
    case LedgerEvent::kFirstContact:
      return StrFormat("%s -> %s (session minted)", Ip(r.a).c_str(), Ip(r.b).c_str());
    case LedgerEvent::kPacketDelivered:
      return StrFormat("from %s, %llu bytes", Ip(r.a).c_str(),
                       static_cast<unsigned long long>(r.b));
    case LedgerEvent::kPacketQueued:
      return StrFormat("from %s, queue depth %llu", Ip(r.a).c_str(),
                       static_cast<unsigned long long>(r.b));
    case LedgerEvent::kPacketDropped:
      return StrFormat("from %s: %s", Ip(r.a).c_str(), DropReasonName(r.b));
    case LedgerEvent::kCloneRequested:
    case LedgerEvent::kCloneStarted:
    case LedgerEvent::kCloneFailed:
      return StrFormat("%s on host%llu", Ip(r.a).c_str(),
                       static_cast<unsigned long long>(r.b));
    case LedgerEvent::kCloneDone:
      return StrFormat("vm %llu live after %.3f ms",
                       static_cast<unsigned long long>(r.a),
                       static_cast<double>(r.b) / 1e6);
    case LedgerEvent::kGuestRequest:
      return StrFormat("port %llu, %llu payload bytes",
                       static_cast<unsigned long long>(r.a),
                       static_cast<unsigned long long>(r.b));
    case LedgerEvent::kGuestResponse:
      return StrFormat("port %llu, %llu bytes",
                       static_cast<unsigned long long>(r.a),
                       static_cast<unsigned long long>(r.b));
    case LedgerEvent::kExploit:
      return StrFormat("payload from %s matched vulnerability on port %llu",
                       Ip(r.a).c_str(), static_cast<unsigned long long>(r.b));
    case LedgerEvent::kInfection:
      return StrFormat("%s infected by %s", Ip(r.a).c_str(), Ip(r.b).c_str());
    case LedgerEvent::kScannerFlagged:
      return StrFormat("%s flagged after %llu distinct targets", Ip(r.a).c_str(),
                       static_cast<unsigned long long>(r.b));
    case LedgerEvent::kContainmentAllow:
    case LedgerEvent::kContainmentDrop:
    case LedgerEvent::kContainmentRateLimit:
    case LedgerEvent::kContainmentDnsProxy:
    case LedgerEvent::kContainmentBreach:
      return StrFormat("outbound to %s:%llu", Ip(r.a).c_str(),
                       static_cast<unsigned long long>(r.b));
    case LedgerEvent::kContainmentReflect:
      return StrFormat("scan of %s folded back to %s", Ip(r.a).c_str(),
                       Ip(r.b).c_str());
    case LedgerEvent::kEgressResponse:
      return StrFormat("to %s, %llu bytes", Ip(r.a).c_str(),
                       static_cast<unsigned long long>(r.b));
    case LedgerEvent::kVmRetired:
      return StrFormat("vm %llu (reason %llu)", static_cast<unsigned long long>(r.a),
                       static_cast<unsigned long long>(r.b));
    case LedgerEvent::kAlertRaised:
    case LedgerEvent::kAlertCleared: {
      const Watchdog* dog = farm.watchdog();
      const std::string name =
          dog != nullptr && r.a < dog->rule_count() ? dog->rule(r.a).name : "?";
      return StrFormat("%s (observed ~%llu)", name.c_str(),
                       static_cast<unsigned long long>(r.b));
    }
    case LedgerEvent::kLogWarning:
    case LedgerEvent::kLogError:
    case LedgerEvent::kFatal: {
      const char* file = reinterpret_cast<const char*>(static_cast<uintptr_t>(r.a));
      return StrFormat("%s:%llu", file == nullptr ? "?" : file,
                       static_cast<unsigned long long>(r.b));
    }
    case LedgerEvent::kCtrlState:
      return StrFormat("host%llu -> %s", static_cast<unsigned long long>(r.a),
                       BackendStateName(static_cast<BackendState>(r.b)));
    case LedgerEvent::kCtrlDrainBegin:
      return StrFormat("host%llu draining, %llu bindings to move",
                       static_cast<unsigned long long>(r.a),
                       static_cast<unsigned long long>(r.b));
    case LedgerEvent::kCtrlDrainEnd:
      return StrFormat("host%llu empty (%s)",
                       static_cast<unsigned long long>(r.a),
                       r.b == 0 ? "all sessions migrated" : "deadline forced");
    case LedgerEvent::kCtrlMigrate:
      return StrFormat("%s rebinding host%llu -> host%llu", Ip(r.a).c_str(),
                       static_cast<unsigned long long>(r.b >> 32),
                       static_cast<unsigned long long>(r.b & 0xffffffffull));
    case LedgerEvent::kCtrlFailover:
      return StrFormat("host%llu failed, %llu bindings invalidated",
                       static_cast<unsigned long long>(r.a),
                       static_cast<unsigned long long>(r.b));
    case LedgerEvent::kCtrlRotate:
      return StrFormat("host%llu image rotated to generation %llu",
                       static_cast<unsigned long long>(r.a),
                       static_cast<unsigned long long>(r.b));
    case LedgerEvent::kCtrlScale:
      return StrFormat("%s (target %llu)",
                       ScaleActionName(static_cast<ScaleAction>(r.a)),
                       static_cast<unsigned long long>(r.b));
    case LedgerEvent::kChaosFault:
      return StrFormat("inject %s on target %llu",
                       ChaosFaultName(static_cast<ChaosFault>(r.a)),
                       static_cast<unsigned long long>(r.b));
    case LedgerEvent::kChaosHeal:
      return StrFormat("heal %s on target %llu",
                       ChaosFaultName(static_cast<ChaosFault>(r.a)),
                       static_cast<unsigned long long>(r.b));
    case LedgerEvent::kCount:
      break;
  }
  return "";
}

// The deterministic replayed outbreak every invocation reconstructs. With a
// controller (and optionally a chaos harness) the control plane flies the
// same replay, so its decisions land in the same ledger.
void RunScenario(Honeyfarm& farm, WormRuntime& worm, const Ipv4Prefix& prefix,
                 double seconds, uint64_t seed, Controller* controller,
                 ChaosHarness* harness) {
  farm.AttachWorm(&worm);
  farm.Start();
  farm.StartWatchdog(Duration::Seconds(1));
  if (controller != nullptr) {
    controller->Start();
  }
  if (harness != nullptr) {
    harness->Arm();
  }

  RadiationConfig radiation;
  radiation.telescope = prefix;
  radiation.duration = Duration::Seconds(seconds);
  radiation.mean_pps = 30.0;
  radiation.source_pool = 64;
  radiation.seed = seed;
  farm.ScheduleTrace(RadiationGenerator(radiation).GenerateAll());

  farm.SeedWorm(worm, Ipv4Address(198, 51, 100, 66), prefix.AddressAt(1));
  farm.RunFor(Duration::Seconds(seconds));
}

bool IsControlPlaneEvent(LedgerEvent type) {
  switch (type) {
    case LedgerEvent::kCtrlState:
    case LedgerEvent::kCtrlDrainBegin:
    case LedgerEvent::kCtrlDrainEnd:
    case LedgerEvent::kCtrlMigrate:
    case LedgerEvent::kCtrlFailover:
    case LedgerEvent::kCtrlRotate:
    case LedgerEvent::kCtrlScale:
    case LedgerEvent::kChaosFault:
    case LedgerEvent::kChaosHeal:
      return true;
    default:
      return false;
  }
}

struct SessionSummary {
  SessionId session = kNoSession;
  Ipv4Address source;
  Ipv4Address target;
  int64_t first_ns = 0;
  int64_t last_ns = 0;
  size_t events = 0;
  bool infected = false;
  bool contained = false;  // any containment verdict recorded
  // The first contact is still in the ring. When it is not, the ring evicted
  // the session's start: its endpoints are unknown, and its span and story
  // begin at the oldest retained record.
  bool complete = false;
};

int PrintSummary(Honeyfarm& farm) {
  const EventLedger& ledger = farm.ledger();
  std::map<SessionId, SessionSummary> sessions;
  for (size_t i = 0; i < ledger.size(); ++i) {
    const EventLedger::Record& r = ledger.at(i);
    if (r.session == kNoSession) {
      continue;
    }
    SessionSummary& s = sessions[r.session];
    if (s.events == 0) {
      s.session = r.session;
      s.first_ns = r.time_ns;
    }
    ++s.events;
    s.last_ns = r.time_ns;
    switch (r.type) {
      case LedgerEvent::kFirstContact:
        s.source = Ipv4Address(static_cast<uint32_t>(r.a));
        s.target = Ipv4Address(static_cast<uint32_t>(r.b));
        s.complete = true;
        break;
      case LedgerEvent::kInfection:
        s.infected = true;
        break;
      case LedgerEvent::kContainmentDrop:
      case LedgerEvent::kContainmentReflect:
      case LedgerEvent::kContainmentRateLimit:
        s.contained = true;
        break;
      default:
        break;
    }
  }
  std::vector<SessionSummary> order;
  order.reserve(sessions.size());
  for (const auto& [id, s] : sessions) {
    order.push_back(s);
  }
  std::sort(order.begin(), order.end(),
            [](const SessionSummary& x, const SessionSummary& y) {
              return x.events != y.events ? x.events > y.events
                                          : x.session < y.session;
            });
  Table table({"session", "source", "target", "events", "span", "story"});
  const size_t show = std::min<size_t>(order.size(), 20);
  size_t partial = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    const SessionSummary& s = order[i];
    partial += s.complete ? 0 : 1;
    if (i >= show) {
      continue;
    }
    std::string story = s.infected ? "INFECTED" : "probed";
    if (s.contained) {
      story += "+contained";
    }
    if (!s.complete) {
      story += " (partial)";
    }
    table.AddRow({StrFormat("%u", s.session),
                  s.complete ? s.source.ToString() : "evicted",
                  s.complete ? s.target.ToString() : "evicted",
                  StrFormat("%zu", s.events),
                  StrFormat("%.3fs", static_cast<double>(s.last_ns - s.first_ns) / 1e9),
                  story});
  }
  std::printf("%s", table.ToAscii().c_str());
  // Control-plane decisions are farm-scoped (no session), so they would be
  // invisible in the per-session table — give them their own timeline.
  size_t ctrl_events = 0;
  for (size_t i = 0; i < ledger.size(); ++i) {
    ctrl_events += IsControlPlaneEvent(ledger.at(i).type) ? 1 : 0;
  }
  if (ctrl_events > 0) {
    std::printf("\ncontrol plane (%zu events):\n", ctrl_events);
    for (size_t i = 0; i < ledger.size(); ++i) {
      const EventLedger::Record& r = ledger.at(i);
      if (IsControlPlaneEvent(r.type)) {
        std::printf("  [%10.6fs] %-22s %s\n",
                    static_cast<double>(r.time_ns) / 1e9,
                    LedgerEventName(r.type), DescribeRecord(farm, r).c_str());
      }
    }
  }
  const std::string partial_note =
      partial > 0 ? StrFormat(", %zu partial", partial) : "";
  std::printf("%zu sessions (%zu shown%s), %llu ledger records "
              "(%llu evicted)\n",
              order.size(), show, partial_note.c_str(),
              static_cast<unsigned long long>(ledger.appended()),
              static_cast<unsigned long long>(ledger.dropped()));
  return 0;
}

int PrintSessionTimeline(Honeyfarm& farm, Ipv4Address ip) {
  const EventLedger& ledger = farm.ledger();
  // The session whose first contact targeted (or came from) `ip`.
  SessionId session = kNoSession;
  for (size_t i = 0; i < ledger.size(); ++i) {
    const EventLedger::Record& r = ledger.at(i);
    if (r.type == LedgerEvent::kFirstContact &&
        (r.b == ip.value() || r.a == ip.value())) {
      session = r.session;
      break;
    }
  }
  if (session == kNoSession) {
    std::fprintf(stderr, "forensics: no session touched %s (it may have been "
                 "evicted from the %zu-record ring)\n",
                 ip.ToString().c_str(), farm.ledger().capacity());
    return 1;
  }
  const auto events = farm.ledger().EventsForSession(session);
  std::printf("session %u: %s — %zu events\n", session, ip.ToString().c_str(),
              events.size());
  for (const auto& r : events) {
    std::printf("  [%10.6fs] %-22s %s\n", static_cast<double>(r.time_ns) / 1e9,
                LedgerEventName(r.type), DescribeRecord(farm, r).c_str());
  }
  return 0;
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: forensics [--session=IP] [--jsonl=PATH] [--chrome=PATH] "
               "[--seconds=N] [--seed=N] [--chaos=N]\n");
}

int Run(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  for (const std::string& name : flags.Names()) {
    if (name != "session" && name != "jsonl" && name != "chrome" &&
        name != "seconds" && name != "seed" && name != "chaos") {
      std::fprintf(stderr, "forensics: unknown flag --%s\n", name.c_str());
      PrintUsage();
      return 2;
    }
  }
  const double seconds = flags.GetDouble("seconds", 30.0);
  const uint64_t seed = flags.GetUint("seed", 7);

  const Ipv4Prefix prefix(Ipv4Address(10, 1, 0, 0), 24);
  HoneyfarmConfig config = MakeDefaultFarmConfig(
      prefix, /*num_hosts=*/2, /*host_memory_mb=*/512, ContentMode::kMetadataOnly);
  config.server_template.image.num_pages = 2048;
  config.server_template.engine.latency = CloneLatencyModel::Optimized();
  config.server_template.engine.control_plane_workers = 2;
  config.gateway.containment.mode = OutboundMode::kReflect;
  // 48 MB of ring (~48 bytes/record) holds the default 30 s replay whole.
  // Longer replays evict their oldest records: the summary then marks each
  // session whose first contact went as partial.
  config.ledger_capacity = 1u << 20;
  Honeyfarm farm(config);

  const Ipv4Prefix internet(Ipv4Address(0, 0, 0, 0), 0);
  WormConfig worm_config = SlammerLikeWorm(internet);
  worm_config.scan_rate_pps = 20.0;
  WormRuntime worm(&farm.loop(), worm_config, seed);

  const size_t chaos_faults = flags.GetUint("chaos", 0);
  std::unique_ptr<Controller> controller;
  std::unique_ptr<ChaosHarness> harness;
  if (chaos_faults > 0) {
    ControllerConfig ctrl_config;
    ctrl_config.tick = Duration::Millis(500);
    controller = std::make_unique<Controller>(&farm, ctrl_config);
    ChaosConfig chaos_config;
    chaos_config.seed = seed;
    chaos_config.num_faults = chaos_faults;
    chaos_config.horizon = Duration::Seconds(seconds * 0.8);
    harness = std::make_unique<ChaosHarness>(&farm, controller.get(),
                                             chaos_config);
  }
  RunScenario(farm, worm, prefix, seconds, seed, controller.get(),
              harness.get());

  const std::string jsonl = flags.GetString("jsonl", "");
  if (!jsonl.empty() && !farm.ledger().WriteJsonLines(jsonl)) {
    std::fprintf(stderr, "forensics: cannot write %s\n", jsonl.c_str());
    return 2;
  }
  const std::string chrome = flags.GetString("chrome", "");
  if (!chrome.empty() && !farm.ledger().WriteChromeJson(chrome)) {
    std::fprintf(stderr, "forensics: cannot write %s\n", chrome.c_str());
    return 2;
  }

  const std::string session_ip = flags.GetString("session", "");
  if (!session_ip.empty()) {
    const auto ip = Ipv4Address::Parse(session_ip);
    if (!ip) {
      std::fprintf(stderr, "forensics: bad address %s\n", session_ip.c_str());
      PrintUsage();
      return 2;
    }
    return PrintSessionTimeline(farm, *ip);
  }
  return PrintSummary(farm);
}

}  // namespace
}  // namespace potemkin

int main(int argc, char** argv) {
  return potemkin::Run(argc, argv);
}
