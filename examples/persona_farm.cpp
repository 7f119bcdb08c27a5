// Stateful service personas under attack, with post-compromise escape
// attempts the containment layer must catch and attribute.
//
//   ./persona_farm [--seed 11] [--policy reflect|drop|open] [--allow-fetch]
//                  [--seconds 15] [--out DIR] [--ledger-bits N] [--no-bench]
//
// A strict-TCP farm runs the persona honeypot profile (SSH auth facade, SMB
// negotiate chain, HTTP decoy documents). One scripted external attacker plays
// real handshakes against four victims: a brute-force SSH session that ends in
// lockout, an HTTP crawl that retrieves the decoy bait, an SMB walk to tree
// connect, and finally the CGI exploit that lands a multi-stage dropper. The
// dropper tries to fetch its second stage from a C2; the escape runtime
// escalates and tries to beacon, scan outside the farm, and exfiltrate over
// DNS. Every escape packet crosses the gateway like any other traffic, so the
// run's verdict is read from the event ledger: each kEscapeAttempt must be
// paired with the containment event that caught it.
//
// The run is deterministic: same seed, same virtual-time schedule, same ledger
// byte-for-byte. CI replays it twice and diffs the artifacts.
//
// With --allow-fetch the dropper's fetch port is allow-listed (the paper's
// controlled-update channel): the infection completes, stage-2 scanning
// starts, and the allow-list hit is reported as a deliberate containment hole
// — scripted escape attempts must still all be caught.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/report.h"
#include "src/base/flags.h"
#include "src/core/honeyfarm.h"
#include "src/guest/persona/escape.h"
#include "src/guest/persona/persona.h"
#include "src/malware/dropper.h"

using namespace potemkin;

namespace {

// Plays the external attacker: full TCP handshakes against strict guests, one
// scripted payload exchange at a time. Replies arrive through the farm's
// egress monitor; sends are injected at the gateway after a fixed think time,
// so the whole exchange is deterministic in virtual time.
class AttackerClient {
 public:
  struct Script {
    const char* name;
    Ipv4Address victim;
    uint16_t dst_port = 0;
    std::vector<std::string> sends;
    double start_s = 0.0;
  };

  AttackerClient(Honeyfarm* farm, Ipv4Address attacker_ip)
      : farm_(farm), attacker_ip_(attacker_ip) {}

  void Launch(Script script) {
    const size_t index = sessions_.size();
    Session session;
    session.script = std::move(script);
    session.src_port = static_cast<uint16_t>(51000 + index);
    session.isn = 0xa0000000u + static_cast<uint32_t>(index) * 0x10000u;
    sessions_.push_back(std::move(session));
    farm_->loop().ScheduleAfter(Duration::Seconds(sessions_[index].script.start_s),
                                [this, index]() { SendSyn(index); });
  }

  // Feed every egress packet here; returns true if it belonged to a session.
  bool OnEgress(const PacketView& view) {
    if (!view.is_tcp() || view.ip().dst != attacker_ip_) {
      return false;
    }
    for (size_t i = 0; i < sessions_.size(); ++i) {
      Session& session = sessions_[i];
      if (view.tcp().dst_port != session.src_port ||
          view.ip().src != session.script.victim ||
          view.tcp().src_port != session.script.dst_port) {
        continue;
      }
      HandleReply(i, view);
      return true;
    }
    return false;
  }

  size_t replies_received(size_t i) const { return sessions_[i].transcript.size(); }
  size_t session_count() const { return sessions_.size(); }
  const std::vector<std::string>& transcript(size_t i) const {
    return sessions_[i].transcript;
  }
  const char* session_name(size_t i) const { return sessions_[i].script.name; }

 private:
  struct Session {
    Script script;
    uint16_t src_port = 0;
    uint32_t isn = 0;
    uint32_t seq = 0;  // next octet we will send
    uint32_t ack = 0;  // next octet we expect from the guest
    size_t next_send = 0;
    bool established = false;
    bool send_scheduled = false;
    bool closed = false;
    std::vector<std::string> transcript;
  };

  void Inject(Packet packet) {
    // Never inject from inside the egress callback: the gateway is mid-dispatch.
    struct Box {
      Packet p;
    };
    auto box = std::make_shared<Box>(Box{std::move(packet)});
    farm_->loop().ScheduleAfter(Duration::Millis(1), [this, box]() {
      farm_->InjectInbound(std::move(box->p));
    });
  }

  Packet Build(const Session& session, uint8_t flags, uint32_t seq, uint32_t ack,
               const std::string& payload) {
    PacketSpec spec;
    spec.src_mac = MacAddress::FromId(0xa77);
    spec.dst_mac = MacAddress::FromId(1);
    spec.src_ip = attacker_ip_;
    spec.dst_ip = session.script.victim;
    spec.proto = IpProto::kTcp;
    spec.src_port = session.src_port;
    spec.dst_port = session.script.dst_port;
    spec.tcp_flags = flags;
    spec.seq = seq;
    spec.ack = ack;
    spec.payload.assign(payload.begin(), payload.end());
    return BuildPacket(spec);
  }

  void SendSyn(size_t index) {
    Session& session = sessions_[index];
    session.seq = session.isn;
    farm_->InjectInbound(Build(session, TcpFlags::kSyn, session.seq, 0, ""));
  }

  void ScheduleSend(size_t index) {
    Session& session = sessions_[index];
    if (session.send_scheduled || session.closed ||
        session.next_send >= session.script.sends.size()) {
      return;
    }
    session.send_scheduled = true;
    farm_->loop().ScheduleAfter(Duration::Millis(40),
                                [this, index]() { FireSend(index); });
  }

  void FireSend(size_t index) {
    Session& session = sessions_[index];
    session.send_scheduled = false;
    if (session.closed || session.next_send >= session.script.sends.size()) {
      return;
    }
    const std::string& payload = session.script.sends[session.next_send];
    ++session.next_send;
    farm_->InjectInbound(Build(session, TcpFlags::kPsh | TcpFlags::kAck,
                               session.seq, session.ack, payload));
    session.seq += static_cast<uint32_t>(payload.size());
  }

  void HandleReply(size_t index, const PacketView& view) {
    Session& session = sessions_[index];
    const uint8_t flags = view.tcp().flags;
    if ((flags & TcpFlags::kRst) != 0) {
      session.closed = true;
      return;
    }
    if ((flags & TcpFlags::kSyn) != 0 && (flags & TcpFlags::kAck) != 0) {
      // SYN|ACK: complete the handshake and start the scripted exchange.
      session.ack = view.tcp().seq + 1;
      session.seq = session.isn + 1;
      session.established = true;
      Inject(Build(session, TcpFlags::kAck, session.seq, session.ack, ""));
      ScheduleSend(index);
      return;
    }
    const auto payload = view.l4_payload();
    uint32_t advance = static_cast<uint32_t>(payload.size());
    if ((flags & TcpFlags::kFin) != 0) {
      advance += 1;  // the FIN octet
      session.closed = true;
    }
    if (advance == 0) {
      return;  // bare ACK from the guest: nothing to acknowledge
    }
    if (!payload.empty()) {
      session.transcript.emplace_back(payload.begin(), payload.end());
    }
    session.ack = view.tcp().seq + advance;
    Inject(Build(session, TcpFlags::kAck, session.seq, session.ack, ""));
    ScheduleSend(index);
  }

  Honeyfarm* farm_;
  Ipv4Address attacker_ip_;
  std::vector<Session> sessions_;
};

std::string Ip(uint64_t raw) {
  return Ipv4Address(static_cast<uint32_t>(raw)).ToString();
}

const char* PersonaKindLabel(uint64_t kind) {
  switch (static_cast<PersonaKind>(kind)) {
    case PersonaKind::kSsh:
      return "ssh";
    case PersonaKind::kSmb:
      return "smb";
    case PersonaKind::kHttp:
      return "http";
    case PersonaKind::kNone:
      break;
  }
  return "?";
}

bool IsBlockingVerdict(LedgerEvent type) {
  return type == LedgerEvent::kContainmentDrop ||
         type == LedgerEvent::kContainmentReflect ||
         type == LedgerEvent::kContainmentRateLimit ||
         type == LedgerEvent::kContainmentDnsProxy;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const uint64_t seed = flags.GetUint("seed", 11);
  const double seconds = flags.GetDouble("seconds", 15.0);
  const std::string policy = flags.GetString("policy", "reflect");
  const bool allow_fetch = flags.GetBool("allow-fetch", false);
  const std::string out_dir = flags.GetString("out", "");
  const bool write_bench = flags.GetBool("bench", true);

  OutboundMode mode = OutboundMode::kReflect;
  if (policy == "open") {
    mode = OutboundMode::kOpen;
  } else if (policy == "drop") {
    mode = OutboundMode::kDropAll;
  }

  const Ipv4Prefix prefix(Ipv4Address(10, 1, 0, 0), 24);
  HoneyfarmConfig config = MakeDefaultFarmConfig(prefix, /*num_hosts=*/2,
                                                 /*host_memory_mb=*/512,
                                                 ContentMode::kMetadataOnly);
  config.seed = seed;
  config.server_template.image.num_pages = 2048;
  config.server_template.engine.latency = CloneLatencyModel::Optimized();
  config.server_template.guest.services = PersonaHoneypotServices();
  config.server_template.guest.strict_tcp = true;
  config.gateway.containment.mode = mode;
  if (allow_fetch) {
    // The paper's controlled-update channel: one port deliberately left open.
    config.gateway.containment.allowed_ports.insert(8080);
  }
  config.ledger_capacity = 1u << flags.GetUint("ledger-bits", 16);

  Honeyfarm farm(config);

  const Ipv4Prefix internet(Ipv4Address(0, 0, 0, 0), 0);
  DropperRuntime dropper(&farm.loop(), CgiDropper(internet), &farm.obs(),
                         seed ^ 0xd0);
  EscapeScriptConfig escape_config;
  EscapeRuntime escape(&farm.loop(), escape_config, &farm.obs(), seed ^ 0xe5);
  farm.AttachAgent(&dropper);
  farm.AttachAgent(&escape);
  farm.Start();

  const Ipv4Address attacker_ip(198, 51, 100, 66);
  AttackerClient attacker(&farm, attacker_ip);
  if (allow_fetch) {
    farm.set_egress_monitor([&](const Packet& packet) {
      if (auto response = dropper.MakeC2Response(packet)) {
        struct Box {
          Packet p;
        };
        auto box = std::make_shared<Box>(Box{std::move(*response)});
        farm.loop().ScheduleAfter(Duration::Millis(1), [&farm, box]() {
          farm.InjectInbound(std::move(box->p));
        });
        return;
      }
      if (auto view = PacketView::Parse(packet)) {
        attacker.OnEgress(*view);
      }
    });
  } else {
    farm.set_egress_monitor([&](const Packet& packet) {
      if (auto view = PacketView::Parse(packet)) {
        attacker.OnEgress(*view);
      }
    });
  }

  // The attack schedule: three persona sessions, then the exploit.
  attacker.Launch({"ssh-bruteforce", prefix.AddressAt(10), 22,
                   {"SSH-2.0-attacker\r\n", "AUTH password root:123456\r\n",
                    "AUTH password root:password\r\n",
                    "AUTH password root:letmein\r\n"},
                   0.1});
  attacker.Launch({"http-crawl", prefix.AddressAt(11), 80,
                   {"GET /robots.txt HTTP/1.0\r\n\r\n",
                    "GET /finance/payroll-2005.xls HTTP/1.0\r\n\r\n",
                    "GET /hr/employees.csv HTTP/1.0\r\n\r\n"},
                   0.3});
  attacker.Launch({"smb-walk", prefix.AddressAt(12), 445,
                   {"SMB-NEGOTIATE dialects=NT LM 0.12\r\n",
                    "SMB-SESSION-SETUP user=guest\r\n",
                    "SMB-TREE-CONNECT share=IPC$\r\n"},
                   0.5});
  attacker.Launch({"cgi-exploit", prefix.AddressAt(13), 80,
                   {"EXPLOIT-CGI/stage1-loader"},
                   0.8});

  std::printf("Persona farm: %s, strict TCP, policy %s%s, seed %llu\n\n",
              prefix.ToString().c_str(), OutboundModeName(mode),
              allow_fetch ? " (+fetch port 8080 allow-listed)" : "",
              static_cast<unsigned long long>(seed));

  farm.RunFor(Duration::Seconds(seconds));

  // ---- Forensic timeline -------------------------------------------------
  const std::vector<EventLedger::Record> events = farm.ledger().Events();
  std::printf("--- forensic timeline (persona / malware / containment) ---\n");
  size_t timeline_lines = 0;
  for (const auto& record : events) {
    const double t = static_cast<double>(record.time_ns) * 1e-9;
    char line[256];
    line[0] = 0;
    switch (record.type) {
      case LedgerEvent::kPersonaState:
        std::snprintf(line, sizeof(line), "persona %s port %llu -> state %llu",
                      PersonaKindLabel(record.a >> 8),
                      static_cast<unsigned long long>(record.b),
                      static_cast<unsigned long long>(record.a & 0xff));
        break;
      case LedgerEvent::kPersonaAuthFailure:
        std::snprintf(line, sizeof(line), "auth failure #%llu on port %llu",
                      static_cast<unsigned long long>(record.a),
                      static_cast<unsigned long long>(record.b));
        break;
      case LedgerEvent::kPersonaLockout:
        std::snprintf(line, sizeof(line), "LOCKOUT of %s on port %llu",
                      Ip(record.a).c_str(),
                      static_cast<unsigned long long>(record.b));
        break;
      case LedgerEvent::kPersonaDecoy:
        std::snprintf(line, sizeof(line), "decoy document %llu served (%llu bytes)",
                      static_cast<unsigned long long>(record.a),
                      static_cast<unsigned long long>(record.b));
        break;
      case LedgerEvent::kPersonaEscalation:
        std::snprintf(line, sizeof(line),
                      "privilege escalation on %s (technique %llu)",
                      Ip(record.a).c_str(),
                      static_cast<unsigned long long>(record.b));
        break;
      case LedgerEvent::kEscapeAttempt:
        std::snprintf(line, sizeof(line), "ESCAPE ATTEMPT (%s) -> %s",
                      EscapeKindName(static_cast<EscapeKind>(record.b)),
                      Ip(record.a).c_str());
        break;
      case LedgerEvent::kMalwareStage:
        std::snprintf(line, sizeof(line), "dropper on %s reached stage %llu",
                      Ip(record.b).c_str(),
                      static_cast<unsigned long long>(record.a));
        break;
      case LedgerEvent::kInfection:
        std::snprintf(line, sizeof(line), "infection: %s compromised by %s",
                      Ip(record.a).c_str(), Ip(record.b).c_str());
        break;
      default:
        break;
    }
    if (line[0] != 0) {
      ++timeline_lines;
      std::printf("  [%7.3fs] s%-3llu %s\n", t,
                  static_cast<unsigned long long>(record.session), line);
    }
  }
  if (timeline_lines == 0) {
    std::printf("  (no persona events — something is wrong)\n");
  }

  // ---- Verdict: pair every escape attempt with its containment event -----
  size_t escape_attempts = 0;
  size_t escape_blocked = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const auto& attempt = events[i];
    if (attempt.type != LedgerEvent::kEscapeAttempt) {
      continue;
    }
    ++escape_attempts;
    bool caught = false;
    for (size_t j = i + 1; j < events.size(); ++j) {
      const auto& verdict = events[j];
      if (verdict.session != attempt.session ||
          verdict.time_ns < attempt.time_ns || !IsBlockingVerdict(verdict.type)) {
        continue;
      }
      // Drop/rate-limit/DNS-proxy events carry the destination in `a`;
      // reflect events carry the original external destination in `a` too.
      if (verdict.a == attempt.a) {
        caught = true;
        break;
      }
    }
    if (caught) {
      ++escape_blocked;
    } else {
      std::printf("  !! escape attempt to %s (session %llu) was NOT caught\n",
                  Ip(attempt.a).c_str(),
                  static_cast<unsigned long long>(attempt.session));
    }
  }

  // Persona milestones the scripted attack must have reached.
  size_t lockouts = 0, decoys = 0, smb_tree_connects = 0, infections = 0;
  size_t stalled = 0, activated = 0;
  for (const auto& record : events) {
    switch (record.type) {
      case LedgerEvent::kPersonaLockout:
        ++lockouts;
        break;
      case LedgerEvent::kPersonaDecoy:
        ++decoys;
        break;
      case LedgerEvent::kPersonaState:
        if ((record.a >> 8) == static_cast<uint64_t>(PersonaKind::kSmb) &&
            (record.a & 0xff) == 3) {
          ++smb_tree_connects;
        }
        break;
      case LedgerEvent::kInfection:
        ++infections;
        break;
      case LedgerEvent::kMalwareStage:
        if (record.a == static_cast<uint64_t>(DropperStage::kStalled)) {
          ++stalled;
        } else if (record.a == static_cast<uint64_t>(DropperStage::kActivated)) {
          ++activated;
        }
        break;
      default:
        break;
    }
  }

  const uint64_t allowlist_escapes =
      farm.sharded_gateway().AggregateContainmentStats().escapes_from_infected;

  std::printf("\n--- persona post-mortem ---\n");
  std::printf("sessions: ");
  for (size_t i = 0; i < attacker.session_count(); ++i) {
    std::printf("%s=%zu replies%s", attacker.session_name(i),
                attacker.replies_received(i),
                i + 1 < attacker.session_count() ? ", " : "\n");
  }
  std::printf("lockouts=%zu decoys=%zu smb_tree_connects=%zu infections=%zu\n",
              lockouts, decoys, smb_tree_connects, infections);
  std::printf("dropper: fetches=%llu activated=%zu stalled=%zu scanning=%zu\n",
              static_cast<unsigned long long>(dropper.stats().fetches_sent),
              activated, stalled, dropper.scanning_instances());
  std::printf("escape attempts=%zu blocked=%zu allowlist_escapes=%llu\n",
              escape_attempts, escape_blocked,
              static_cast<unsigned long long>(allowlist_escapes));

  const bool dropper_terminal = allow_fetch ? activated > 0 : stalled > 0;
  const bool milestones = lockouts > 0 && decoys >= 2 && smb_tree_connects > 0 &&
                          infections > 0 && dropper_terminal;
  const bool contained = escape_attempts > 0 && escape_blocked == escape_attempts;
  const bool ok = milestones && (mode == OutboundMode::kOpen || contained);

  std::printf("\nverdict: %zu/%zu escape attempt(s) caught, milestones %s (%s)\n",
              escape_blocked, escape_attempts, milestones ? "met" : "MISSED",
              ok ? "OK" : "FAILED");

  if (write_bench) {
    BenchReport report("persona_farm");
    report.set_seed(seed);
    report.Add("escape_attempts", static_cast<double>(escape_attempts), "count",
               Better::kLower, Kind::kDeterministic);
    report.Add("escape_attempts_blocked", static_cast<double>(escape_blocked),
               "count", Better::kLower, Kind::kDeterministic);
    report.Add("persona_lockouts", static_cast<double>(lockouts), "count",
               Better::kLower, Kind::kDeterministic);
    report.Add("decoys_served", static_cast<double>(decoys), "count",
               Better::kLower, Kind::kDeterministic);
    report.Add("smb_tree_connects", static_cast<double>(smb_tree_connects),
               "count", Better::kLower, Kind::kDeterministic);
    report.Add("infections", static_cast<double>(infections), "count",
               Better::kLower, Kind::kDeterministic);
    report.Add("dropper_fetches",
               static_cast<double>(dropper.stats().fetches_sent), "count",
               Better::kLower, Kind::kDeterministic);
    report.Add("dropper_stalled", static_cast<double>(stalled), "count",
               Better::kLower, Kind::kDeterministic);
    report.Add("allowlist_escapes", static_cast<double>(allowlist_escapes),
               "count", Better::kLower, Kind::kDeterministic);
    const std::string path = report.WriteJson();
    if (!path.empty()) {
      std::printf("bench report: %s\n", path.c_str());
    }
  }

  if (!out_dir.empty()) {
    farm.ledger().WriteJsonLines(out_dir + "/ledger.jsonl");
    std::printf("artifacts: %s/ledger.jsonl\n", out_dir.c_str());
  }
  return ok ? 0 : 1;
}
