// The Potemkin honeyfarm: top-level orchestrator and public entry point.
//
// Wires a gateway to a cluster of clone servers over one event loop, attaches worm
// runtimes and epidemic tracking, replays traffic (live injection or recorded
// traces), and samples farm-wide telemetry. Examples and benchmarks talk to this
// class; everything underneath is reachable for inspection.
#ifndef SRC_CORE_HONEYFARM_H_
#define SRC_CORE_HONEYFARM_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/base/event_loop.h"
#include "src/base/log.h"
#include "src/base/stats.h"
#include "src/core/clone_server.h"
#include "src/gateway/gateway.h"
#include "src/gateway/sharded_gateway.h"
#include "src/guest/infection_agent.h"
#include "src/malware/epidemic.h"
#include "src/malware/worm.h"
#include "src/net/gre.h"
#include "src/net/trace.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/health_snapshot.h"
#include "src/obs/observability.h"
#include "src/obs/telemetry_exporter.h"
#include "src/obs/watchdog.h"

namespace potemkin {

struct HoneyfarmConfig {
  // The emulated address space; every address in it is a potential honeypot.
  Ipv4Prefix prefix = Ipv4Prefix(Ipv4Address(10, 1, 0, 0), 16);
  uint32_t num_hosts = 4;
  // Per-host template; host ids/names/seeds are filled in per instance.
  CloneServerConfig server_template;
  GatewayConfig gateway;
  // Gateway shard count (power of two). 1 — the default — is byte-identical
  // to the pre-sharding farm. N > 1 partitions the gateway's tables by
  // destination address across N shard instances on the farm's single event
  // loop (still deterministic); cross-shard traffic rides the handoff rings.
  uint32_t gateway_shards = 1;
  // Memory-pressure recycling. When the server template's host config sets a
  // nonzero pressure_high_watermark, Start() schedules a periodic pressure
  // sweep: whenever any host reports pressure, the gateway retires up to
  // `pressure_reclaim_batch` of the farm's most-idle VMs (through the normal
  // retire path, so forensics and worm deactivation still run). With the
  // default watermark of 0 the sweep is never scheduled — legacy farms are
  // untouched.
  Duration pressure_check_interval = Duration::Seconds(1.0);
  uint32_t pressure_reclaim_batch = 16;
  uint64_t seed = 42;
  // Ring size of the farm's event ledger. The default suits tests and short
  // runs; long replays that want complete forensic timelines should size this
  // to the expected event volume (~48 bytes/record).
  size_t ledger_capacity = EventLedger::kDefaultCapacity;
};

// A farm-wide telemetry snapshot.
struct FarmSample {
  TimePoint time;
  uint64_t live_bindings = 0;
  uint64_t live_vms = 0;
  uint64_t used_frames = 0;      // machine frames across all hosts
  uint64_t private_pages = 0;    // sum of per-VM deltas
  uint64_t infections = 0;
  double mean_cpu_utilization = 0.0;  // across hosts, since t=0
};

class Honeyfarm : public GatewayBackend {
 public:
  explicit Honeyfarm(const HoneyfarmConfig& config);
  ~Honeyfarm() override;
  Honeyfarm(const Honeyfarm&) = delete;
  Honeyfarm& operator=(const Honeyfarm&) = delete;

  EventLoop& loop() { return loop_; }
  // The farm's own telemetry bundle: every component of this farm registers
  // against it, so concurrent farms (tests, sweeps) never share metric storage.
  Observability& obs() { return obs_; }
  HealthMonitor& health() { return health_; }
  // The sharded gateway facade every packet crosses.
  ShardedGateway& sharded_gateway() { return gateway_; }
  CloneServer& server(size_t i) {
    PK_CHECK(i < servers_.size())
        << "server index " << i << " out of range (" << servers_.size()
        << " hosts)";
    return *servers_[i];
  }
  size_t server_count() const { return servers_.size(); }
  EpidemicTracker& epidemic() { return epidemic_; }
  const HoneyfarmConfig& config() const { return config_; }

  // ---- Traffic injection ----
  void InjectInbound(Packet packet) { gateway_.HandleInbound(std::move(packet)); }
  // Burst variant: routes the whole burst through the gateway's batched
  // dispatch path (one parse/bin pass). Packets are consumed.
  void InjectInboundBatch(std::span<Packet> packets) {
    gateway_.HandleInboundBatch(packets);
  }

  // GRE termination, as in the paper's deployment (border routers tunnel the
  // telescope prefix to the gateway). After enabling, `InjectTunneled` accepts
  // outer GRE frames from the configured router; inner packets flow to the
  // gateway and mismatched tunnels are rejected.
  void EnableGreTermination(Ipv4Address gateway_ip, Ipv4Address router_ip,
                            std::optional<uint32_t> key);
  void InjectTunneled(const Packet& outer);
  const GreTunnel* gre_tunnel() const { return gre_ ? gre_.get() : nullptr; }
  // Schedules a trace record's packet for its timestamp.
  void ScheduleRecord(const TraceRecord& record);
  // Schedules an entire trace (records must be time-ordered).
  void ScheduleTrace(const std::vector<TraceRecord>& records);
  // Seeds a worm infection: injects the worm's exploit packet from an external
  // attacker address toward `victim` at the current virtual time. Sufficient for
  // permissive guests (payload-bearing segments are accepted directly).
  void SeedWorm(WormRuntime& worm, Ipv4Address attacker, Ipv4Address victim);

  // Handshaking variant for strict-TCP guests: plays the external attacker —
  // SYN, wait for the victim's SYN|ACK at egress, then deliver the exploit on
  // the established connection.
  void SeedWormViaHandshake(WormRuntime& worm, Ipv4Address attacker,
                            Ipv4Address victim);

  // Attaches a post-compromise agent (worm runtime, dropper, escape script):
  // when a guest flips to infected the agent whose exploit vector matches the
  // infecting packet activates — plus every agent that activates on any
  // infection — and retired VMs are handed to every agent for cleanup.
  void AttachAgent(InfectionAgent* agent);
  // Legacy name for worm runtimes; identical to AttachAgent.
  void AttachWorm(WormRuntime* worm);

  // ---- Execution ----
  void RunFor(Duration span) { loop_.RunFor(span); }
  void RunUntil(TimePoint t) { loop_.RunUntil(t); }
  // Starts the recycler and (optionally) periodic telemetry sampling.
  void Start(Duration sample_interval = Duration::Zero());
  // Begins periodic versioned health snapshots (HealthMonitor over this farm's
  // registry). Independent of Start()'s FarmSample sampling.
  void StartHealthSnapshots(Duration interval) { health_.Start(interval); }
  // Starts health snapshots with an SLO watchdog evaluating every sample.
  // Alerts land in the ledger and in each snapshot's `alerts` section.
  void StartWatchdog(Duration interval,
                     std::vector<WatchdogRule> rules = DefaultFarmRules());
  Watchdog* watchdog() { return watchdog_.get(); }
  // Arms a post-mortem flight recorder: containment breaches, raised alerts and
  // fatal logs each dump the recent ledger tail plus the last two health
  // snapshots to a self-contained JSON artifact. Also routes WARN/ERROR logs
  // into this farm's ledger for the artifact's benefit.
  FlightRecorder& ArmFlightRecorder(FlightRecorderConfig config = {});
  FlightRecorder* flight_recorder() { return flight_recorder_.get(); }
  // Starts the periodic JSONL time-series exporter over this farm's registry
  // (and watchdog, when StartWatchdog ran first — call order matters only for
  // the alerts column). Idempotent: later calls return the running exporter.
  TelemetryExporter& StartTelemetry(TelemetryExporterConfig config = {});
  TelemetryExporter* telemetry() { return telemetry_.get(); }

  // The farm's causal event ledger (shared by gateway, engines and guests).
  EventLedger& ledger() { return obs_.ledger; }

  // ---- Telemetry ----
  FarmSample SampleNow();
  const std::vector<FarmSample>& samples() const { return samples_; }
  uint64_t TotalLiveVms() const;
  uint64_t TotalUsedFrames() const;
  uint64_t TotalPrivatePages() const;
  uint64_t total_clones_completed() const;
  // VMs retired by the periodic memory-pressure sweep (see HoneyfarmConfig).
  uint64_t pressure_reclaims() const { return pressure_reclaims_; }
  // One pressure check, immediately: if any host is over its high watermark,
  // retire up to pressure_reclaim_batch most-idle VMs. Returns VMs retired.
  size_t PressureSweepOnce();

  // Packets the gateway released to the real Internet (escape monitoring).
  void set_egress_monitor(std::function<void(const Packet&)> monitor) {
    egress_monitor_ = std::move(monitor);
  }
  uint64_t egress_packet_count() const { return egress_packets_; }

  // ---- Control plane hooks ----
  // Veto over admission, consulted before a host's own CanAdmit: the farm
  // controller installs `pool.Admits(host)` here so draining/down/warming
  // hosts stop taking new bindings without the gateway knowing about
  // lifecycle states. Null (the default) admits by capacity alone.
  using HostAdmissionFilter = std::function<bool(HostId)>;
  void set_host_admission_filter(HostAdmissionFilter filter) {
    admission_filter_ = std::move(filter);
  }
  // Placement score used by PlacementKind::kScored; unset scores every host
  // 0.0 (kScored degrades to first-fit).
  using HostScoreFn = std::function<double(HostId)>;
  void set_host_score_fn(HostScoreFn fn) { score_fn_ = std::move(fn); }
  // Chaos/failover: hard-kills / revives host `i` (see CloneServer::Crash).
  void CrashHost(HostId host) { server(host).Crash(); }
  void RestoreHost(HostId host) { server(host).Restore(); }
  bool HostCrashed(HostId host) const {
    return host < servers_.size() && servers_[host]->crashed();
  }

  // ---- GatewayBackend ----
  size_t NumHosts() const override { return servers_.size(); }
  bool HostCanAdmit(HostId host) const override;
  size_t HostLiveVms(HostId host) const override;
  double HostPlacementScore(HostId host) const override {
    return score_fn_ ? score_fn_(host) : 0.0;
  }
  void SpawnVm(HostId host, Ipv4Address ip, SessionId session,
               std::function<void(VmId)> done) override;
  void RetireVm(HostId host, VmId vm) override;
  void DeliverToVm(HostId host, VmId vm, Packet packet,
                   const PacketView& view) override;

 private:
  void OnInfection(GuestOs& guest, const PacketView& exploit);
  void ScheduleSampling(Duration interval);

  HoneyfarmConfig config_;
  EventLoop loop_;
  // Declared before gateway_/servers_ (whose configs point into it) and
  // destroyed after them, so component destructors can still remove probes.
  Observability obs_;
  HealthMonitor health_{&loop_, &obs_.metrics, "honeyfarm"};
  ShardedGateway gateway_;
  std::vector<std::unique_ptr<CloneServer>> servers_;
  // In-flight handshake seeds, matched against egress SYN|ACKs.
  struct PendingSeed {
    WormRuntime* worm = nullptr;
    Ipv4Address attacker;
    Ipv4Address victim;
    uint16_t attacker_port = 0;
    uint32_t attacker_seq = 0;
  };
  // Returns true if the egress packet completed a pending seed handshake.
  bool MaybeCompleteSeedHandshake(const Packet& packet);

  std::vector<InfectionAgent*> agents_;
  std::vector<PendingSeed> pending_seeds_;
  std::unique_ptr<Watchdog> watchdog_;
  std::unique_ptr<FlightRecorder> flight_recorder_;
  std::unique_ptr<TelemetryExporter> telemetry_;
  bool log_hook_installed_ = false;
  std::unique_ptr<GreTunnel> gre_;
  EpidemicTracker epidemic_;
  std::vector<FarmSample> samples_;
  std::function<void(const Packet&)> egress_monitor_;
  HostAdmissionFilter admission_filter_;
  HostScoreFn score_fn_;
  uint64_t egress_packets_ = 0;
  uint64_t pressure_reclaims_ = 0;
};

// Convenience constructors for common experiment setups.
HoneyfarmConfig MakeDefaultFarmConfig(Ipv4Prefix prefix, uint32_t num_hosts,
                                      uint64_t host_memory_mb,
                                      ContentMode content_mode);

}  // namespace potemkin

#endif  // SRC_CORE_HONEYFARM_H_
