#include "src/core/honeyfarm.h"

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/net/packet_pool.h"

namespace potemkin {

namespace {

GatewayConfig WithPrefix(GatewayConfig config, Ipv4Prefix prefix, Observability* obs) {
  config.farm_prefix = prefix;
  config.obs = obs;
  return config;
}

ShardedGatewayConfig FarmGatewayConfig(const HoneyfarmConfig& config,
                                       Observability* obs) {
  ShardedGatewayConfig sharded;
  sharded.gateway = WithPrefix(config.gateway, config.prefix, obs);
  sharded.shard_count = config.gateway_shards;
  return sharded;
}

}  // namespace

Honeyfarm::Honeyfarm(const HoneyfarmConfig& config)
    : config_(config),
      gateway_(&loop_, FarmGatewayConfig(config, &obs_), this) {
  if (config_.ledger_capacity != obs_.ledger.capacity()) {
    obs_.ledger.Reset(config_.ledger_capacity);
  }
  servers_.reserve(config_.num_hosts);
  for (uint32_t i = 0; i < config_.num_hosts; ++i) {
    CloneServerConfig server_config = config_.server_template;
    server_config.host.id = i;
    server_config.host.name = StrFormat("host%u", i);
    server_config.engine.obs = &obs_;
    auto server =
        std::make_unique<CloneServer>(&loop_, server_config, config_.seed + 1000 + i);
    server->host().ExportMetrics(&obs_.metrics, server_config.host.name);
    server->set_outbound_handler([this](HostId host, VmId vm, Packet packet) {
      gateway_.HandleOutbound(host, vm, std::move(packet));
    });
    server->set_infection_handler([this](GuestOs& guest, const PacketView& exploit) {
      OnInfection(guest, exploit);
    });
    server->set_retire_handler([this](VmId vm) {
      for (InfectionAgent* agent : agents_) {
        agent->OnVmRetired(vm);
      }
    });
    servers_.push_back(std::move(server));
  }
  gateway_.set_egress_sink([this](Packet packet) {
    ++egress_packets_;
    if (MaybeCompleteSeedHandshake(packet)) {
      return;  // consumed by the synthetic external attacker
    }
    if (egress_monitor_) {
      egress_monitor_(packet);
    }
  });
  epidemic_.ExportMetrics(&obs_.metrics, "epidemic");
  // Farm-level rollups plus the process-wide packet pool's recycling health.
  MetricRegistry& m = obs_.metrics;
  m.RegisterProbe(this, "farm.vms.live", "vms",
                  [this] { return static_cast<double>(TotalLiveVms()); });
  m.RegisterProbe(this, "farm.mem.used_frames", "frames",
                  [this] { return static_cast<double>(TotalUsedFrames()); });
  m.RegisterProbe(this, "farm.pages.private", "pages",
                  [this] { return static_cast<double>(TotalPrivatePages()); });
  m.RegisterProbe(this, "farm.clones.completed", "count", [this] {
    return static_cast<double>(total_clones_completed());
  });
  m.RegisterProbe(this, "farm.egress.packets", "count",
                  [this] { return static_cast<double>(egress_packets_); });
  m.RegisterProbe(this, "farm.pressure.reclaims", "count",
                  [this] { return static_cast<double>(pressure_reclaims_); });
  // Fraction of machine frames in use across all hosts; the watchdog's
  // frame_pool_watermark rule pages off this probe.
  m.RegisterProbe(this, "farm.mem.frame_watermark", "ratio", [this] {
    uint64_t used = 0;
    uint64_t capacity = 0;
    for (const auto& server : servers_) {
      used += server->host().allocator().used_frames();
      capacity += server->host().allocator().capacity_frames();
    }
    return capacity == 0 ? 0.0
                         : static_cast<double>(used) / static_cast<double>(capacity);
  });
  m.RegisterProbe(this, "packet_pool.cached_buffers", "buffers", [] {
    return static_cast<double>(PacketPool::Default().cached_buffers());
  });
  m.RegisterProbe(this, "packet_pool.hit_rate", "ratio", [] {
    const PacketPool::Stats& s = PacketPool::Default().stats();
    return s.acquires == 0 ? 0.0
                           : static_cast<double>(s.pool_hits) /
                                 static_cast<double>(s.acquires);
  });
}

Honeyfarm::~Honeyfarm() {
  if (log_hook_installed_) {
    SetLogHook(nullptr);  // the hook captures this farm's ledger
  }
  obs_.metrics.RemoveProbes(this);
}

void Honeyfarm::StartWatchdog(Duration interval, std::vector<WatchdogRule> rules) {
  if (watchdog_ == nullptr) {
    watchdog_ = std::make_unique<Watchdog>(&obs_.ledger);
    health_.set_watchdog(watchdog_.get());
  }
  watchdog_->AddRules(std::move(rules));
  StartHealthSnapshots(interval);
}

TelemetryExporter& Honeyfarm::StartTelemetry(TelemetryExporterConfig config) {
  if (telemetry_ == nullptr) {
    telemetry_ =
        std::make_unique<TelemetryExporter>(&loop_, &obs_.metrics,
                                            std::move(config));
    telemetry_->set_watchdog(watchdog_.get());
    telemetry_->Start();
  }
  return *telemetry_;
}

FlightRecorder& Honeyfarm::ArmFlightRecorder(FlightRecorderConfig config) {
  if (flight_recorder_ == nullptr) {
    flight_recorder_ =
        std::make_unique<FlightRecorder>(config, &obs_.ledger, &health_);
    flight_recorder_->Arm();
    // Route WARN/ERROR/fatal logs through the ledger so the post-mortem
    // artifact carries the log trail; uninstalled in the destructor.
    EventLedger::InstallLogHook(&obs_.ledger,
                                [this] { return loop_.Now().nanos(); });
    log_hook_installed_ = true;
  }
  return *flight_recorder_;
}

void Honeyfarm::OnInfection(GuestOs& guest, const PacketView& exploit) {
  const Ipv4Address victim = guest.vm()->ip();
  epidemic_.RecordInfection(loop_.Now(), guest.vm()->id(), victim, exploit.ip().src);
  obs_.ledger.Append(LedgerEvent::kInfection, exploit.session(),
                     loop_.Now().nanos(), victim.value(),
                     exploit.ip().src.value());
  gateway_.NotifyInfected(victim);
  // Activate the agent whose exploit vector delivered this infection; fall back
  // to the sole vector-specific agent when the vector is ambiguous. Agents that
  // ride every infection (scripted escape behavior) activate in addition.
  InfectionAgent* matched = nullptr;
  size_t vector_agents = 0;
  InfectionAgent* sole_vector_agent = nullptr;
  for (InfectionAgent* agent : agents_) {
    if (agent->ActivatesOnAnyInfection()) {
      agent->OnGuestInfected(guest, exploit);
      continue;
    }
    ++vector_agents;
    sole_vector_agent = agent;
    if (matched == nullptr &&
        agent->MatchesVector(exploit.ip().proto, exploit.dst_port())) {
      matched = agent;
    }
  }
  if (matched == nullptr && vector_agents == 1) {
    matched = sole_vector_agent;
  }
  if (matched != nullptr) {
    matched->OnGuestInfected(guest, exploit);
  }
}

void Honeyfarm::AttachAgent(InfectionAgent* agent) { agents_.push_back(agent); }

void Honeyfarm::AttachWorm(WormRuntime* worm) { AttachAgent(worm); }

void Honeyfarm::EnableGreTermination(Ipv4Address gateway_ip, Ipv4Address router_ip,
                                     std::optional<uint32_t> key) {
  gre_ = std::make_unique<GreTunnel>(gateway_ip, router_ip, key);
}

void Honeyfarm::InjectTunneled(const Packet& outer) {
  if (gre_ == nullptr) {
    PK_WARN << "GRE frame received but no tunnel configured";
    return;
  }
  auto inner = gre_->Receive(outer);
  if (inner.has_value()) {
    InjectInbound(std::move(*inner));
  }
}

void Honeyfarm::ScheduleRecord(const TraceRecord& record) {
  loop_.ScheduleAt(record.time, [this, record]() {
    InjectInbound(PacketFromRecord(record, MacAddress::FromId(record.src.value()),
                                   MacAddress::FromId(1)));
  });
}

void Honeyfarm::ScheduleTrace(const std::vector<TraceRecord>& records) {
  // Runs of identical timestamps arrive at the gateway as one burst through the
  // batched dispatch path: one callback and one parse/bin pass instead of a
  // scheduled closure per packet. Distinct timestamps keep per-record
  // scheduling (batching across time would distort the replay clock).
  size_t i = 0;
  while (i < records.size()) {
    size_t j = i + 1;
    while (j < records.size() && records[j].time == records[i].time) {
      ++j;
    }
    if (j - i == 1) {
      ScheduleRecord(records[i]);
    } else {
      // Read the timestamp before `burst` moves into the capture: argument
      // evaluation order is unspecified.
      const TimePoint when = records[i].time;
      std::vector<TraceRecord> burst(records.begin() + static_cast<long>(i),
                                     records.begin() + static_cast<long>(j));
      loop_.ScheduleAt(when, [this, burst = std::move(burst)]() {
        std::vector<Packet> packets;
        packets.reserve(burst.size());
        for (const auto& record : burst) {
          packets.push_back(PacketFromRecord(
              record, MacAddress::FromId(record.src.value()),
              MacAddress::FromId(1)));
        }
        gateway_.HandleInboundBatch(packets);
      });
    }
    i = j;
  }
}

void Honeyfarm::SeedWorm(WormRuntime& worm, Ipv4Address attacker, Ipv4Address victim) {
  InjectInbound(
      worm.MakeScanPacket(attacker, MacAddress::FromId(attacker.value()), victim));
}

void Honeyfarm::SeedWormViaHandshake(WormRuntime& worm, Ipv4Address attacker,
                                     Ipv4Address victim) {
  PendingSeed seed;
  seed.worm = &worm;
  seed.attacker = attacker;
  seed.victim = victim;
  seed.attacker_port = static_cast<uint16_t>(45000 + pending_seeds_.size());
  seed.attacker_seq = 0x5eed0000 + static_cast<uint32_t>(pending_seeds_.size());
  pending_seeds_.push_back(seed);

  PacketSpec syn;
  syn.src_mac = MacAddress::FromId(attacker.value());
  syn.dst_mac = MacAddress::FromId(1);
  syn.src_ip = attacker;
  syn.dst_ip = victim;
  syn.proto = worm.config().proto;
  syn.src_port = seed.attacker_port;
  syn.dst_port = worm.config().port;
  syn.tcp_flags = TcpFlags::kSyn;
  syn.seq = seed.attacker_seq;
  InjectInbound(BuildPacket(syn));
}

bool Honeyfarm::MaybeCompleteSeedHandshake(const Packet& packet) {
  if (pending_seeds_.empty()) {
    return false;
  }
  const auto view = PacketView::Parse(packet);
  if (!view || !view->is_tcp() ||
      view->tcp().flags != (TcpFlags::kSyn | TcpFlags::kAck)) {
    return false;
  }
  for (auto it = pending_seeds_.begin(); it != pending_seeds_.end(); ++it) {
    if (view->ip().dst == it->attacker && view->ip().src == it->victim &&
        view->tcp().dst_port == it->attacker_port) {
      const PendingSeed seed = *it;
      pending_seeds_.erase(it);
      PacketSpec exploit;
      exploit.src_mac = MacAddress::FromId(seed.attacker.value());
      exploit.dst_mac = MacAddress::FromId(1);
      exploit.src_ip = seed.attacker;
      exploit.dst_ip = seed.victim;
      exploit.proto = IpProto::kTcp;
      exploit.src_port = seed.attacker_port;
      exploit.dst_port = seed.worm->config().port;
      exploit.tcp_flags = TcpFlags::kAck | TcpFlags::kPsh;
      exploit.seq = seed.attacker_seq + 1;
      exploit.ack = view->tcp().seq + 1;
      exploit.payload = seed.worm->config().payload;
      // Deliver after a short think time, as a real attacker's stack would.
      loop_.ScheduleAfter(Duration::Millis(1),
                          [this, p = BuildPacket(exploit)]() mutable {
                            InjectInbound(std::move(p));
                          });
      return true;
    }
  }
  return false;
}

void Honeyfarm::Start(Duration sample_interval) {
  gateway_.StartRecycling();
  if (config_.server_template.host.pressure_high_watermark > 0.0 &&
      !config_.pressure_check_interval.IsZero() &&
      config_.pressure_reclaim_batch > 0) {
    loop_.SchedulePeriodic(config_.pressure_check_interval,
                           [this]() { PressureSweepOnce(); });
  }
  if (!sample_interval.IsZero()) {
    ScheduleSampling(sample_interval);
  }
}

size_t Honeyfarm::PressureSweepOnce() {
  bool under_pressure = false;
  for (const auto& server : servers_) {
    if (server->host().UnderMemoryPressure()) {
      under_pressure = true;
      break;
    }
  }
  if (!under_pressure) {
    return 0;
  }
  const size_t retired = gateway_.ReclaimMostIdle(config_.pressure_reclaim_batch);
  pressure_reclaims_ += retired;
  return retired;
}

void Honeyfarm::ScheduleSampling(Duration interval) {
  loop_.SchedulePeriodic(interval, [this]() { samples_.push_back(SampleNow()); });
}

FarmSample Honeyfarm::SampleNow() {
  FarmSample sample;
  sample.time = loop_.Now();
  sample.live_bindings = gateway_.live_bindings();
  sample.live_vms = TotalLiveVms();
  sample.used_frames = TotalUsedFrames();
  sample.private_pages = TotalPrivatePages();
  sample.infections = epidemic_.total_infections();
  double cpu_sum = 0.0;
  for (const auto& server : servers_) {
    cpu_sum += server->cpu().Utilization(loop_.Now());
  }
  sample.mean_cpu_utilization =
      servers_.empty() ? 0.0 : cpu_sum / static_cast<double>(servers_.size());
  return sample;
}

uint64_t Honeyfarm::TotalLiveVms() const {
  uint64_t total = 0;
  for (const auto& server : servers_) {
    total += server->host().live_vm_count();
  }
  return total;
}

uint64_t Honeyfarm::TotalUsedFrames() const {
  uint64_t total = 0;
  for (const auto& server : servers_) {
    total += server->host().allocator().used_frames();
  }
  return total;
}

uint64_t Honeyfarm::TotalPrivatePages() const {
  uint64_t total = 0;
  for (const auto& server : servers_) {
    total += server->host().TotalPrivatePages();
  }
  return total;
}

uint64_t Honeyfarm::total_clones_completed() const {
  uint64_t total = 0;
  for (const auto& server : servers_) {
    total += server->engine().clones_completed();
  }
  return total;
}

bool Honeyfarm::HostCanAdmit(HostId host) const {
  if (host >= servers_.size()) {
    return false;
  }
  // The control plane's lifecycle veto (draining/down/warming) runs first;
  // capacity admission only matters for hosts the controller allows.
  if (admission_filter_ && !admission_filter_(host)) {
    return false;
  }
  return servers_[host]->CanAdmit();
}

size_t Honeyfarm::HostLiveVms(HostId host) const {
  return host < servers_.size() ? servers_[host]->LiveVms() : 0;
}

void Honeyfarm::SpawnVm(HostId host, Ipv4Address ip, SessionId session,
                        std::function<void(VmId)> done) {
  PK_CHECK(host < servers_.size());
  servers_[host]->SpawnVm(ip, session, std::move(done));
}

void Honeyfarm::RetireVm(HostId host, VmId vm) {
  PK_CHECK(host < servers_.size());
  servers_[host]->RetireVm(vm);
}

void Honeyfarm::DeliverToVm(HostId host, VmId vm, Packet packet,
                            const PacketView& view) {
  PK_CHECK(host < servers_.size());
  servers_[host]->DeliverToVm(vm, std::move(packet), view);
}

HoneyfarmConfig MakeDefaultFarmConfig(Ipv4Prefix prefix, uint32_t num_hosts,
                                      uint64_t host_memory_mb,
                                      ContentMode content_mode) {
  HoneyfarmConfig config;
  config.prefix = prefix;
  config.num_hosts = num_hosts;
  config.server_template.host.memory_mb = host_memory_mb;
  config.server_template.host.content_mode = content_mode;
  config.server_template.image.num_pages = 8192;  // 32 MiB guest image
  config.server_template.guest.services = DefaultWindowsServices();
  config.gateway.farm_prefix = prefix;
  return config;
}

}  // namespace potemkin
