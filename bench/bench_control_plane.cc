// Experiment E4 (control plane) — drain, failover and scored-placement costs.
//
// Three questions the control plane must answer with numbers:
//   1. How long does a live drain take? (virtual time from DrainHost to the
//      host leaving the pool, with every session migrated — zero forced)
//   2. How fast does failover restore service? (virtual time from a backend
//      crash to the same address answering from a healthy host)
//   3. What does kScored placement cost the inbound path vs round-robin?
//      (wallclock per first-contact route; everything else is virtual-time
//      deterministic, so only these two rows need runner headroom in CI)
#include <chrono>
#include <cstdio>

#include "bench/report.h"
#include "src/base/flags.h"
#include "src/base/strings.h"
#include "src/base/table.h"
#include "src/core/honeyfarm.h"
#include "src/ctrl/chaos.h"
#include "src/ctrl/controller.h"

namespace potemkin {
namespace {

const Ipv4Prefix kPrefix(Ipv4Address(10, 1, 0, 0), 22);  // 1024 addresses
const Ipv4Address kExternal(198, 51, 100, 7);

HoneyfarmConfig FarmConfig(PlacementKind placement) {
  HoneyfarmConfig config = MakeDefaultFarmConfig(kPrefix, /*num_hosts=*/4,
                                                 /*host_memory_mb=*/512,
                                                 ContentMode::kMetadataOnly);
  config.server_template.image.num_pages = 2048;
  config.server_template.engine.latency = CloneLatencyModel::Optimized();
  config.gateway.containment.mode = OutboundMode::kReflect;
  config.gateway.placement = placement;
  config.gateway.recycle.idle_timeout = Duration::Minutes(10);
  return config;
}

ControllerConfig CtrlConfig() {
  ControllerConfig config;
  config.tick = Duration::Millis(250);
  config.drain.deadline = Duration::Seconds(30);
  config.drain.migrate_per_tick = 64;
  config.warmup = Duration::Seconds(1);
  return config;
}

Packet ProbeSyn(Ipv4Address dst, uint16_t sport) {
  PacketSpec spec;
  spec.src_mac = MacAddress::FromId(1234);
  spec.dst_mac = MacAddress::FromId(1);
  spec.src_ip = kExternal;
  spec.dst_ip = dst;
  spec.proto = IpProto::kTcp;
  spec.src_port = sport;
  spec.dst_port = 445;
  spec.tcp_flags = TcpFlags::kSyn;
  return BuildPacket(spec);
}

struct DrainResult {
  double drain_s = 0;        // DrainHost -> host out of the pool
  uint64_t migrations = 0;   // sessions moved, none dropped
  uint64_t forced = 0;       // sessions the deadline had to retire
  size_t bindings_before = 0;
};

DrainResult RunDrain(uint32_t bindings) {
  Honeyfarm farm(FarmConfig(PlacementKind::kRoundRobin));
  Controller controller(&farm, CtrlConfig());
  farm.Start();
  controller.Start();
  for (uint32_t i = 0; i < bindings; ++i) {
    farm.InjectInbound(ProbeSyn(kPrefix.AddressAt(i), 52000));
  }
  farm.RunFor(Duration::Seconds(5.0));

  DrainResult result;
  result.bindings_before = farm.sharded_gateway().CountHostBindings(0);
  const TimePoint started = farm.loop().Now();
  controller.DrainHost(0);
  while (controller.pool().state(0) == BackendState::kDraining) {
    farm.RunFor(Duration::Millis(250));
  }
  result.drain_s = (farm.loop().Now() - started).seconds();
  result.migrations = controller.stats().migrations;
  result.forced = controller.stats().drains_forced;
  return result;
}

struct FailoverResult {
  double rebind_s = 0;  // crash -> same address answering from a new host
  uint64_t invalidated = 0;
};

FailoverResult RunFailover() {
  Honeyfarm farm(FarmConfig(PlacementKind::kRoundRobin));
  Controller controller(&farm, CtrlConfig());
  farm.Start();
  controller.Start();
  for (uint32_t i = 0; i < 64; ++i) {
    farm.InjectInbound(ProbeSyn(kPrefix.AddressAt(i), 52000));
  }
  farm.RunFor(Duration::Seconds(5.0));
  const Ipv4Address victim = kPrefix.AddressAt(0);
  ShardedGateway& gateway = farm.sharded_gateway();
  const Binding* binding =
      gateway.shard(gateway.ShardOf(victim)).bindings().Find(victim);
  const HostId crashed = binding->host;

  uint64_t answered = 0;
  farm.set_egress_monitor([&](const Packet&) { ++answered; });
  const TimePoint started = farm.loop().Now();
  farm.CrashHost(crashed);
  // Retry the flow like a real scanner would, every 100 ms, until the farm
  // answers again from a healthy backend.
  FailoverResult result;
  while (answered == 0) {
    farm.InjectInbound(ProbeSyn(victim, 52001));
    farm.RunFor(Duration::Millis(100));
  }
  result.rebind_s = (farm.loop().Now() - started).seconds();
  result.invalidated = controller.stats().failovers > 0
                           ? gateway.AggregateStats().vms_retired
                           : 0;
  return result;
}

// Wallclock nanoseconds per first-contact route (ChooseHost + clone kickoff).
double RouteCostNs(PlacementKind placement, uint32_t contacts) {
  Honeyfarm farm(FarmConfig(placement));
  Controller controller(&farm, CtrlConfig());
  farm.Start();
  controller.Start();
  farm.RunFor(Duration::Seconds(1.0));
  const auto start = std::chrono::steady_clock::now();
  for (uint32_t i = 0; i < contacts; ++i) {
    farm.InjectInbound(ProbeSyn(kPrefix.AddressAt(i % 1000), 52000));
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  farm.RunFor(Duration::Seconds(10.0));
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                 .count()) /
         contacts;
}

void Run(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const uint32_t bindings = static_cast<uint32_t>(flags.GetUint("bindings", 256));
  const uint32_t contacts = static_cast<uint32_t>(flags.GetUint("contacts", 512));

  std::printf("=== E4: control plane — drain, failover, scored placement ===\n\n");
  BenchReport report("control_plane");
  Table table({"operation", "result", "detail"});

  const DrainResult drain = RunDrain(bindings);
  table.AddRow({"live drain (4 hosts)",
                StrFormat("%.2f s", drain.drain_s),
                StrFormat("%llu sessions migrated, %llu forced, %zu bindings",
                          static_cast<unsigned long long>(drain.migrations),
                          static_cast<unsigned long long>(drain.forced),
                          drain.bindings_before)});
  report.Add("drain_complete_virtual_s", drain.drain_s, "s", Better::kLower,
             Kind::kDeterministic);
  report.Add("drain_migrations", static_cast<double>(drain.migrations),
             "sessions", Better::kLower, Kind::kDeterministic);
  report.Add("drain_forced_retires", static_cast<double>(drain.forced),
             "sessions", Better::kLower, Kind::kDeterministic);

  const FailoverResult failover = RunFailover();
  table.AddRow({"crash failover",
                StrFormat("%.2f s", failover.rebind_s),
                "crash -> same address answered from healthy host"});
  report.Add("failover_rebind_virtual_s", failover.rebind_s, "s",
             Better::kLower, Kind::kDeterministic);

  const double rr_ns = RouteCostNs(PlacementKind::kRoundRobin, contacts);
  const double scored_ns = RouteCostNs(PlacementKind::kScored, contacts);
  table.AddRow({"first-contact route, round-robin",
                StrFormat("%.0f ns", rr_ns), "wallclock, runner-dependent"});
  table.AddRow({"first-contact route, scored",
                StrFormat("%.0f ns", scored_ns), "wallclock, runner-dependent"});
  report.Add("route_round_robin_wallclock_ns", rr_ns, "ns", Better::kLower,
             Kind::kWallclock);
  report.Add("route_scored_wallclock_ns", scored_ns, "ns", Better::kLower,
             Kind::kWallclock);

  report.WriteJson();
  std::printf("%s\n", table.ToAscii().c_str());
  std::printf("shape check: drains finish well inside the deadline with zero\n"
              "forced retires (every session migrates), failover re-answers in\n"
              "about one controller tick plus a clone, and scored placement\n"
              "costs the same order as round-robin — the score reads a cached\n"
              "snapshot, not the allocators.\n");
}

}  // namespace
}  // namespace potemkin

int main(int argc, char** argv) {
  potemkin::Run(argc, argv);
  return 0;
}
