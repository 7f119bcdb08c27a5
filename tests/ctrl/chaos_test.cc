// Chaos harness tests: plan determinism, containment under a mid-outbreak
// backend crash, denial storms, shard partitions — and the seed-for-seed
// reproducibility of a whole chaotic run's event ledger.
#include "src/ctrl/chaos.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/core/honeyfarm.h"
#include "src/ctrl/controller.h"
#include "src/malware/worm.h"

namespace potemkin {
namespace {

const Ipv4Prefix kFarm(Ipv4Address(10, 1, 0, 0), 20);
const Ipv4Address kExternal(198, 51, 100, 7);

HoneyfarmConfig ChaosFarm(uint32_t hosts, uint32_t shards = 1) {
  HoneyfarmConfig config = MakeDefaultFarmConfig(kFarm, hosts,
                                                 /*host_memory_mb=*/128,
                                                 ContentMode::kStoreBytes);
  config.server_template.image.num_pages = 1024;
  config.gateway.containment.mode = OutboundMode::kReflect;
  config.gateway_shards = shards;
  return config;
}

ControllerConfig FastController() {
  ControllerConfig config;
  config.tick = Duration::Millis(250);
  config.drain.deadline = Duration::Seconds(5);
  config.warmup = Duration::Seconds(1);
  config.min_active = 1;
  return config;
}

Packet ProbeSyn(Ipv4Address dst, uint16_t sport = 52000) {
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

TEST(ChaosTest, PlanIsDeterministicPerSeed) {
  Honeyfarm farm(ChaosFarm(/*hosts=*/2));
  Controller controller(&farm, FastController());
  farm.Start();
  controller.Start();
  ChaosConfig config;
  config.seed = 99;
  config.num_faults = 6;
  ChaosHarness a(&farm, &controller, config);
  ChaosHarness b(&farm, &controller, config);
  const auto plan_a = a.GeneratePlan();
  const auto plan_b = b.GeneratePlan();
  ASSERT_EQ(plan_a.size(), plan_b.size());
  ASSERT_EQ(plan_a.size(), 6u);
  for (size_t i = 0; i < plan_a.size(); ++i) {
    EXPECT_EQ(plan_a[i].at, plan_b[i].at);
    EXPECT_EQ(plan_a[i].fault, plan_b[i].fault);
    EXPECT_EQ(plan_a[i].target, plan_b[i].target);
    EXPECT_EQ(plan_a[i].duration, plan_b[i].duration);
    EXPECT_DOUBLE_EQ(plan_a[i].magnitude, plan_b[i].magnitude);
    if (i > 0) {
      EXPECT_GE(plan_a[i].at - plan_a[i - 1].at, Duration::Seconds(5));
    }
  }
  // A different seed changes the schedule.
  config.seed = 100;
  ChaosHarness c(&farm, &controller, config);
  const auto plan_c = c.GeneratePlan();
  bool differs = false;
  for (size_t i = 0; i < plan_c.size(); ++i) {
    differs |= plan_c[i].at != plan_a[i].at || plan_c[i].target != plan_a[i].target;
  }
  EXPECT_TRUE(differs);
}

TEST(ChaosTest, SingleShardPlansNeverPartition) {
  Honeyfarm farm(ChaosFarm(/*hosts=*/2, /*shards=*/1));
  Controller controller(&farm, FastController());
  farm.Start();
  controller.Start();
  ChaosConfig config;
  config.num_faults = 32;
  config.min_gap = Duration::Seconds(1);
  config.horizon = Duration::Minutes(5);
  ChaosHarness harness(&farm, &controller, config);
  for (const ChaosEvent& event : harness.GeneratePlan()) {
    EXPECT_NE(event.fault, ChaosFault::kShardPartition);
  }
}

TEST(ChaosTest, BackendCrashMidOutbreakStaysContained) {
  Honeyfarm farm(ChaosFarm(/*hosts=*/2));
  Controller controller(&farm, FastController());
  WormConfig worm_config = BlasterLikeWorm(Ipv4Prefix(Ipv4Address(0, 0, 0, 0), 0));
  worm_config.scan_rate_pps = 3.0;
  worm_config.selection = TargetSelection::kUniformRandom;
  WormRuntime worm(&farm.loop(), worm_config, 77);
  farm.AttachWorm(&worm);
  farm.Start();
  controller.Start();

  ChaosConfig chaos_config;
  chaos_config.check_interval = Duration::Seconds(1);
  ChaosHarness harness(&farm, &controller, chaos_config);
  ChaosEvent crash;
  crash.at = Duration::Seconds(20);
  crash.fault = ChaosFault::kBackendCrash;
  crash.target = 0;
  crash.duration = Duration::Seconds(15);
  harness.Arm({crash});

  farm.SeedWorm(worm, kExternal, kFarm.AddressAt(1));
  farm.RunFor(Duration::Minutes(1.5));

  // The outbreak ran, a backend died under it and came back...
  EXPECT_GT(farm.epidemic().total_infections(), 1u);
  const ChaosReport report = harness.report();
  EXPECT_EQ(report.faults_injected, 1u);
  EXPECT_EQ(report.heals, 1u);
  EXPECT_GT(report.checks, 0u);
  // ...and containment never broke: no escapes, no blackholed bindings.
  EXPECT_EQ(report.violations, 0u);
  EXPECT_EQ(report.containment_escapes, 0u);
  EXPECT_EQ(report.bindings_on_down_hosts, 0u);
  EXPECT_EQ(farm.sharded_gateway().AggregateContainmentStats().escapes_from_infected, 0u);
  // The crashed host healed through warming back into rotation.
  EXPECT_EQ(controller.pool().state(0), BackendState::kActive);
}

TEST(ChaosTest, DenialStormStarvesThenReleasesFrames) {
  Honeyfarm farm(ChaosFarm(/*hosts=*/2));
  Controller controller(&farm, FastController());
  farm.Start();
  controller.Start();
  ChaosHarness harness(&farm, &controller, ChaosConfig{});
  ChaosEvent storm;
  storm.at = Duration::Seconds(1);
  storm.fault = ChaosFault::kAllocDenialStorm;
  storm.target = 0;
  storm.duration = Duration::Seconds(5);
  harness.Arm({storm});

  farm.RunFor(Duration::Seconds(2.0));
  const FrameAllocator& alloc = farm.server(0).host().allocator();
  EXPECT_EQ(alloc.free_frames(), 0u);
  // Probes keep getting answered: placement steers around the starved host.
  farm.InjectInbound(ProbeSyn(kFarm.AddressAt(9)));
  farm.RunFor(Duration::Seconds(2.0));
  const Binding* binding = farm.sharded_gateway().shard(0).bindings().Find(kFarm.AddressAt(9));
  ASSERT_NE(binding, nullptr);
  EXPECT_EQ(binding->host, 1u);

  farm.RunFor(Duration::Seconds(4.0));  // heal releases the hoard
  EXPECT_GT(alloc.free_frames(), 0u);
  EXPECT_EQ(harness.report().violations, 0u);
}

TEST(ChaosTest, ShardPartitionHealsWithoutViolations) {
  Honeyfarm farm(ChaosFarm(/*hosts=*/2, /*shards=*/2));
  Controller controller(&farm, FastController());
  farm.Start();
  controller.Start();
  ChaosHarness harness(&farm, &controller, ChaosConfig{});
  ChaosEvent cut;
  cut.at = Duration::Seconds(1);
  cut.fault = ChaosFault::kShardPartition;
  cut.target = (0u << 16) | 1u;
  cut.duration = Duration::Seconds(5);
  harness.Arm({cut});

  for (uint64_t i = 0; i < 16; ++i) {
    farm.InjectInbound(ProbeSyn(kFarm.AddressAt(i)));
  }
  farm.RunFor(Duration::Seconds(10.0));

  const ChaosReport report = harness.report();
  EXPECT_EQ(report.faults_injected, 1u);
  EXPECT_EQ(report.heals, 1u);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_EQ(report.nat_misplaced, 0u);
  // After the heal, nothing is stuck in the rings.
  const GatewayStats stats = farm.sharded_gateway().AggregateStats();
  EXPECT_EQ(stats.handoffs_in, stats.handoffs_out);
}

// The acceptance bar for CI's chaos-smoke job: the same seed produces the
// same farm history, byte for byte, ledger record for ledger record.
TEST(ChaosTest, SameSeedSameLedger) {
  const auto run = [] {
    Honeyfarm farm(ChaosFarm(/*hosts=*/3, /*shards=*/2));
    Controller controller(&farm, FastController());
    farm.Start();
    controller.Start();
    ChaosConfig config;
    config.seed = 41;
    config.horizon = Duration::Seconds(30);
    config.num_faults = 3;
    config.min_gap = Duration::Seconds(3);
    ChaosHarness harness(&farm, &controller, config);
    harness.Arm();
    for (uint64_t i = 0; i < 24; ++i) {
      farm.InjectInbound(ProbeSyn(kFarm.AddressAt(i * 7 % 64),
                                  static_cast<uint16_t>(52000 + i)));
    }
    farm.RunFor(Duration::Seconds(40.0));
    return farm.ledger().Events();
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_EQ(a[i].time_ns, b[i].time_ns);
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_EQ(a[i].session, b[i].session);
    EXPECT_EQ(a[i].a, b[i].a);
    EXPECT_EQ(a[i].b, b[i].b);
  }
}

}  // namespace
}  // namespace potemkin
