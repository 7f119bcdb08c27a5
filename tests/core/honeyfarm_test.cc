// End-to-end honeyfarm tests: late binding, flash cloning, guest conversation,
// recycling, worm containment and telemetry — the whole stack on one event loop.
#include "src/core/honeyfarm.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace potemkin {
namespace {

const Ipv4Prefix kFarm(Ipv4Address(10, 1, 0, 0), 20);  // 4096 addresses
const Ipv4Address kExternal(198, 51, 100, 7);

HoneyfarmConfig SmallFarm(OutboundMode mode = OutboundMode::kReflect) {
  HoneyfarmConfig config = MakeDefaultFarmConfig(kFarm, /*num_hosts=*/2,
                                                 /*host_memory_mb=*/128,
                                                 ContentMode::kStoreBytes);
  config.server_template.image.num_pages = 1024;  // 4 MiB image: fast tests
  config.gateway.containment.mode = mode;
  config.gateway.recycle.idle_timeout = Duration::Seconds(30);
  config.gateway.recycle.scan_interval = Duration::Seconds(1);
  return config;
}

Packet ProbeSyn(Ipv4Address dst, uint16_t port = 445) {
  PacketSpec spec;
  spec.src_mac = MacAddress::FromId(1234);
  spec.dst_mac = MacAddress::FromId(1);
  spec.src_ip = kExternal;
  spec.dst_ip = dst;
  spec.proto = IpProto::kTcp;
  spec.src_port = 52000;
  spec.dst_port = port;
  spec.tcp_flags = TcpFlags::kSyn;
  return BuildPacket(spec);
}

TEST(HoneyfarmTest, ProbeCreatesVmAndGetsSynAck) {
  Honeyfarm farm(SmallFarm());
  std::vector<Packet> egress;
  farm.set_egress_monitor([&](const Packet& p) { egress.push_back(p); });
  farm.Start();

  farm.InjectInbound(ProbeSyn(kFarm.AddressAt(7)));
  farm.RunFor(Duration::Seconds(2.0));

  EXPECT_EQ(farm.TotalLiveVms(), 1u);
  EXPECT_EQ(farm.total_clones_completed(), 1u);
  // The honeypot's SYN|ACK went back out to the prober.
  ASSERT_EQ(egress.size(), 1u);
  const auto view = PacketView::Parse(egress[0]);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->ip().src, kFarm.AddressAt(7));
  EXPECT_EQ(view->ip().dst, kExternal);
  EXPECT_EQ(view->tcp().flags, TcpFlags::kSyn | TcpFlags::kAck);
}

TEST(HoneyfarmTest, DistinctAddressesDistinctVms) {
  Honeyfarm farm(SmallFarm());
  farm.Start();
  for (uint64_t i = 0; i < 10; ++i) {
    farm.InjectInbound(ProbeSyn(kFarm.AddressAt(i)));
  }
  farm.RunFor(Duration::Seconds(8.0));
  EXPECT_EQ(farm.TotalLiveVms(), 10u);
  EXPECT_EQ(farm.sharded_gateway().live_bindings(), 10u);
  // Spread across both hosts by round robin.
  EXPECT_GT(farm.server(0).LiveVms(), 0u);
  EXPECT_GT(farm.server(1).LiveVms(), 0u);
}

TEST(HoneyfarmTest, IdleVmsRecycledAndMemoryReclaimed) {
  HoneyfarmConfig config = SmallFarm();
  config.gateway.recycle.idle_timeout = Duration::Seconds(5);
  Honeyfarm farm(config);
  farm.Start();
  const uint64_t baseline = farm.TotalUsedFrames();
  farm.InjectInbound(ProbeSyn(kFarm.AddressAt(3)));
  farm.RunFor(Duration::Seconds(2.0));
  EXPECT_EQ(farm.TotalLiveVms(), 1u);
  EXPECT_GT(farm.TotalUsedFrames(), baseline);
  farm.RunFor(Duration::Seconds(10.0));
  EXPECT_EQ(farm.TotalLiveVms(), 0u);
  EXPECT_EQ(farm.TotalUsedFrames(), baseline);
  EXPECT_EQ(farm.sharded_gateway().live_bindings(), 0u);
}

TEST(HoneyfarmTest, RecycledAddressRespawnsOnNewTraffic) {
  HoneyfarmConfig config = SmallFarm();
  config.gateway.recycle.idle_timeout = Duration::Seconds(3);
  Honeyfarm farm(config);
  farm.Start();
  farm.InjectInbound(ProbeSyn(kFarm.AddressAt(3)));
  farm.RunFor(Duration::Seconds(10.0));
  EXPECT_EQ(farm.TotalLiveVms(), 0u);
  farm.InjectInbound(ProbeSyn(kFarm.AddressAt(3)));
  farm.RunFor(Duration::Seconds(2.0));
  EXPECT_EQ(farm.TotalLiveVms(), 1u);
  EXPECT_EQ(farm.total_clones_completed(), 2u);
}

TEST(HoneyfarmTest, WormSeedInfectsVictim) {
  // Worm scans an external /8 and containment drops everything, so exactly the
  // seeded victim becomes infected.
  Honeyfarm farm(SmallFarm(OutboundMode::kDropAll));
  WormRuntime worm(&farm.loop(),
                   SlammerLikeWorm(Ipv4Prefix(Ipv4Address(11, 0, 0, 0), 8)), 11);
  farm.AttachWorm(&worm);
  farm.Start();
  farm.SeedWorm(worm, kExternal, kFarm.AddressAt(1));
  farm.RunFor(Duration::Seconds(3.0));
  EXPECT_EQ(farm.epidemic().total_infections(), 1u);
  EXPECT_EQ(worm.active_instances(), 1u);
  const Binding* binding = farm.sharded_gateway().shard(0).bindings().Find(kFarm.AddressAt(1));
  ASSERT_NE(binding, nullptr);
  EXPECT_TRUE(binding->infected);
}

TEST(HoneyfarmTest, ReflectedWormSpreadsInsideFarmWithZeroEscapes) {
  HoneyfarmConfig config = SmallFarm(OutboundMode::kReflect);
  config.gateway.recycle.infected_hold = Duration::Minutes(10);
  Honeyfarm farm(config);
  // Worm scans the whole Internet; reflection folds it back into the farm.
  WormConfig worm_config = SlammerLikeWorm(Ipv4Prefix(Ipv4Address(0, 0, 0, 0), 0));
  worm_config.scan_rate_pps = 20.0;
  WormRuntime worm(&farm.loop(), worm_config, 11);
  farm.AttachWorm(&worm);
  farm.Start();
  farm.SeedWorm(worm, kExternal, kFarm.AddressAt(1));
  farm.RunFor(Duration::Minutes(3));

  EXPECT_GT(farm.epidemic().total_infections(), 3u)
      << "reflection must sustain an in-farm epidemic";
  EXPECT_EQ(farm.sharded_gateway().AggregateContainmentStats().escapes_from_infected, 0u);
  EXPECT_GT(farm.sharded_gateway().AggregateStats().reflections_injected, 0u);
}

TEST(HoneyfarmTest, DropAllPolicyStopsSpreadCold) {
  Honeyfarm farm(SmallFarm(OutboundMode::kDropAll));
  WormConfig worm_config = SlammerLikeWorm(Ipv4Prefix(Ipv4Address(0, 0, 0, 0), 0));
  worm_config.scan_rate_pps = 20.0;
  WormRuntime worm(&farm.loop(), worm_config, 11);
  farm.AttachWorm(&worm);
  farm.Start();
  farm.SeedWorm(worm, kExternal, kFarm.AddressAt(1));
  farm.RunFor(Duration::Minutes(2));

  EXPECT_EQ(farm.epidemic().total_infections(), 1u);  // only the seed
  EXPECT_EQ(farm.sharded_gateway().AggregateContainmentStats().escapes_from_infected, 0u);
  EXPECT_EQ(farm.egress_packet_count(), 0u);
  EXPECT_GT(farm.sharded_gateway().AggregateContainmentStats().dropped, 0u);
}

TEST(HoneyfarmTest, OpenPolicyLeaksWormScans) {
  Honeyfarm farm(SmallFarm(OutboundMode::kOpen));
  WormConfig worm_config = SlammerLikeWorm(Ipv4Prefix(Ipv4Address(0, 0, 0, 0), 0));
  worm_config.scan_rate_pps = 20.0;
  WormRuntime worm(&farm.loop(), worm_config, 11);
  farm.AttachWorm(&worm);
  farm.Start();
  farm.SeedWorm(worm, kExternal, kFarm.AddressAt(1));
  farm.RunFor(Duration::Minutes(1));
  EXPECT_GT(farm.sharded_gateway().AggregateContainmentStats().escapes_from_infected, 100u);
}

TEST(HoneyfarmTest, ReflectedEpidemicUsesCowSharing) {
  HoneyfarmConfig config = SmallFarm(OutboundMode::kReflect);
  config.gateway.recycle.infected_hold = Duration::Minutes(10);
  Honeyfarm farm(config);
  WormConfig worm_config = SlammerLikeWorm(Ipv4Prefix(Ipv4Address(0, 0, 0, 0), 0));
  worm_config.scan_rate_pps = 20.0;
  WormRuntime worm(&farm.loop(), worm_config, 11);
  farm.AttachWorm(&worm);
  farm.Start();
  farm.SeedWorm(worm, kExternal, kFarm.AddressAt(1));
  farm.RunFor(Duration::Minutes(2));

  const uint64_t vms = farm.TotalLiveVms();
  ASSERT_GT(vms, 2u);
  // Each VM's delta must be far below the full image size.
  const uint64_t image_pages = config.server_template.image.num_pages;
  EXPECT_LT(farm.TotalPrivatePages(), vms * image_pages / 4);
}

TEST(HoneyfarmTest, TelemetrySamplingRecordsPopulation) {
  HoneyfarmConfig config = SmallFarm();
  Honeyfarm farm(config);
  farm.Start(/*sample_interval=*/Duration::Seconds(1));
  for (uint64_t i = 0; i < 5; ++i) {
    farm.InjectInbound(ProbeSyn(kFarm.AddressAt(i)));
  }
  farm.RunFor(Duration::Seconds(10.0));
  ASSERT_GE(farm.samples().size(), 9u);
  double max_vms = 0;
  for (const auto& sample : farm.samples()) {
    max_vms = std::max(max_vms, static_cast<double>(sample.live_vms));
  }
  EXPECT_EQ(max_vms, 5.0);
}

TEST(HoneyfarmTest, DnsLookupFromGuestAnsweredInternally) {
  // Craft a VM, then have it send a DNS query out; the proxy must answer with a
  // farm address and no packet may escape.
  Honeyfarm farm(SmallFarm(OutboundMode::kDropAll));
  farm.Start();
  farm.InjectInbound(ProbeSyn(kFarm.AddressAt(2)));
  farm.RunFor(Duration::Seconds(2.0));
  ASSERT_EQ(farm.TotalLiveVms(), 1u);

  // Find the live VM and transmit a DNS query from it.
  GuestOs* guest = nullptr;
  for (size_t s = 0; s < farm.server_count() && guest == nullptr; ++s) {
    farm.server(s).host().ForEachVm([&](VirtualMachine& vm) {
      if (guest == nullptr) {
        guest = farm.server(s).FindGuest(vm.id());
      }
    });
  }
  ASSERT_NE(guest, nullptr);
  DnsQuery query;
  query.id = 99;
  query.name = "update.malware.example";
  PacketSpec spec;
  spec.src_mac = guest->vm()->mac();
  spec.dst_mac = MacAddress::FromId(1);
  spec.src_ip = guest->vm()->ip();
  spec.dst_ip = Ipv4Address(4, 4, 4, 4);
  spec.proto = IpProto::kUdp;
  spec.src_port = 5555;
  spec.dst_port = 53;
  spec.payload = EncodeDnsQuery(query);
  const uint64_t egress_before = farm.egress_packet_count();
  guest->vm()->Transmit(BuildPacket(spec));
  farm.RunFor(Duration::Seconds(1.0));

  EXPECT_EQ(farm.sharded_gateway().AggregateStats().dns_responses, 1u);
  EXPECT_EQ(farm.sharded_gateway().shard(0).dns_proxy().queries_answered(), 1u);
  // The DNS query itself must not leave the farm (only the earlier SYN|ACK
  // response to the prober was allowed out).
  EXPECT_EQ(farm.egress_packet_count(), egress_before);
}

TEST(HoneyfarmTest, CapacityExhaustionDropsNewAddresses) {
  HoneyfarmConfig config = SmallFarm();
  config.num_hosts = 1;
  config.server_template.host.memory_mb = 8;  // tiny host: image 4 MiB + little room
  config.server_template.host.admission_reserve_frames = 64;
  config.server_template.host.domain_overhead_frames = 128;
  // Keep VMs pinned so capacity stays exhausted for the whole test.
  config.gateway.recycle.idle_timeout = Duration::Minutes(30);
  config.gateway.recycle.max_lifetime = Duration::Zero();
  Honeyfarm farm(config);
  farm.Start();
  for (uint64_t i = 0; i < 50; ++i) {
    farm.InjectInbound(ProbeSyn(kFarm.AddressAt(i)));
  }
  farm.RunFor(Duration::Seconds(60.0));
  // Admission passed at request time for many, but the clone engine hit the
  // memory wall while executing them.
  EXPECT_GT(farm.server(0).engine().clones_failed(), 0u);
  EXPECT_LT(farm.TotalLiveVms(), 50u);
  // A fresh address now fails admission up front.
  farm.InjectInbound(ProbeSyn(kFarm.AddressAt(100)));
  EXPECT_GT(farm.sharded_gateway().AggregateStats().no_capacity_drops, 0u);
}

TEST(HoneyfarmTest, ShardedFarmMatchesUnshardedTotals) {
  // Same scenario at 1 and 4 gateway shards: the shared-loop sharded gateway
  // is still single-threaded and deterministic, so farm-level outcomes must be
  // identical — only the internal partitioning differs.
  const auto run = [](uint32_t shards) {
    HoneyfarmConfig config = SmallFarm();
    config.gateway_shards = shards;
    Honeyfarm farm(config);
    farm.Start();
    for (uint64_t i = 0; i < 10; ++i) {
      farm.InjectInbound(ProbeSyn(kFarm.AddressAt(i)));
    }
    farm.RunFor(Duration::Seconds(8.0));
    return std::pair<uint64_t, GatewayStats>(
        farm.TotalLiveVms(), farm.sharded_gateway().AggregateStats());
  };
  const auto [vms1, stats1] = run(1);
  const auto [vms4, stats4] = run(4);
  EXPECT_EQ(vms4, 10u);
  EXPECT_EQ(vms4, vms1);
  EXPECT_EQ(stats4.inbound_packets, stats1.inbound_packets);
  EXPECT_EQ(stats4.inbound_delivered, stats1.inbound_delivered);
  EXPECT_EQ(stats4.clones_triggered, stats1.clones_triggered);
  // Inbound probes go straight to their owning shard: no handoffs.
  EXPECT_EQ(stats4.handoffs_out, 0u);
}

TEST(HoneyfarmTest, ScheduleTraceCountsSameTimestampRecords) {
  // Records sharing a timestamp go through the batched inbound path; every one
  // of them must reach the gateway.
  Honeyfarm farm(SmallFarm());
  farm.Start();
  std::vector<TraceRecord> records(3);
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].time = TimePoint() + Duration::Seconds(i < 2 ? 1.0 : 2.0);
    records[i].src = kExternal;
    records[i].dst = kFarm.AddressAt(i + 1);
    records[i].proto = IpProto::kTcp;
    records[i].src_port = 40000;
    records[i].dst_port = 445;
    records[i].wire_size = 60;
    records[i].tcp_flags = TcpFlags::kSyn;
  }
  farm.ScheduleTrace(records);
  farm.RunFor(Duration::Seconds(3.0));
  EXPECT_EQ(farm.obs().metrics.ValueOf("gateway.rx.packets"), 3.0);
  EXPECT_EQ(farm.sharded_gateway().AggregateStats().inbound_packets, 3u);
}

TEST(HoneyfarmTest, ContainmentVerdictIsFarmWideAtAnyShardCount) {
  // The same reflected outbreak at 1, 2 and 4 gateway shards: the farm-wide
  // containment view sums every shard and stays at zero escapes.
  const auto run = [](uint32_t shards, OutboundMode mode) {
    HoneyfarmConfig config = SmallFarm(mode);
    config.gateway_shards = shards;
    config.gateway.recycle.infected_hold = Duration::Minutes(10);
    Honeyfarm farm(config);
    WormConfig worm_config = SlammerLikeWorm(Ipv4Prefix(Ipv4Address(0, 0, 0, 0), 0));
    worm_config.scan_rate_pps = 20.0;
    WormRuntime worm(&farm.loop(), worm_config, 11);
    farm.AttachWorm(&worm);
    farm.Start();
    farm.SeedWorm(worm, kExternal, kFarm.AddressAt(1));
    farm.RunFor(Duration::Minutes(2));
    const ContainmentStats total = farm.sharded_gateway().AggregateContainmentStats();
    ContainmentStats summed;
    for (uint32_t s = 0; s < shards; ++s) {
      const ContainmentStats& shard = farm.sharded_gateway().shard(s).containment().stats();
      summed.reflected += shard.reflected;
      summed.escapes_from_infected += shard.escapes_from_infected;
    }
    EXPECT_EQ(total.reflected, summed.reflected) << shards << " shards";
    EXPECT_EQ(total.escapes_from_infected, summed.escapes_from_infected)
        << shards << " shards";
    return std::pair<ContainmentStats, ContainmentStats>(
        total, farm.sharded_gateway().shard(0).containment().stats());
  };
  for (const uint32_t shards : {1u, 2u, 4u}) {
    const auto [total, shard0] = run(shards, OutboundMode::kReflect);
    EXPECT_GT(total.reflected, 0u) << shards << " shards";
    EXPECT_EQ(total.escapes_from_infected, 0u) << shards << " shards";
  }
  // With escapes allowed, shard 0 alone undercounts what the farm let out.
  const auto [open_total, open_shard0] = run(4, OutboundMode::kOpen);
  EXPECT_GT(open_total.escapes_from_infected, open_shard0.escapes_from_infected);
}

}  // namespace
}  // namespace potemkin
