// Tests for the farm-level extension features: OS/image diversity, forensic
// archiving of infected VMs at recycle time, and gateway scanner filtering.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/base/strings.h"
#include "src/core/honeyfarm.h"
#include "src/hv/snapshot.h"

namespace potemkin {
namespace {

const Ipv4Prefix kFarm(Ipv4Address(10, 1, 0, 0), 20);
const Ipv4Address kExternal(198, 51, 100, 7);

Packet ProbeSyn(Ipv4Address dst, uint16_t port = 445, Ipv4Address src = kExternal) {
  PacketSpec spec;
  spec.src_mac = MacAddress::FromId(src.value());
  spec.dst_mac = MacAddress::FromId(1);
  spec.src_ip = src;
  spec.dst_ip = dst;
  spec.proto = IpProto::kTcp;
  spec.src_port = 52000;
  spec.dst_port = port;
  spec.tcp_flags = TcpFlags::kSyn;
  return BuildPacket(spec);
}

HoneyfarmConfig BaseConfig() {
  HoneyfarmConfig config = MakeDefaultFarmConfig(kFarm, /*num_hosts=*/1,
                                                 /*host_memory_mb=*/256,
                                                 ContentMode::kStoreBytes);
  config.server_template.image.num_pages = 512;
  config.gateway.recycle.idle_timeout = Duration::Minutes(10);
  config.gateway.recycle.max_lifetime = Duration::Zero();
  return config;
}

TEST(ImageDiversityTest, AddressesSpreadAcrossProfiles) {
  HoneyfarmConfig config = BaseConfig();
  ImageProfile linux_profile;
  linux_profile.image.name = "linux";
  linux_profile.image.num_pages = 512;
  linux_profile.image.content_seed = 99;
  linux_profile.guest.services = DefaultLinuxServices();
  config.server_template.extra_profiles.push_back(linux_profile);
  config.server_template.image_selection = ImageSelection::kByAddressHash;

  Honeyfarm farm(config);
  farm.Start();
  EXPECT_EQ(farm.server(0).profile_count(), 2u);

  // The hash split should land both profiles across a set of addresses.
  int profile0 = 0;
  int profile1 = 0;
  for (uint64_t i = 0; i < 64; ++i) {
    const size_t p = farm.server(0).SelectProfile(kFarm.AddressAt(i));
    (p == 0 ? profile0 : profile1)++;
  }
  EXPECT_GT(profile0, 8);
  EXPECT_GT(profile1, 8);

  // Deterministic: the same address always selects the same profile.
  for (uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(farm.server(0).SelectProfile(kFarm.AddressAt(i)),
              farm.server(0).SelectProfile(kFarm.AddressAt(i)));
  }
}

TEST(ImageDiversityTest, DifferentProfilesServeDifferentPorts) {
  HoneyfarmConfig config = BaseConfig();
  ImageProfile linux_profile;
  linux_profile.image.name = "linux";
  linux_profile.image.num_pages = 512;
  linux_profile.image.content_seed = 99;
  linux_profile.guest.services = DefaultLinuxServices();  // has SSH, no SMB
  config.server_template.extra_profiles.push_back(linux_profile);
  config.server_template.image_selection = ImageSelection::kByAddressHash;

  Honeyfarm farm(config);
  std::vector<Packet> egress;
  farm.set_egress_monitor([&](const Packet& p) { egress.push_back(p); });
  farm.Start();

  // Find one address of each profile.
  Ipv4Address windows_addr;
  Ipv4Address linux_addr;
  bool have_windows = false;
  bool have_linux = false;
  for (uint64_t i = 0; i < 256 && (!have_windows || !have_linux); ++i) {
    const Ipv4Address addr = kFarm.AddressAt(i);
    if (farm.server(0).SelectProfile(addr) == 0 && !have_windows) {
      windows_addr = addr;
      have_windows = true;
    } else if (farm.server(0).SelectProfile(addr) == 1 && !have_linux) {
      linux_addr = addr;
      have_linux = true;
    }
  }
  ASSERT_TRUE(have_windows && have_linux);

  // SSH SYN: Linux boxes accept (SYN|ACK), Windows boxes refuse (RST).
  farm.InjectInbound(ProbeSyn(windows_addr, 22));
  farm.InjectInbound(ProbeSyn(linux_addr, 22));
  farm.RunFor(Duration::Seconds(3.0));
  ASSERT_EQ(egress.size(), 2u);
  int synacks = 0;
  int rsts = 0;
  for (const auto& p : egress) {
    const auto view = PacketView::Parse(p);
    ASSERT_TRUE(view.has_value());
    if (view->tcp().flags & TcpFlags::kRst) {
      ++rsts;
      EXPECT_EQ(view->ip().src, windows_addr);
    } else {
      ++synacks;
      EXPECT_EQ(view->ip().src, linux_addr);
    }
  }
  EXPECT_EQ(synacks, 1);
  EXPECT_EQ(rsts, 1);
}

TEST(ForensicsTest, InfectedVmsArchivedAtRecycle) {
  HoneyfarmConfig config = BaseConfig();
  config.server_template.forensics_dir = ::testing::TempDir();
  config.gateway.recycle.idle_timeout = Duration::Seconds(3);
  config.gateway.recycle.infected_hold = Duration::Seconds(3);
  config.gateway.containment.mode = OutboundMode::kDropAll;
  Honeyfarm farm(config);
  WormRuntime worm(&farm.loop(),
                   SlammerLikeWorm(Ipv4Prefix(Ipv4Address(11, 0, 0, 0), 8)), 5);
  farm.AttachWorm(&worm);
  farm.Start();
  farm.SeedWorm(worm, kExternal, kFarm.AddressAt(4));
  farm.RunFor(Duration::Seconds(1.0));
  ASSERT_EQ(farm.epidemic().total_infections(), 1u);
  const VmId infected_vm = farm.epidemic().events()[0].vm;

  farm.RunFor(Duration::Seconds(30.0));  // idle out -> recycle -> snapshot
  EXPECT_EQ(farm.TotalLiveVms(), 0u);
  EXPECT_EQ(farm.server(0).snapshots_written(), 1u);

  const std::string path =
      StrFormat("%s/vm-%llu-%s.snap", ::testing::TempDir().c_str(),
                static_cast<unsigned long long>(infected_vm),
                kFarm.AddressAt(4).ToString().c_str());
  const auto snapshot = VmSnapshot::ReadFromFile(path);
  ASSERT_TRUE(snapshot.has_value()) << path;
  EXPECT_TRUE(snapshot->meta().infected);
  EXPECT_GT(snapshot->delta_pages(), 0u);
  std::remove(path.c_str());
}

TEST(ForensicsTest, CleanVmsNotArchived) {
  HoneyfarmConfig config = BaseConfig();
  config.server_template.forensics_dir = ::testing::TempDir();
  config.gateway.recycle.idle_timeout = Duration::Seconds(3);
  Honeyfarm farm(config);
  farm.Start();
  farm.InjectInbound(ProbeSyn(kFarm.AddressAt(2)));
  farm.RunFor(Duration::Seconds(30.0));
  EXPECT_EQ(farm.TotalLiveVms(), 0u);
  EXPECT_EQ(farm.server(0).snapshots_written(), 0u);
}

TEST(ScannerFilterTest, KnownScannersStopSpawningVms) {
  HoneyfarmConfig config = BaseConfig();
  config.gateway.filter_known_scanners = true;
  config.gateway.scan_detector.distinct_threshold = 4;
  Honeyfarm farm(config);
  farm.Start();
  // One source sweeps 20 addresses; after the 4th distinct address it is flagged
  // and stops creating bindings.
  for (uint64_t i = 0; i < 20; ++i) {
    farm.InjectInbound(ProbeSyn(kFarm.AddressAt(i)));
  }
  farm.RunFor(Duration::Seconds(5.0));
  EXPECT_LE(farm.sharded_gateway().live_bindings(), 4u);
  EXPECT_GE(farm.sharded_gateway().AggregateStats().inbound_filtered_scanners, 16u);

  // Packets to an ALREADY-live VM still flow even from the flagged scanner.
  const uint64_t delivered_before = farm.sharded_gateway().AggregateStats().inbound_delivered;
  farm.InjectInbound(ProbeSyn(kFarm.AddressAt(0)));
  farm.RunFor(Duration::Seconds(1.0));
  EXPECT_GT(farm.sharded_gateway().AggregateStats().inbound_delivered, delivered_before);
}

TEST(GreTerminationTest, TunneledTrafficReachesTheFarm) {
  HoneyfarmConfig config = BaseConfig();
  Honeyfarm farm(config);
  farm.Start();
  const Ipv4Address gateway_ip(192, 0, 2, 2);
  const Ipv4Address router_ip(192, 0, 2, 1);
  farm.EnableGreTermination(gateway_ip, router_ip, 42);

  // The border router wraps a telescope packet and ships it over the tunnel.
  GreTunnel router(router_ip, gateway_ip, 42);
  farm.InjectTunneled(router.Send(ProbeSyn(kFarm.AddressAt(8))));
  farm.RunFor(Duration::Seconds(2.0));
  EXPECT_EQ(farm.TotalLiveVms(), 1u);
  EXPECT_EQ(farm.sharded_gateway().AggregateStats().inbound_packets, 1u);
  ASSERT_NE(farm.gre_tunnel(), nullptr);
  EXPECT_EQ(farm.gre_tunnel()->packets_decapsulated(), 1u);
}

TEST(GreTerminationTest, ForeignTunnelsRejected) {
  HoneyfarmConfig config = BaseConfig();
  Honeyfarm farm(config);
  farm.Start();
  farm.EnableGreTermination(Ipv4Address(192, 0, 2, 2), Ipv4Address(192, 0, 2, 1), 42);
  GreTunnel wrong_key(Ipv4Address(192, 0, 2, 1), Ipv4Address(192, 0, 2, 2), 43);
  farm.InjectTunneled(wrong_key.Send(ProbeSyn(kFarm.AddressAt(8))));
  farm.RunFor(Duration::Seconds(2.0));
  EXPECT_EQ(farm.TotalLiveVms(), 0u);
  EXPECT_EQ(farm.gre_tunnel()->packets_rejected(), 1u);
}

TEST(ScannerFilterTest, DisabledByDefault) {
  HoneyfarmConfig config = BaseConfig();
  Honeyfarm farm(config);
  farm.Start();
  for (uint64_t i = 0; i < 20; ++i) {
    farm.InjectInbound(ProbeSyn(kFarm.AddressAt(i)));
  }
  farm.RunFor(Duration::Seconds(5.0));
  EXPECT_EQ(farm.sharded_gateway().live_bindings(), 20u);
  EXPECT_EQ(farm.sharded_gateway().AggregateStats().inbound_filtered_scanners, 0u);
}

}  // namespace
}  // namespace potemkin
