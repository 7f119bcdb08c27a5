// Tests for ICMP error backscatter, gateway TTL handling and emergency reclaim.
#include <gtest/gtest.h>

#include "src/core/honeyfarm.h"

namespace potemkin {
namespace {

const Ipv4Prefix kFarm(Ipv4Address(10, 1, 0, 0), 22);
const Ipv4Address kProber(198, 51, 100, 9);

HoneyfarmConfig SmallFarm() {
  HoneyfarmConfig config = MakeDefaultFarmConfig(kFarm, /*num_hosts=*/1,
                                                 /*host_memory_mb=*/128,
                                                 ContentMode::kStoreBytes);
  config.server_template.image.num_pages = 512;
  config.server_template.engine.latency = CloneLatencyModel::Optimized();
  config.gateway.containment.mode = OutboundMode::kDropAll;
  config.gateway.recycle.idle_timeout = Duration::Minutes(10);
  config.gateway.recycle.max_lifetime = Duration::Zero();
  return config;
}

Packet UdpProbe(Ipv4Address dst, uint16_t dport, uint8_t ttl = 64) {
  PacketSpec spec;
  spec.src_mac = MacAddress::FromId(9);
  spec.dst_mac = MacAddress::FromId(1);
  spec.src_ip = kProber;
  spec.dst_ip = dst;
  spec.proto = IpProto::kUdp;
  spec.src_port = 53123;
  spec.dst_port = dport;
  spec.ttl = ttl;
  spec.payload = {1, 2, 3, 4};
  return BuildPacket(spec);
}

TEST(IcmpHelpersTest, QuoteAndEmbeddedAddressesRoundTrip) {
  const Packet offending = UdpProbe(kFarm.AddressAt(5), 123);
  PacketSpec error;
  error.src_ip = kFarm.AddressAt(5);
  error.dst_ip = kProber;
  error.proto = IpProto::kIcmp;
  error.icmp_type = kIcmpDestUnreachable;
  error.icmp_code = kIcmpCodePortUnreachable;
  error.payload = IcmpQuoteOf(offending);
  const Packet error_packet = BuildPacket(error);
  const auto view = PacketView::Parse(error_packet);
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(IsIcmpError(*view));
  const auto embedded = IcmpEmbeddedAddresses(*view);
  ASSERT_TRUE(embedded.has_value());
  EXPECT_EQ(embedded->first, kProber);               // quoted src
  EXPECT_EQ(embedded->second, kFarm.AddressAt(5));   // quoted dst
  // Quote is IP header (20) + 8 payload bytes.
  EXPECT_EQ(view->l4_payload().size(), 28u);
}

TEST(IcmpHelpersTest, EchoIsNotAnError) {
  PacketSpec echo;
  echo.proto = IpProto::kIcmp;
  echo.icmp_type = kIcmpEchoRequest;
  const auto view = PacketView::Parse(BuildPacket(echo));
  EXPECT_FALSE(IsIcmpError(*view));
  EXPECT_FALSE(IcmpEmbeddedAddresses(*view).has_value());
}

TEST(BackscatterTest, ClosedUdpPortEmitsPortUnreachableThroughGateway) {
  Honeyfarm farm(SmallFarm());
  std::vector<Packet> egress;
  farm.set_egress_monitor([&](const Packet& p) { egress.push_back(p); });
  farm.Start();
  // Port 123 is a privileged port no default service listens on.
  farm.InjectInbound(UdpProbe(kFarm.AddressAt(5), 123));
  farm.RunFor(Duration::Seconds(2.0));
  ASSERT_EQ(egress.size(), 1u);
  const auto view = PacketView::Parse(egress[0]);
  ASSERT_TRUE(view.has_value());
  ASSERT_TRUE(view->is_icmp());
  EXPECT_EQ(view->icmp().type, kIcmpDestUnreachable);
  EXPECT_EQ(view->icmp().code, kIcmpCodePortUnreachable);
  EXPECT_EQ(view->ip().dst, kProber);
  EXPECT_TRUE(ValidateChecksums(egress[0]));
  EXPECT_EQ(farm.sharded_gateway().AggregateStats().icmp_errors_allowed_out, 1u);
}

TEST(BackscatterTest, ForgedIcmpErrorsAreContained) {
  // An infected VM trying to smuggle data as an ICMP "error" about traffic that
  // never entered the farm must be contained.
  Honeyfarm farm(SmallFarm());
  std::vector<Packet> egress;
  farm.set_egress_monitor([&](const Packet& p) { egress.push_back(p); });
  farm.Start();
  farm.InjectInbound(UdpProbe(kFarm.AddressAt(5), 1434));  // brings up a VM
  farm.RunFor(Duration::Seconds(2.0));
  const Binding* binding = farm.sharded_gateway().shard(0).bindings().Find(kFarm.AddressAt(5));
  ASSERT_NE(binding, nullptr);
  GuestOs* guest = farm.server(0).FindGuest(binding->vm);
  ASSERT_NE(guest, nullptr);
  const size_t egress_before = egress.size();

  // Forged quote: claims the farm sent traffic TO another external host.
  PacketSpec forged_original;
  forged_original.src_ip = kFarm.AddressAt(5);
  forged_original.dst_ip = Ipv4Address(203, 0, 113, 77);
  forged_original.proto = IpProto::kUdp;
  PacketSpec forged_error;
  forged_error.src_mac = guest->vm()->mac();
  forged_error.dst_mac = MacAddress::FromId(1);
  forged_error.src_ip = kFarm.AddressAt(5);
  forged_error.dst_ip = Ipv4Address(203, 0, 113, 77);
  forged_error.proto = IpProto::kIcmp;
  forged_error.icmp_type = kIcmpDestUnreachable;
  forged_error.icmp_code = kIcmpCodePortUnreachable;
  forged_error.payload = IcmpQuoteOf(BuildPacket(forged_original));
  guest->vm()->Transmit(BuildPacket(forged_error));
  farm.RunFor(Duration::Seconds(1.0));
  EXPECT_EQ(egress.size(), egress_before);  // contained
}

TEST(TtlTest, ExpiredTtlDroppedAtGateway) {
  Honeyfarm farm(SmallFarm());
  farm.Start();
  // TTL 1 decrements to 0 at the gateway hop: never delivered.
  farm.InjectInbound(UdpProbe(kFarm.AddressAt(5), 1434, /*ttl=*/1));
  farm.RunFor(Duration::Seconds(2.0));
  EXPECT_EQ(farm.sharded_gateway().AggregateStats().ttl_expired_drops, 1u);
  EXPECT_EQ(farm.sharded_gateway().AggregateStats().inbound_delivered, 0u);
  // The VM was still cloned (late binding happens before delivery)...
  EXPECT_EQ(farm.TotalLiveVms(), 1u);
  // ...and a healthy-TTL packet reaches it.
  farm.InjectInbound(UdpProbe(kFarm.AddressAt(5), 1434, /*ttl=*/64));
  farm.RunFor(Duration::Seconds(1.0));
  EXPECT_EQ(farm.sharded_gateway().AggregateStats().inbound_delivered, 1u);
}

TEST(EmergencyReclaimTest, PressureRetiresMostIdleVms) {
  HoneyfarmConfig config = SmallFarm();
  config.server_template.host.memory_mb = 8;  // tiny: image 2 MiB + a few VMs
  config.server_template.host.admission_reserve_frames = 64;
  config.server_template.host.domain_overhead_frames = 128;
  config.gateway.recycle.emergency_reclaim_batch = 2;
  Honeyfarm farm(config);
  farm.Start();

  // Fill the host to the admission wall.
  uint64_t address = 0;
  uint64_t live_before = 0;
  for (; address < 32; ++address) {
    farm.InjectInbound(UdpProbe(kFarm.AddressAt(address), 1434));
    farm.RunFor(Duration::Seconds(1.0));
    if (farm.sharded_gateway().AggregateStats().no_capacity_drops > 0) {
      break;
    }
    live_before = farm.TotalLiveVms();
  }
  ASSERT_GT(farm.sharded_gateway().AggregateStats().no_capacity_drops, 0u);
  EXPECT_EQ(farm.sharded_gateway().AggregateStats().emergency_reclaims, 2u);
  farm.RunFor(Duration::Seconds(2.0));  // teardown completes
  EXPECT_LT(farm.TotalLiveVms(), live_before);

  // Capacity recovered: a fresh address now gets a VM.
  const uint64_t clones_before = farm.total_clones_completed();
  farm.InjectInbound(UdpProbe(kFarm.AddressAt(100), 1434));
  farm.RunFor(Duration::Seconds(2.0));
  EXPECT_GT(farm.total_clones_completed(), clones_before);
}

TEST(EmergencyReclaimTest, DisabledByDefault) {
  HoneyfarmConfig config = SmallFarm();
  config.server_template.host.memory_mb = 8;
  config.server_template.host.admission_reserve_frames = 64;
  config.server_template.host.domain_overhead_frames = 128;
  Honeyfarm farm(config);
  farm.Start();
  for (uint64_t i = 0; i < 32; ++i) {
    farm.InjectInbound(UdpProbe(kFarm.AddressAt(i), 1434));
    farm.RunFor(Duration::Seconds(1.0));
  }
  EXPECT_GT(farm.sharded_gateway().AggregateStats().no_capacity_drops, 0u);
  EXPECT_EQ(farm.sharded_gateway().AggregateStats().emergency_reclaims, 0u);
}

}  // namespace
}  // namespace potemkin
