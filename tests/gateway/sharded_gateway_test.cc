// ShardedGateway tests: ownership partitioning, session disjointness, the
// N=1 passthrough guarantee, cross-shard reflection handoff, the full-ring
// and partition paths of the handoff fabric, and farm-wide probe rollups.
#include "src/gateway/sharded_gateway.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/gateway/gateway.h"

namespace potemkin {
namespace {

const Ipv4Prefix kFarm(Ipv4Address(10, 1, 0, 0), 16);
const Ipv4Address kExternal(203, 0, 113, 50);

// Instant-spawn backend that records every delivery. An optional hook runs
// inside DeliverToVm, so a test can make a VM answer while the gateway is
// still delivering (in the middle of a handoff pump).
class InstantBackend : public GatewayBackend {
 public:
  size_t NumHosts() const override { return 4; }
  bool HostCanAdmit(HostId) const override { return true; }
  size_t HostLiveVms(HostId) const override { return 0; }
  void SpawnVm(HostId, Ipv4Address ip, SessionId,
               std::function<void(VmId)> done) override {
    const VmId vm = next_vm_++;
    last_ip_for_vm_[vm] = ip;
    done(vm);
  }
  void RetireVm(HostId, VmId) override {}
  void DeliverToVm(HostId, VmId vm, Packet, const PacketView& view) override {
    ++delivered_;
    deliveries_.emplace_back(vm, view.ip().src);
    if (on_deliver_) {
      on_deliver_(vm);
    }
  }
  uint64_t delivered() const { return delivered_; }
  // (vm, frame source address) per delivery, in delivery order.
  const std::vector<std::pair<VmId, Ipv4Address>>& deliveries() const {
    return deliveries_;
  }
  void ClearDeliveries() { deliveries_.clear(); }
  void set_on_deliver(std::function<void(VmId)> hook) {
    on_deliver_ = std::move(hook);
  }

 private:
  VmId next_vm_ = 1;
  uint64_t delivered_ = 0;
  std::vector<std::pair<VmId, Ipv4Address>> deliveries_;
  std::map<VmId, Ipv4Address> last_ip_for_vm_;
  std::function<void(VmId)> on_deliver_;
};

Packet InboundSyn(Ipv4Address dst, uint16_t sport = 40000,
                  Ipv4Address src = kExternal) {
  PacketSpec spec;
  spec.src_mac = MacAddress::FromId(9);
  spec.dst_mac = MacAddress::FromId(1);
  spec.src_ip = src;
  spec.dst_ip = dst;
  spec.proto = IpProto::kTcp;
  spec.src_port = sport;
  spec.dst_port = 445;
  spec.tcp_flags = TcpFlags::kSyn;
  return BuildPacket(spec);
}

Packet OutboundScan(Ipv4Address src, Ipv4Address dst, uint16_t sport) {
  PacketSpec spec;
  spec.src_mac = MacAddress::FromId(2);
  spec.dst_mac = MacAddress::FromId(1);
  spec.src_ip = src;
  spec.dst_ip = dst;
  spec.proto = IpProto::kTcp;
  spec.src_port = sport;
  spec.dst_port = 445;
  spec.tcp_flags = TcpFlags::kSyn;
  return BuildPacket(spec);
}

// Fixture: every shard on one loop and one backend, as the Honeyfarm embeds it.
struct SharedFixture {
  EventLoop loop;
  InstantBackend backend;
  Observability obs;
  std::unique_ptr<ShardedGateway> gateway;

  explicit SharedFixture(uint32_t shards,
                         OutboundMode mode = OutboundMode::kDropAll,
                         size_t ring_capacity = 4096) {
    ShardedGatewayConfig config;
    config.gateway.farm_prefix = kFarm;
    config.gateway.obs = &obs;
    config.gateway.containment.mode = mode;
    config.shard_count = shards;
    config.handoff_ring_capacity = ring_capacity;
    gateway = std::make_unique<ShardedGateway>(&loop, config, &backend);
  }
};

TEST(ShardedGatewayTest, PartitionsBindingsByAddressLowBits) {
  SharedFixture fx(4);
  for (uint32_t i = 0; i < 8; ++i) {
    fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(i)));
  }
  fx.loop.RunAll();
  EXPECT_EQ(fx.gateway->live_bindings(), 8u);
  for (uint32_t i = 0; i < 8; ++i) {
    const Ipv4Address ip = kFarm.AddressAt(i);
    const uint32_t owner = fx.gateway->ShardOf(ip);
    EXPECT_EQ(owner, i % 4);
    for (uint32_t s = 0; s < 4; ++s) {
      const Binding* binding = fx.gateway->shard(s).bindings().Find(ip);
      if (s == owner) {
        EXPECT_NE(binding, nullptr) << "shard " << s << " missing " << i;
      } else {
        EXPECT_EQ(binding, nullptr) << "shard " << s << " stole " << i;
      }
    }
  }
}

TEST(ShardedGatewayTest, SessionIdsAreDisjointAcrossShards) {
  SharedFixture fx(4);
  for (uint32_t i = 0; i < 16; ++i) {
    fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(i)));
  }
  fx.loop.RunAll();
  std::set<SessionId> sessions;
  for (uint32_t i = 0; i < 16; ++i) {
    const Ipv4Address ip = kFarm.AddressAt(i);
    const Binding* binding =
        fx.gateway->shard(fx.gateway->ShardOf(ip)).bindings().Find(ip);
    ASSERT_NE(binding, nullptr);
    // Shard s mints 1+s, 1+s+4, ...: the residue identifies the minting shard.
    EXPECT_EQ(binding->session % 4, (1 + fx.gateway->ShardOf(ip)) % 4);
    sessions.insert(binding->session);
  }
  EXPECT_EQ(sessions.size(), 16u);  // no collisions farm-wide
}

// With shard_count == 1 the facade must be a pure passthrough: same stats,
// same session ids, same metric names as a bare Gateway fed identically.
TEST(ShardedGatewayTest, SingleShardMatchesBareGateway) {
  EventLoop bare_loop;
  InstantBackend bare_backend;
  Observability bare_obs;
  GatewayConfig bare_config;
  bare_config.farm_prefix = kFarm;
  bare_config.obs = &bare_obs;
  Gateway bare(&bare_loop, bare_config, &bare_backend);

  SharedFixture fx(1);

  for (uint32_t i = 0; i < 12; ++i) {
    bare.HandleInbound(InboundSyn(kFarm.AddressAt(i * 7)));
    fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(i * 7)));
  }
  bare_loop.RunAll();
  fx.loop.RunAll();

  const GatewayStats& want = bare.stats();
  const GatewayStats got = fx.gateway->AggregateStats();
  EXPECT_EQ(got.inbound_packets, want.inbound_packets);
  EXPECT_EQ(got.inbound_delivered, want.inbound_delivered);
  EXPECT_EQ(got.clones_triggered, want.clones_triggered);
  EXPECT_EQ(got.handoffs_out, 0u);
  EXPECT_EQ(got.handoffs_in, 0u);
  for (uint32_t i = 0; i < 12; ++i) {
    const Ipv4Address ip = kFarm.AddressAt(i * 7);
    const Binding* a = bare.bindings().Find(ip);
    const Binding* b = fx.gateway->shard(0).bindings().Find(ip);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->session, b->session);
  }
  // Unsharded metric names, not the "gateway.s0." namespace.
  EXPECT_GT(fx.obs.metrics.ValueOf("gateway.rx.packets"), 0.0);
  EXPECT_EQ(fx.obs.metrics.ValueOf("gateway.s0.rx.packets"), 0.0);
}

TEST(ShardedGatewayTest, ReflectionHandsOffAcrossShards) {
  SharedFixture fx(4, OutboundMode::kReflect);
  // Bring up a "worm" VM on shard 3.
  const Ipv4Address worm_ip = kFarm.AddressAt(3);
  fx.gateway->HandleInbound(InboundSyn(worm_ip));
  fx.loop.RunAll();
  fx.gateway->NotifyInfected(worm_ip);

  // Scan out to many distinct externals: each scan reflects onto a pseudo-random
  // farm victim, ~3/4 of which live on another shard.
  for (uint16_t i = 0; i < 32; ++i) {
    fx.gateway->HandleOutbound(
        0, 1, OutboundScan(worm_ip, Ipv4Address(77, 1, i, 9),
                           static_cast<uint16_t>(30000 + i)));
  }
  fx.loop.RunAll();

  const GatewayStats stats = fx.gateway->AggregateStats();
  EXPECT_GT(stats.handoffs_out, 0u);
  EXPECT_EQ(stats.handoffs_in, stats.handoffs_out);  // nothing stuck in a ring
  EXPECT_EQ(stats.reflections_injected, 32u);
  // Every victim binding must live on the shard owning its address.
  size_t victims = 0;
  for (uint32_t s = 0; s < 4; ++s) {
    Gateway& shard = fx.gateway->shard(s);
    shard.bindings().ForEach([&](const Binding& binding) {
      EXPECT_EQ(fx.gateway->ShardOf(binding.ip), s);
      ++victims;
    });
  }
  EXPECT_GT(victims, 1u);  // worm + at least one reflected victim
}

// The reply half of the reflection illusion: a victim on another shard
// answers the reflected scan, and its reply must reach the worm impersonating
// the external address the reflection replaced — which requires the
// reverse-NAT entry to live on the *victim's* shard (replies shard by
// source), not the scanner's shard that classified the outbound packet.
TEST(ShardedGatewayTest, ReflectedReplyRewritesSourceAcrossShards) {
  SharedFixture fx(4, OutboundMode::kReflect);
  const Ipv4Address worm_ip = kFarm.AddressAt(3);
  fx.gateway->HandleInbound(InboundSyn(worm_ip));
  fx.loop.RunAll();
  fx.gateway->NotifyInfected(worm_ip);
  for (uint16_t i = 0; i < 32; ++i) {
    fx.gateway->HandleOutbound(
        0, 1, OutboundScan(worm_ip, Ipv4Address(77, 1, static_cast<uint8_t>(i), 9),
                           static_cast<uint16_t>(30000 + i)));
  }
  fx.loop.RunAll();

  // Pick a reflected victim that landed on a different shard than the worm.
  const uint32_t worm_shard = fx.gateway->ShardOf(worm_ip);
  const Binding* victim = nullptr;
  for (uint32_t s = 0; s < 4 && victim == nullptr; ++s) {
    if (s == worm_shard) {
      continue;
    }
    fx.gateway->shard(s).bindings().ForEach([&](const Binding& binding) {
      if (victim == nullptr && binding.reflected_origin &&
          binding.state == BindingState::kActive) {
        victim = &binding;
      }
    });
  }
  ASSERT_NE(victim, nullptr);  // 32 scans, ~3/4 cross-shard: must exist

  fx.backend.ClearDeliveries();
  fx.gateway->HandleOutbound(
      victim->host, victim->vm,
      OutboundScan(victim->ip, worm_ip, /*sport=*/445));
  fx.loop.RunAll();

  ASSERT_EQ(fx.backend.deliveries().size(), 1u);
  const auto& [vm, reply_src] = fx.backend.deliveries()[0];
  EXPECT_EQ(vm, 1u);  // the worm's VM received the reply
  // Impersonation held: the source is one of the scanned externals, never the
  // victim's internal farm address.
  EXPECT_FALSE(kFarm.Contains(reply_src));
  EXPECT_EQ(reply_src.value() >> 16, (77u << 8) | 1u);
}

// Sharding divides a spraying source's distinct destinations across shards;
// the per-shard detector threshold is rescaled so farm-wide flagging latency
// stays comparable to an unsharded gateway.
TEST(ShardedGatewayTest, ScanThresholdRescalesWithShardCount) {
  SharedFixture fx(4);
  // Default farm-wide threshold 8 -> 2 per shard.
  EXPECT_EQ(fx.gateway->shard(0).config().scan_detector.distinct_threshold, 2u);
  // One source spraying 8 distinct addresses (2 per shard) is flagged, just
  // as it would be at threshold 8 unsharded.
  for (uint32_t i = 0; i < 8; ++i) {
    fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(i)));
  }
  fx.loop.RunAll();
  bool flagged = false;
  for (uint32_t s = 0; s < 4; ++s) {
    flagged = flagged || fx.gateway->shard(s).scan_detector().IsScanner(kExternal);
  }
  EXPECT_TRUE(flagged);
}

TEST(ShardedGatewayTest, AggregateProbesKeepFarmWideNames) {
  SharedFixture fx(4);
  for (uint32_t i = 0; i < 8; ++i) {
    fx.gateway->HandleInbound(InboundSyn(kFarm.AddressAt(i)));
  }
  fx.loop.RunAll();
  // Farm-wide rollups under the unsharded names (what the watchdog rules use),
  // backed by per-shard probes under "gateway.s<i>.".
  EXPECT_EQ(fx.obs.metrics.ValueOf("gateway.bindings.live"), 8.0);
  EXPECT_EQ(fx.obs.metrics.ValueOf("gateway.s0.bindings.live"), 2.0);
  EXPECT_EQ(fx.obs.metrics.ValueOf("gateway.s3.bindings.live"), 2.0);
  EXPECT_EQ(fx.obs.metrics.ValueOf("gateway.containment.allowed") +
                fx.obs.metrics.ValueOf("gateway.containment.dropped"),
            fx.obs.metrics.ValueOf("gateway.containment.allowed"));
}

TEST(ShardedGatewayTest, BatchDispatchBinsByOwningShard) {
  SharedFixture fx(4);
  std::vector<Packet> burst;
  for (uint32_t i = 0; i < 32; ++i) {
    burst.push_back(InboundSyn(kFarm.AddressAt(i)));
  }
  fx.gateway->HandleInboundBatch(burst);
  fx.loop.RunAll();
  EXPECT_EQ(fx.gateway->live_bindings(), 32u);
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(fx.gateway->shard(s).stats().inbound_packets, 8u);
  }
}

// A tiny ring forces the full-ring fallback: it must drain the destination's
// inbox (preserving per-pair FIFO) and then enqueue, so every handoff still
// flows through the rings and none is lost. Facade calls pump at once, so a
// ring only fills while a pump is already running: here the worm VM answers
// a reply delivered by the pump with a burst of scans, whose reflections
// queue behind the running pump.
TEST(ShardedGatewayTest, FullRingFallbackDrainsAndPreservesDelivery) {
  constexpr size_t kRingCapacity = 2;
  SharedFixture fx(4, OutboundMode::kReflect, kRingCapacity);
  const Ipv4Address worm_ip = kFarm.AddressAt(3);
  const uint32_t worm_shard = fx.gateway->ShardOf(worm_ip);
  fx.gateway->HandleInbound(InboundSyn(worm_ip));
  fx.loop.RunAll();
  fx.gateway->NotifyInfected(worm_ip);
  const Binding* worm =
      fx.gateway->shard(worm_shard).bindings().Find(worm_ip);
  ASSERT_NE(worm, nullptr);
  const HostId worm_host = worm->host;
  const VmId worm_vm = worm->vm;

  // A victim on another shard: reflect the worm's scans until one lands
  // off the worm's shard.
  const Binding* victim = nullptr;
  for (uint16_t i = 0; victim == nullptr && i < 64; ++i) {
    fx.gateway->HandleOutbound(
        worm_host, worm_vm,
        OutboundScan(worm_ip, Ipv4Address(77, 4, static_cast<uint8_t>(i), 9),
                     static_cast<uint16_t>(34000 + i)));
    fx.loop.RunAll();
    for (uint32_t s = 0; s < 4 && victim == nullptr; ++s) {
      if (s == worm_shard) {
        continue;
      }
      fx.gateway->shard(s).bindings().ForEach([&](const Binding& binding) {
        if (victim == nullptr && binding.state == BindingState::kActive) {
          victim = &binding;
        }
      });
    }
  }
  ASSERT_NE(victim, nullptr);

  // When the victim's reply reaches the worm — handed off from the victim's
  // shard, so delivered inside a pump — the worm fires 64 more scans inline.
  bool fired = false;
  fx.backend.set_on_deliver([&](VmId vm) {
    if (vm != worm_vm || fired) {
      return;
    }
    fired = true;
    for (uint16_t i = 0; i < 64; ++i) {
      fx.gateway->HandleOutbound(
          worm_host, worm_vm,
          OutboundScan(worm_ip, Ipv4Address(77, 2, static_cast<uint8_t>(i), 9),
                       static_cast<uint16_t>(31000 + i)));
    }
  });
  const GatewayStats before = fx.gateway->AggregateStats();
  fx.gateway->HandleOutbound(victim->host, victim->vm,
                             OutboundScan(victim->ip, worm_ip, /*sport=*/445));
  fx.loop.RunAll();
  ASSERT_TRUE(fired);

  const GatewayStats stats = fx.gateway->AggregateStats();
  EXPECT_EQ(stats.reflections_injected - before.reflections_injected, 64u);
  EXPECT_GT(stats.handoffs_out - before.handoffs_out, kRingCapacity);
  EXPECT_EQ(stats.handoffs_in, stats.handoffs_out);  // none lost or stuck
  EXPECT_EQ(fx.gateway->partition_drops(), 0u);
}

// Destroying the facade with handoffs still queued in the rings must recycle
// their packets cleanly; the ASan job catches any use-after-free here.
TEST(ShardedGatewayTest, DestructionWithQueuedHandoffsIsSafe) {
  SharedFixture fx(4, OutboundMode::kReflect);
  const Ipv4Address worm_ip = kFarm.AddressAt(3);
  const uint32_t worm_shard = fx.gateway->ShardOf(worm_ip);
  fx.gateway->HandleInbound(InboundSyn(worm_ip));
  fx.loop.RunAll();
  fx.gateway->NotifyInfected(worm_ip);
  for (uint32_t to = 0; to < 4; ++to) {
    if (to != worm_shard) {
      fx.gateway->SetHandoffPartition(worm_shard, to, true);
    }
  }
  for (uint16_t i = 0; i < 16; ++i) {
    fx.gateway->HandleOutbound(
        0, 1, OutboundScan(worm_ip, Ipv4Address(77, 3, static_cast<uint8_t>(i), 9),
                           static_cast<uint16_t>(32000 + i)));
  }
  fx.loop.RunAll();
  const GatewayStats stats = fx.gateway->AggregateStats();
  ASSERT_GT(stats.handoffs_out, stats.handoffs_in);  // handoffs left queued
  fx.gateway.reset();
}

// A cut handoff ring stalls cross-shard traffic without losing it (until the
// ring fills): healing the partition lets the queued handoffs flow.
TEST(ShardedGatewayTest, HandoffPartitionStallsThenHeals) {
  SharedFixture fx(4, OutboundMode::kReflect);
  const Ipv4Address worm_ip = kFarm.AddressAt(3);
  fx.gateway->HandleInbound(InboundSyn(worm_ip));
  fx.loop.RunAll();
  fx.gateway->NotifyInfected(worm_ip);

  const uint32_t worm_shard = fx.gateway->ShardOf(worm_ip);
  for (uint32_t to = 0; to < 4; ++to) {
    if (to != worm_shard) {
      fx.gateway->SetHandoffPartition(worm_shard, to, true);
    }
  }
  for (uint16_t i = 0; i < 32; ++i) {
    fx.gateway->HandleOutbound(
        0, 1, OutboundScan(worm_ip, Ipv4Address(77, 2, static_cast<uint8_t>(i), 9),
                           static_cast<uint16_t>(31000 + i)));
  }
  fx.loop.RunAll();
  const GatewayStats cut = fx.gateway->AggregateStats();
  // Cross-shard reflections stayed stuck in the rings.
  EXPECT_GT(cut.handoffs_out, cut.handoffs_in);

  for (uint32_t to = 0; to < 4; ++to) {
    if (to != worm_shard) {
      fx.gateway->SetHandoffPartition(worm_shard, to, false);
    }
  }
  fx.gateway->PumpHandoffs();
  fx.loop.RunAll();
  const GatewayStats healed = fx.gateway->AggregateStats();
  EXPECT_EQ(healed.handoffs_in, healed.handoffs_out);
  EXPECT_EQ(fx.gateway->partition_drops(), 0u);  // ring never filled
}

TEST(ShardedGatewayTest, ShardCountMustBePowerOfTwo) {
  EXPECT_DEATH(
      {
        EventLoop loop;
        InstantBackend backend;
        ShardedGatewayConfig config;
        config.gateway.farm_prefix = kFarm;
        config.shard_count = 3;
        ShardedGateway gateway(&loop, config, &backend);
      },
      "power of two");
}

}  // namespace
}  // namespace potemkin
