// Property-based integration tests: farm-wide invariants that must hold under
// arbitrary randomized workloads, swept over seeds and policies with TEST_P.
//
//   P1 memory conservation — a host's used frames always decompose exactly into
//      image frames + per-VM domain overhead + per-VM private deltas
//   P2 share accounting    — a frame's refcount is the live image generations
//      holding it + the explicit (non-borrowed) CoW shares and private owners
//      mapping it; each generation's pin count is the number of VMs bound to
//      it, and every borrowed share maps its own bound generation's frame
//   P3 containment         — under drop/reflect, the only packets on the real
//      Internet are responses to externally initiated flows
//   P4 determinism         — identical seeds give bit-identical farm statistics
//   P5 recycling totality  — after traffic stops and timeouts elapse, every VM
//      and every frame beyond the images is reclaimed
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/base/rng.h"
#include "src/core/honeyfarm.h"
#include "src/hv/page_dedup.h"

namespace potemkin {
namespace {

const Ipv4Prefix kFarm(Ipv4Address(10, 1, 0, 0), 20);

HoneyfarmConfig PropertyFarmConfig(OutboundMode mode, bool strict_tcp = false) {
  HoneyfarmConfig config = MakeDefaultFarmConfig(kFarm, /*num_hosts=*/2,
                                                 /*host_memory_mb=*/256,
                                                 ContentMode::kStoreBytes);
  config.server_template.image.num_pages = 512;
  config.server_template.host.domain_overhead_frames = 16;
  config.server_template.engine.latency = CloneLatencyModel::Optimized();
  config.server_template.engine.control_plane_workers = 4;
  config.gateway.containment.mode = mode;
  config.server_template.guest.strict_tcp = strict_tcp;
  config.gateway.recycle.idle_timeout = Duration::Seconds(20);
  config.gateway.recycle.infected_hold = Duration::Seconds(20);
  config.gateway.recycle.max_lifetime = Duration::Zero();
  return config;
}

// Random mixed workload: scans, service requests, exploits, icmp, from a mix of
// sources — some focused, some sweeping.
void DriveRandomTraffic(Honeyfarm& farm, Rng& rng, int packets,
                        Duration between_packets) {
  for (int i = 0; i < packets; ++i) {
    PacketSpec spec;
    spec.src_mac = MacAddress::FromId(rng.NextU64() & 0xffff);
    spec.dst_mac = MacAddress::FromId(1);
    spec.src_ip = Ipv4Address(static_cast<uint32_t>(0xc6000000u + rng.NextBelow(4096)));
    spec.dst_ip = kFarm.AddressAt(rng.NextBelow(64));  // focused on 64 addresses
    const double kind = rng.NextDouble();
    if (kind < 0.5) {
      spec.proto = IpProto::kTcp;
      spec.dst_port = rng.NextBool(0.5) ? 445 : 80;
      spec.tcp_flags = TcpFlags::kSyn;
    } else if (kind < 0.8) {
      spec.proto = IpProto::kTcp;
      spec.dst_port = 445;
      spec.tcp_flags = TcpFlags::kPsh | TcpFlags::kAck;
      spec.payload = {'S', 'M', 'B', 'r', 'e', 'q'};
      if (rng.NextBool(0.1)) {
        const char* sig = "EXPLOIT-LSASS";
        spec.payload.assign(sig, sig + 13);
      }
    } else if (kind < 0.9) {
      spec.proto = IpProto::kUdp;
      spec.dst_port = 1434;
      spec.payload = {0x04};
    } else {
      spec.proto = IpProto::kIcmp;
    }
    spec.src_port = static_cast<uint16_t>(1024 + rng.NextBelow(60000));
    farm.InjectInbound(BuildPacket(spec));
    farm.RunFor(between_packets);
  }
}

struct MemoryAccounting {
  uint64_t used_frames = 0;
  uint64_t expected = 0;
};

MemoryAccounting AccountHost(CloneServer& server, uint32_t image_pages,
                             uint64_t overhead_frames, size_t num_images) {
  MemoryAccounting acc;
  acc.used_frames = server.host().allocator().used_frames();
  uint64_t private_pages = 0;
  uint64_t vms = 0;
  server.host().ForEachVm([&](VirtualMachine& vm) {
    private_pages += vm.memory().private_pages();
    ++vms;
  });
  acc.expected = static_cast<uint64_t>(image_pages) * num_images +
                 vms * overhead_frames + private_pages;
  return acc;
}

// P2 on one host. Flash clones borrow their pinned generation's frames without
// a reference, so the count a frame must carry is exactly what generations
// and non-borrowed mappings account for; a leaked or double-dropped reference
// on any image, shared or private frame shows up as a mismatch.
void ExpectShareAccounting(PhysicalHost& host, const std::string& where) {
  const ReferenceImage* image = host.image(0);
  ASSERT_NE(image, nullptr);
  std::map<FrameId, uint32_t> accounted;
  for (ImageGeneration g = 0; g <= image->current_generation(); ++g) {
    if (image->generation_live(g)) {
      for (const FrameId frame : image->GenerationFrames(g)) {
        ++accounted[frame];
      }
    }
  }
  std::map<ImageGeneration, uint32_t> bound;
  host.ForEachVm([&](VirtualMachine& vm) {
    const ImageGeneration g = host.VmGeneration(vm.id());
    ++bound[g];
    const AddressSpace& memory = vm.memory();
    for (Gpfn gpfn = 0; gpfn < memory.num_pages(); ++gpfn) {
      if (!memory.IsMapped(gpfn)) {
        continue;
      }
      if (memory.IsBaseShare(gpfn)) {
        ASSERT_EQ(memory.FrameAt(gpfn), image->FrameForPage(g, gpfn))
            << where << " vm " << vm.id() << " gpfn " << gpfn;
      } else {
        ++accounted[memory.FrameAt(gpfn)];  // explicit share or private owner
      }
    }
  });
  for (const auto& [frame, refs] : accounted) {
    EXPECT_EQ(host.allocator().RefCount(frame), refs) << where << " frame " << frame;
  }
  for (ImageGeneration g = 0; g <= image->current_generation(); ++g) {
    EXPECT_EQ(image->pins(g), bound[g]) << where << " generation " << g;
  }
}

class FarmPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, OutboundMode, bool>> {};

TEST_P(FarmPropertyTest, MemoryConservationAndShareAccounting) {
  const auto [seed, mode, strict] = GetParam();
  HoneyfarmConfig config = PropertyFarmConfig(mode, strict);
  Honeyfarm farm(config);
  farm.Start();
  Rng rng(seed);
  DriveRandomTraffic(farm, rng, 300, Duration::Millis(50));

  // P1: frame conservation on every host, mid-flight.
  for (size_t s = 0; s < farm.server_count(); ++s) {
    const auto acc = AccountHost(farm.server(s), 512,
                                 config.server_template.host.domain_overhead_frames, 1);
    EXPECT_EQ(acc.used_frames, acc.expected) << "host " << s << " seed " << seed;
  }

  // P2: exact share accounting on every host.
  for (size_t s = 0; s < farm.server_count(); ++s) {
    ExpectShareAccounting(farm.server(s).host(),
                          "host " + std::to_string(s) + " seed " + std::to_string(seed));
  }
}

TEST_P(FarmPropertyTest, ShareAccountingAcrossRefreshAndDedup) {
  // P2 with more than one live generation and with explicit shares: clones
  // bound before a mid-run image refresh keep generation 0 pinned, and a dedup
  // pass turns identical private pages into reference-holding CoW shares.
  const auto [seed, mode, strict] = GetParam();
  HoneyfarmConfig config = PropertyFarmConfig(mode, strict);
  Honeyfarm farm(config);
  farm.Start();
  Rng rng(seed);
  DriveRandomTraffic(farm, rng, 150, Duration::Millis(50));
  std::vector<ImagePatch> patches(2);
  patches[0].gpfn = 7;
  patches[0].bytes.assign(64, 0x7e);
  patches[1].gpfn = 300;
  patches[1].bytes.assign(kPageSize, 0x30);
  for (size_t s = 0; s < farm.server_count(); ++s) {
    ASSERT_TRUE(farm.server(s).host().mutable_image(0)->Refresh(
        std::span<const ImagePatch>(patches)));
  }
  DriveRandomTraffic(farm, rng, 150, Duration::Millis(50));
  uint64_t old_generation_pins = 0;
  uint64_t merged = 0;
  for (size_t s = 0; s < farm.server_count(); ++s) {
    PhysicalHost& host = farm.server(s).host();
    old_generation_pins += host.image(0)->pins(0);
    merged += DeduplicatePages(host).pages_merged;
    ExpectShareAccounting(host, "host " + std::to_string(s) + " seed " +
                                    std::to_string(seed));
  }
  EXPECT_GT(old_generation_pins, 0u) << "no clone outlived the refresh";
  EXPECT_GT(merged, 0u) << "dedup created no explicit shares";

  // Teardown of clones holding merged shares: part of the population idles
  // out, then all of it. Surviving sharers' counts stay exact, and once every
  // clone is gone only the newest generation's frames remain.
  farm.RunFor(Duration::Seconds(12));
  for (size_t s = 0; s < farm.server_count(); ++s) {
    ExpectShareAccounting(farm.server(s).host(),
                          "after partial recycle, host " + std::to_string(s));
  }
  farm.RunFor(Duration::Minutes(2));
  EXPECT_EQ(farm.TotalLiveVms(), 0u);
  EXPECT_EQ(farm.TotalUsedFrames(), 512u * farm.server_count());
  for (size_t s = 0; s < farm.server_count(); ++s) {
    EXPECT_EQ(farm.server(s).host().image(0)->live_generations(), 1u);
    ExpectShareAccounting(farm.server(s).host(),
                          "after full recycle, host " + std::to_string(s));
  }
}

TEST_P(FarmPropertyTest, ContainmentOnlyLetsResponsesOut) {
  const auto [seed, mode, strict] = GetParam();
  if (mode == OutboundMode::kOpen) {
    GTEST_SKIP() << "open mode intentionally leaks";
  }
  HoneyfarmConfig config = PropertyFarmConfig(mode, strict);
  Honeyfarm farm(config);
  // Every egress packet must be the reverse of an externally-initiated flow.
  std::vector<Packet> egress;
  farm.set_egress_monitor([&](const Packet& p) { egress.push_back(p); });
  farm.Start();
  Rng rng(seed);
  DriveRandomTraffic(farm, rng, 300, Duration::Millis(50));
  farm.RunFor(Duration::Seconds(5.0));

  EXPECT_EQ(farm.sharded_gateway().AggregateContainmentStats().escapes_from_infected, 0u);
  for (const auto& packet : egress) {
    const auto view = PacketView::Parse(packet);
    ASSERT_TRUE(view.has_value());
    // Response invariant: source is a farm address, destination is external.
    EXPECT_TRUE(kFarm.Contains(view->ip().src)) << view->Describe();
    EXPECT_FALSE(kFarm.Contains(view->ip().dst)) << view->Describe();
  }
}

TEST_P(FarmPropertyTest, DeterministicAcrossRuns) {
  const auto [seed, mode, strict] = GetParam();
  auto run = [&](uint64_t s) {
    HoneyfarmConfig config = PropertyFarmConfig(mode, strict);
    config.seed = s;
    Honeyfarm farm(config);
    farm.Start();
    Rng rng(s);
    DriveRandomTraffic(farm, rng, 200, Duration::Millis(40));
    farm.RunFor(Duration::Seconds(3.0));
    const GatewayStats g = farm.sharded_gateway().AggregateStats();
    return std::make_tuple(g.inbound_packets, g.inbound_delivered, g.clones_triggered,
                           g.outbound_packets, g.reflections_injected,
                           farm.TotalLiveVms(), farm.TotalUsedFrames(),
                           farm.epidemic().total_infections());
  };
  EXPECT_EQ(run(seed), run(seed));
}

TEST_P(FarmPropertyTest, RecyclingReclaimsEverything) {
  const auto [seed, mode, strict] = GetParam();
  HoneyfarmConfig config = PropertyFarmConfig(mode, strict);
  Honeyfarm farm(config);
  farm.Start();
  const uint64_t baseline = farm.TotalUsedFrames();
  Rng rng(seed);
  DriveRandomTraffic(farm, rng, 200, Duration::Millis(20));
  EXPECT_GT(farm.TotalUsedFrames(), baseline);
  // No more traffic: idle + infected-hold timeouts all elapse.
  farm.RunFor(Duration::Minutes(2));
  EXPECT_EQ(farm.TotalLiveVms(), 0u);
  EXPECT_EQ(farm.TotalUsedFrames(), baseline);
  EXPECT_EQ(farm.sharded_gateway().live_bindings(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPolicies, FarmPropertyTest,
    ::testing::Combine(::testing::Values(1ull, 42ull, 12345ull),
                       ::testing::Values(OutboundMode::kOpen, OutboundMode::kDropAll,
                                         OutboundMode::kReflect),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<uint64_t, OutboundMode, bool>>&
           info) {
      std::string mode = OutboundModeName(std::get<1>(info.param));
      for (char& c : mode) {
        if (c == '-') {
          c = '_';
        }
      }
      return "seed" + std::to_string(std::get<0>(info.param)) + "_" + mode +
             (std::get<2>(info.param) ? "_strict" : "_permissive");
    });

}  // namespace
}  // namespace potemkin
