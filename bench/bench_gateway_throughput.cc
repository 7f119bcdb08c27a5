// Experiment F4 — Gateway forwarding performance vs live-binding count.
//
// Measures the real (wall-clock) packet-processing throughput of this gateway
// implementation as the binding table grows from 1 K to 64 K entries — the paper's
// gateway had to route for an entire /16 at line rate — plus the relative cost of
// the miss path (clone trigger), the reflection path, and the pending-queue vs
// drop ablation. Everything runs on one thread: the gateway is one logical
// dispatcher, and the farm is single-threaded at any shard count (F4b, the
// multi-threaded shard sweep, is retired; see EXPERIMENTS.md).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <vector>

#include "bench/report.h"
#include "src/base/flags.h"
#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/base/table.h"
#include "src/gateway/gateway.h"
#include "src/obs/observability.h"

namespace potemkin {
namespace {

// Counter delta over a timed section, read from a bench-local registry. The
// throughput numerators below come from the gateway's own metrics rather than
// the loop trip count, so the bench measures what the observability layer
// actually recorded (and fails loudly if instrumentation ever under-counts).
uint64_t CounterValue(const Observability& obs, const char* name) {
  return static_cast<uint64_t>(obs.metrics.ValueOf(name));
}

// Backend that completes spawns instantly and discards deliveries: isolates pure
// gateway data-path cost.
class NullBackend : public GatewayBackend {
 public:
  explicit NullBackend(size_t hosts) : hosts_(hosts) {}
  size_t NumHosts() const override { return hosts_; }
  bool HostCanAdmit(HostId) const override { return true; }
  size_t HostLiveVms(HostId) const override { return 0; }
  void SpawnVm(HostId, Ipv4Address, SessionId, std::function<void(VmId)> done) override {
    done(next_vm_++);
  }
  void RetireVm(HostId, VmId) override {}
  void DeliverToVm(HostId, VmId, Packet, const PacketView&) override {
    ++delivered_;
  }
  uint64_t delivered() const { return delivered_; }

 private:
  size_t hosts_;
  VmId next_vm_ = 1;
  uint64_t delivered_ = 0;
};

const Ipv4Prefix kFarm(Ipv4Address(10, 1, 0, 0), 16);

Packet InboundProbe(Ipv4Address dst, uint32_t salt) {
  PacketSpec spec;
  spec.src_mac = MacAddress::FromId(3);
  spec.dst_mac = MacAddress::FromId(1);
  spec.src_ip = Ipv4Address(198, static_cast<uint8_t>(salt >> 16),
                            static_cast<uint8_t>(salt >> 8),
                            static_cast<uint8_t>(salt));
  spec.dst_ip = dst;
  spec.proto = IpProto::kTcp;
  spec.src_port = static_cast<uint16_t>(1024 + salt % 50000);
  spec.dst_port = 445;
  spec.tcp_flags = TcpFlags::kSyn;
  return BuildPacket(spec);
}

double MeasureHitPathPps(uint64_t bindings, uint64_t packets) {
  EventLoop loop;
  NullBackend backend(16);
  Observability obs;
  GatewayConfig config;
  config.farm_prefix = kFarm;
  config.obs = &obs;
  Gateway gateway(&loop, config, &backend);
  // Populate the binding table (instant spawns -> active immediately).
  for (uint64_t i = 0; i < bindings; ++i) {
    gateway.HandleInbound(InboundProbe(kFarm.AddressAt(i), static_cast<uint32_t>(i)));
  }
  loop.RunAll();

  // Pre-build packets targeting existing bindings.
  Rng rng(5);
  std::vector<Packet> workload;
  workload.reserve(packets);
  for (uint64_t i = 0; i < packets; ++i) {
    workload.push_back(InboundProbe(kFarm.AddressAt(rng.NextBelow(bindings)),
                                    static_cast<uint32_t>(i)));
  }
  const uint64_t hits_before = CounterValue(obs, "gateway.rx.hit");
  const auto start = std::chrono::steady_clock::now();
  for (auto& packet : workload) {
    gateway.HandleInbound(std::move(packet));
  }
  const auto end = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(end - start).count();
  const uint64_t delivered = CounterValue(obs, "gateway.rx.hit") - hits_before;
  PK_CHECK(delivered == packets) << "hit path under-delivered";
  return static_cast<double>(delivered) / seconds;
}

// Same workload as MeasureHitPathPps, but injected through the batched entry
// point in bursts: one parse/bin pass and one binding lookup per destination
// run instead of per-packet table walks.
double MeasureHitPathBatchPps(uint64_t bindings, uint64_t packets,
                              size_t burst) {
  EventLoop loop;
  NullBackend backend(16);
  Observability obs;
  GatewayConfig config;
  config.farm_prefix = kFarm;
  config.obs = &obs;
  Gateway gateway(&loop, config, &backend);
  for (uint64_t i = 0; i < bindings; ++i) {
    gateway.HandleInbound(InboundProbe(kFarm.AddressAt(i), static_cast<uint32_t>(i)));
  }
  loop.RunAll();

  Rng rng(5);
  std::vector<Packet> workload;
  workload.reserve(packets);
  for (uint64_t i = 0; i < packets; ++i) {
    workload.push_back(InboundProbe(kFarm.AddressAt(rng.NextBelow(bindings)),
                                    static_cast<uint32_t>(i)));
  }
  const uint64_t hits_before = CounterValue(obs, "gateway.rx.hit");
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < workload.size(); i += burst) {
    const size_t n = std::min(burst, workload.size() - i);
    gateway.HandleInboundBatch(std::span<Packet>(&workload[i], n));
  }
  const auto end = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(end - start).count();
  const uint64_t delivered = CounterValue(obs, "gateway.rx.hit") - hits_before;
  PK_CHECK(delivered == packets) << "batched hit path under-delivered";
  return static_cast<double>(delivered) / seconds;
}

double MeasureMissPathPps(uint64_t packets) {
  EventLoop loop;
  NullBackend backend(16);
  Observability obs;
  GatewayConfig config;
  config.farm_prefix = kFarm;
  config.obs = &obs;
  Gateway gateway(&loop, config, &backend);
  std::vector<Packet> workload;
  workload.reserve(packets);
  for (uint64_t i = 0; i < packets; ++i) {
    workload.push_back(InboundProbe(kFarm.AddressAt(i % kFarm.NumAddresses()),
                                    static_cast<uint32_t>(i)));
  }
  const auto start = std::chrono::steady_clock::now();
  for (auto& packet : workload) {
    gateway.HandleInbound(std::move(packet));
  }
  const auto end = std::chrono::steady_clock::now();
  const uint64_t processed = CounterValue(obs, "gateway.rx.packets");
  PK_CHECK(processed == packets) << "miss path under-counted";
  return static_cast<double>(processed) /
         std::chrono::duration<double>(end - start).count();
}

double MeasureReflectPps(uint64_t packets) {
  EventLoop loop;
  NullBackend backend(16);
  Observability obs;
  GatewayConfig config;
  config.farm_prefix = kFarm;
  config.containment.mode = OutboundMode::kReflect;
  config.obs = &obs;
  Gateway gateway(&loop, config, &backend);
  // One live source VM binding.
  gateway.HandleInbound(InboundProbe(kFarm.AddressAt(0), 1));
  loop.RunAll();
  Rng rng(9);
  std::vector<Packet> workload;
  workload.reserve(packets);
  for (uint64_t i = 0; i < packets; ++i) {
    PacketSpec spec;
    spec.src_mac = MacAddress::FromId(4);
    spec.dst_mac = MacAddress::FromId(1);
    spec.src_ip = kFarm.AddressAt(0);
    spec.dst_ip = Ipv4Address(static_cast<uint32_t>(0xc0000000u + rng.NextU64() % 0xffffff));
    spec.proto = IpProto::kUdp;
    spec.src_port = 1434;
    spec.dst_port = 1434;
    spec.payload = {1, 2, 3, 4};
    workload.push_back(BuildPacket(spec));
  }
  const auto start = std::chrono::steady_clock::now();
  for (auto& packet : workload) {
    gateway.HandleOutbound(0, 1, std::move(packet));
  }
  const auto end = std::chrono::steady_clock::now();
  const uint64_t processed = CounterValue(obs, "gateway.tx.outbound");
  PK_CHECK(processed == packets) << "reflect path under-counted";
  return static_cast<double>(processed) /
         std::chrono::duration<double>(end - start).count();
}

void Run(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const uint64_t packets = flags.GetUint("packets", 300000);

  std::printf("=== F4: gateway packet-processing throughput (real wall clock) ===\n\n");

  BenchReport report("gateway_throughput");
  Table table({"live bindings", "hit-path throughput (pkts/s)", "per packet (ns)"});
  for (uint64_t bindings : {1000ull, 8000ull, 64000ull}) {
    const double pps = MeasureHitPathPps(bindings, packets);
    table.AddRow({WithCommas(bindings), WithCommas(static_cast<uint64_t>(pps)),
                  StrFormat("%.0f", 1e9 / pps)});
    report.Add(StrFormat("hit_path_pps_%llu_bindings",
                         static_cast<unsigned long long>(bindings)),
               pps, "pkts/s", Better::kHigher, Kind::kWallclock);
  }
  std::printf("%s\n", table.ToAscii().c_str());

  const double batch = MeasureHitPathBatchPps(8000, packets, /*burst=*/64);
  report.Add("hit_path_batch_pps_8000_bindings", batch, "pkts/s",
             Better::kHigher, Kind::kWallclock);
  std::printf("hit path, batched dispatch (64-packet bursts, 8K bindings):  %s pkts/s\n",
              WithCommas(static_cast<uint64_t>(batch)).c_str());

  const double miss = MeasureMissPathPps(packets / 3);
  const double reflect = MeasureReflectPps(packets / 3);
  report.Add("miss_path_pps", miss, "pkts/s", Better::kHigher,
             Kind::kWallclock);
  report.Add("reflect_path_pps", reflect, "pkts/s", Better::kHigher,
             Kind::kWallclock);
  report.WriteJson();
  std::printf("miss path (first-contact: binding + clone dispatch): %s pkts/s\n",
              WithCommas(static_cast<uint64_t>(miss)).c_str());
  std::printf("outbound reflection path (rewrite + NAT + reroute):  %s pkts/s\n\n",
              WithCommas(static_cast<uint64_t>(reflect)).c_str());

  std::printf("shape check (paper): the gateway data path sustains hundreds of "
              "thousands of pkts/s with only gentle degradation as the binding "
              "table grows to a full /16 — forwarding is not the bottleneck. The "
              "expensive part of a miss is the flash clone it triggers (~0.5 s of "
              "control-plane work, deliberately excluded here; see T1/F6), so "
              "clone rate bounds how fast the farm absorbs NEW addresses.\n");
}

}  // namespace
}  // namespace potemkin

int main(int argc, char** argv) {
  potemkin::Run(argc, argv);
  return 0;
}
