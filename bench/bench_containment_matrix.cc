// Experiment T2 — Containment policy action matrix.
//
// For each outbound traffic class a honeyfarm VM generates, what does the gateway
// do under each policy? This regenerates the paper's qualitative containment
// discussion as a concrete decision matrix, then validates it empirically by
// pushing a mixed workload through a live gateway and printing observed action
// counts.
#include <cstdio>

#include "bench/report.h"
#include "src/base/flags.h"
#include "src/base/strings.h"
#include "src/base/table.h"
#include "src/gateway/gateway.h"
#include "src/net/dns.h"

namespace potemkin {
namespace {

const Ipv4Prefix kFarm(Ipv4Address(10, 1, 0, 0), 16);
const Ipv4Address kVm = kFarm.AddressAt(5);
const Ipv4Address kPeer(198, 51, 100, 20);

class CountingBackend : public GatewayBackend {
 public:
  size_t NumHosts() const override { return 1; }
  bool HostCanAdmit(HostId) const override { return true; }
  size_t HostLiveVms(HostId) const override { return 0; }
  void SpawnVm(HostId, Ipv4Address, SessionId, std::function<void(VmId)> done) override {
    done(next_vm_++);
  }
  void RetireVm(HostId, VmId) override {}
  void DeliverToVm(HostId, VmId, Packet, const PacketView&) override {
    ++delivered_;
  }
  uint64_t delivered_ = 0;

 private:
  VmId next_vm_ = 1;
};

struct TrafficClass {
  const char* name;
  PacketSpec spec;
  bool needs_inbound_flow;  // must look like a response to an external probe
};

std::vector<TrafficClass> MakeClasses() {
  std::vector<TrafficClass> classes;
  {
    TrafficClass c{"response to external probe", {}, true};
    c.spec.src_ip = kVm;
    c.spec.dst_ip = kPeer;
    c.spec.proto = IpProto::kTcp;
    c.spec.src_port = 445;
    c.spec.dst_port = 52000;
    c.spec.tcp_flags = TcpFlags::kSyn | TcpFlags::kAck;
    classes.push_back(c);
  }
  {
    TrafficClass c{"DNS lookup", {}, false};
    c.spec.src_ip = kVm;
    c.spec.dst_ip = Ipv4Address(4, 2, 2, 2);
    c.spec.proto = IpProto::kUdp;
    c.spec.src_port = 3000;
    c.spec.dst_port = 53;
    DnsQuery query;
    query.id = 7;
    query.name = "cc.malware.example";
    c.spec.payload = EncodeDnsQuery(query);
    classes.push_back(c);
  }
  {
    TrafficClass c{"farm-internal connection", {}, false};
    c.spec.src_ip = kVm;
    c.spec.dst_ip = kFarm.AddressAt(900);
    c.spec.proto = IpProto::kTcp;
    c.spec.src_port = 3001;
    c.spec.dst_port = 445;
    c.spec.tcp_flags = TcpFlags::kSyn;
    classes.push_back(c);
  }
  {
    TrafficClass c{"initiated scan (worm probe)", {}, false};
    c.spec.src_ip = kVm;
    c.spec.dst_ip = Ipv4Address(203, 0, 113, 9);
    c.spec.proto = IpProto::kTcp;
    c.spec.src_port = 3002;
    c.spec.dst_port = 445;
    c.spec.tcp_flags = TcpFlags::kSyn;
    classes.push_back(c);
  }
  {
    TrafficClass c{"allow-listed port (tcp/25)", {}, false};
    c.spec.src_ip = kVm;
    c.spec.dst_ip = Ipv4Address(203, 0, 113, 10);
    c.spec.proto = IpProto::kTcp;
    c.spec.src_port = 3003;
    c.spec.dst_port = 25;
    c.spec.tcp_flags = TcpFlags::kSyn;
    classes.push_back(c);
  }
  return classes;
}

// Observed outcome of pushing one packet of the class through a fresh gateway.
std::string Observe(const TrafficClass& cls, OutboundMode mode) {
  EventLoop loop;
  CountingBackend backend;
  GatewayConfig config;
  config.farm_prefix = kFarm;
  config.containment.mode = mode;
  config.containment.allowed_ports = {25};
  Gateway gateway(&loop, config, &backend);
  uint64_t egress = 0;
  gateway.set_egress_sink([&](Packet) { ++egress; });

  // Bind the source VM.
  PacketSpec probe;
  probe.src_ip = kPeer;
  probe.dst_ip = kVm;
  probe.proto = IpProto::kTcp;
  probe.src_port = 52000;
  probe.dst_port = 445;
  probe.tcp_flags = TcpFlags::kSyn;
  gateway.HandleInbound(BuildPacket(probe));
  loop.RunAll();

  const auto stats_before = gateway.stats();
  const auto containment_before = gateway.containment().stats();
  const uint64_t egress_before = egress;
  gateway.HandleOutbound(0, 1, BuildPacket(cls.spec));
  loop.RunAll();

  const auto& s = gateway.stats();
  const auto& c = gateway.containment().stats();
  if (egress > egress_before) {
    if (s.responses_allowed_out > stats_before.responses_allowed_out) {
      return "pass (response)";
    }
    if (c.allow_list_hits > containment_before.allow_list_hits) {
      return "pass (allow-list)";
    }
    return "pass";
  }
  if (s.dns_responses > stats_before.dns_responses) {
    return "proxied";
  }
  if (s.reflections_injected > stats_before.reflections_injected) {
    return "reflected";
  }
  if (s.internal_forwards > stats_before.internal_forwards) {
    return "internal";
  }
  if (c.dropped > containment_before.dropped) {
    return "dropped";
  }
  return "-";
}

void Run(int, char**) {
  std::printf("=== T2: containment policy action matrix (observed) ===\n");
  std::printf("gateway config: DNS proxy on, allow-list={tcp/25}\n\n");

  const auto classes = MakeClasses();
  Table table({"outbound traffic class", "open", "drop-all", "reflect"});
  uint64_t reflected = 0;
  uint64_t dropped = 0;
  for (const auto& cls : classes) {
    const std::string open = Observe(cls, OutboundMode::kOpen);
    const std::string drop = Observe(cls, OutboundMode::kDropAll);
    const std::string reflect = Observe(cls, OutboundMode::kReflect);
    reflected += reflect == "reflected" ? 1 : 0;
    dropped += drop == "dropped" ? 1 : 0;
    table.AddRow({cls.name, open, drop, reflect});
  }
  std::printf("%s\n", table.ToAscii().c_str());
  std::printf("invariants: responses and allow-listed ports pass under every "
              "policy; DNS is answered internally; farm-internal traffic never "
              "reaches the containment decision; initiated traffic is the only "
              "class whose fate differs across policies.\n");

  BenchReport report("containment_matrix");
  report.Add("traffic_classes", static_cast<double>(classes.size()), "classes",
             Better::kLower, Kind::kDeterministic);
  report.Add("classes_reflected_under_reflect", static_cast<double>(reflected),
             "classes", Better::kLower, Kind::kDeterministic);
  report.Add("classes_dropped_under_drop_all", static_cast<double>(dropped),
             "classes", Better::kLower, Kind::kDeterministic);
  report.WriteJson();
}

}  // namespace
}  // namespace potemkin

int main(int argc, char** argv) {
  potemkin::Run(argc, argv);
  return 0;
}
