// Experiment F2 — Per-clone private memory growth (delta virtualization).
//
// After a flash clone, a VM's memory cost is only the pages it dirties while
// serving traffic. This bench drives live clones with increasing numbers of
// requests and reports the private-page delta distribution over time: deltas are a
// few per cent of the image and plateau as guests reuse their working sets — the
// paper's justification for packing hundreds of VMs per host.
#include <cstdio>

#include "src/analysis/cdf.h"
#include "bench/report.h"
#include "src/base/flags.h"
#include "src/base/strings.h"
#include "src/base/table.h"
#include "src/core/honeyfarm.h"

namespace potemkin {
namespace {

Packet Probe(Ipv4Address dst, uint16_t port, const char* payload_text,
             uint16_t sport) {
  PacketSpec spec;
  spec.src_mac = MacAddress::FromId(77);
  spec.dst_mac = MacAddress::FromId(1);
  spec.src_ip = Ipv4Address(198, 51, 100, 9);
  spec.dst_ip = dst;
  spec.proto = IpProto::kTcp;
  spec.src_port = sport;
  spec.dst_port = port;
  spec.tcp_flags = TcpFlags::kPsh | TcpFlags::kAck;
  for (const char* p = payload_text; *p; ++p) {
    spec.payload.push_back(static_cast<uint8_t>(*p));
  }
  return BuildPacket(spec);
}

void Run(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const uint32_t vms = static_cast<uint32_t>(flags.GetUint("vms", 32));
  const uint32_t image_pages = static_cast<uint32_t>(flags.GetUint("image-pages", 8192));
  const std::vector<int> request_steps = {0, 1, 5, 20, 100, 500};

  const Ipv4Prefix prefix(Ipv4Address(10, 1, 0, 0), 20);
  HoneyfarmConfig config =
      MakeDefaultFarmConfig(prefix, /*num_hosts=*/2, /*host_memory_mb=*/2048,
                            ContentMode::kStoreBytes);
  config.server_template.image.num_pages = image_pages;
  config.server_template.engine.latency = CloneLatencyModel::Optimized();
  config.server_template.engine.control_plane_workers = 8;
  config.gateway.recycle.idle_timeout = Duration::Hours(10);  // no recycling here
  config.gateway.recycle.max_lifetime = Duration::Zero();

  Honeyfarm farm(config);
  farm.Start();

  std::printf("=== F2: per-clone private memory growth ===\n");
  std::printf("%u clones of a %s image; request bursts to SMB/HTTP services\n\n", vms,
              HumanBytes(static_cast<uint64_t>(image_pages) * kPageSize).c_str());

  // Create all VMs with one SYN each.
  for (uint32_t i = 0; i < vms; ++i) {
    PacketSpec syn;
    syn.src_mac = MacAddress::FromId(77);
    syn.dst_mac = MacAddress::FromId(1);
    syn.src_ip = Ipv4Address(198, 51, 100, 9);
    syn.dst_ip = prefix.AddressAt(i);
    syn.proto = IpProto::kTcp;
    syn.src_port = static_cast<uint16_t>(30000 + i);
    syn.dst_port = 445;
    syn.tcp_flags = TcpFlags::kSyn;
    farm.InjectInbound(BuildPacket(syn));
  }
  farm.RunFor(Duration::Seconds(30.0));

  Table table({"requests served", "mean delta (pages)", "median", "p90",
               "mean delta (MiB)", "% of image"});
  double final_mean_delta_pages = 0;
  int done_requests = 0;
  for (int step : request_steps) {
    // Bring every VM up to `step` requests.
    for (; done_requests < step; ++done_requests) {
      for (uint32_t i = 0; i < vms; ++i) {
        const uint16_t port = (done_requests % 3 == 2) ? 80 : 445;
        farm.InjectInbound(Probe(prefix.AddressAt(i), port, "probe-data-SMB",
                                 static_cast<uint16_t>(30000 + i)));
      }
      farm.RunFor(Duration::Seconds(1.0));
    }
    Cdf deltas;
    for (size_t s = 0; s < farm.server_count(); ++s) {
      farm.server(s).host().ForEachVm([&](VirtualMachine& vm) {
        deltas.Add(static_cast<double>(vm.memory().private_pages()));
      });
    }
    const double mean_pages = deltas.Mean();
    final_mean_delta_pages = mean_pages;
    table.AddRow({StrFormat("%d", step), StrFormat("%.1f", mean_pages),
                  StrFormat("%.0f", deltas.Median()), StrFormat("%.0f", deltas.Quantile(0.9)),
                  StrFormat("%.2f", mean_pages * kPageSize / (1 << 20)),
                  StrFormat("%.2f%%", 100.0 * mean_pages / image_pages)});
  }
  std::printf("%s\n", table.ToAscii().c_str());

  // Aggregate sharing statistics.
  uint64_t shared = 0;
  uint64_t priv = 0;
  for (size_t s = 0; s < farm.server_count(); ++s) {
    farm.server(s).host().ForEachVm([&](VirtualMachine& vm) {
      shared += vm.memory().shared_pages();
      priv += vm.memory().private_pages();
    });
  }
  std::printf("aggregate: %s shared page mappings vs %s private pages "
              "(%.1fx sharing leverage)\n\n",
              WithCommas(shared).c_str(), WithCommas(priv).c_str(),
              priv ? static_cast<double>(shared) / static_cast<double>(priv) : 0.0);
  std::printf("shape check (paper): deltas are a few %% of the image, grow sub-"
              "linearly with traffic and plateau at the guest working set.\n");

  BenchReport report("delta_memory");
  report.Add("mean_delta_pages_final", final_mean_delta_pages, "pages",
             Better::kLower, Kind::kDeterministic);
  report.Add("mean_delta_pct_of_image",
             100.0 * final_mean_delta_pages / image_pages, "%", Better::kLower,
             Kind::kDeterministic);
  report.Add("sharing_leverage",
             priv ? static_cast<double>(shared) / static_cast<double>(priv) : 0.0,
             "x", Better::kHigher, Kind::kDeterministic);
  report.WriteJson();
}

}  // namespace
}  // namespace potemkin

int main(int argc, char** argv) {
  potemkin::Run(argc, argv);
  return 0;
}
