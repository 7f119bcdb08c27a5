// Experiment F3 — Aggregate memory vs number of concurrent VMs.
//
// Delta virtualization vs the full-copy baseline on one host: clone VMs (each
// serving a burst of requests, so deltas are realistic rather than zero) until
// admission control refuses, recording aggregate machine-memory use along the way.
// The paper packed ~100 VMs into a 2 GB host and projected ~1500 from measured
// deltas; the reproduction shows the same ~order-of-magnitude gap between modes.
#include <cstdio>

#include "bench/report.h"
#include "src/base/flags.h"
#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/base/table.h"
#include "src/guest/guest_os.h"
#include "src/hv/physical_host.h"

namespace potemkin {
namespace {

struct ScalePoint {
  uint64_t vms;
  uint64_t used_mb;
};

struct ScaleResult {
  std::vector<ScalePoint> curve;
  uint64_t max_vms = 0;
  double marginal_kb_per_vm = 0;
};

Packet ServiceRequest(Ipv4Address dst, uint32_t salt) {
  PacketSpec spec;
  spec.src_mac = MacAddress::FromId(9);
  spec.dst_mac = MacAddress::FromId(2);
  spec.src_ip = Ipv4Address(198, 51, 100, 1);
  spec.dst_ip = dst;
  spec.proto = IpProto::kTcp;
  spec.src_port = static_cast<uint16_t>(20000 + salt % 1000);
  spec.dst_port = 445;
  spec.tcp_flags = TcpFlags::kPsh | TcpFlags::kAck;
  spec.payload = {'S', 'M', 'B', static_cast<uint8_t>(salt)};
  return BuildPacket(spec);
}

ScaleResult RunMode(CloneKind kind, uint64_t host_mb, uint32_t image_pages,
                    int requests_per_vm) {
  PhysicalHostConfig host_config;
  host_config.memory_mb = host_mb;
  host_config.content_mode = ContentMode::kMetadataOnly;
  PhysicalHost host(host_config);
  ReferenceImageConfig image_config;
  image_config.num_pages = image_pages;
  const ImageId image = host.RegisterImage(image_config);

  GuestOsConfig guest_config;
  guest_config.services = DefaultWindowsServices();

  ScaleResult result;
  Rng rng(17);
  std::vector<std::unique_ptr<GuestOs>> guests;
  uint64_t count = 0;
  const Ipv4Prefix prefix(Ipv4Address(10, 1, 0, 0), 16);
  while (true) {
    VirtualMachine* vm = host.CreateClone(image, kind, "vm");
    if (vm == nullptr) {
      break;
    }
    vm->BindAddress(prefix.AddressAt(count), MacAddress::FromId(count));
    vm->set_state(VmState::kRunning);
    auto guest = std::make_unique<GuestOs>(vm, guest_config, rng.Fork(count));
    for (int r = 0; r < requests_per_vm; ++r) {
      guest->HandleFrame(ServiceRequest(vm->ip(), static_cast<uint32_t>(r)),
                         TimePoint());
    }
    guests.push_back(std::move(guest));
    ++count;
    if ((count & (count - 1)) == 0 || count % 64 == 0) {  // log2-ish samples
      result.curve.push_back({count, host.allocator().used_bytes() >> 20});
    }
  }
  result.max_vms = count;
  if (result.curve.size() >= 2) {
    const auto& a = result.curve[result.curve.size() / 2];
    const auto& b = result.curve.back();
    if (b.vms > a.vms) {
      result.marginal_kb_per_vm = static_cast<double>((b.used_mb - a.used_mb) << 10) /
                                  static_cast<double>(b.vms - a.vms);
    }
  }
  result.curve.push_back({count, host.allocator().used_bytes() >> 20});
  return result;
}

void Run(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const uint32_t image_pages = static_cast<uint32_t>(flags.GetUint("image-pages", 8192));
  const int requests = static_cast<int>(flags.GetInt("requests-per-vm", 10));

  std::printf("=== F3: aggregate memory vs concurrent VMs (one host) ===\n");
  std::printf("image: %s; each VM serves %d requests before the next clone\n\n",
              HumanBytes(static_cast<uint64_t>(image_pages) * kPageSize).c_str(),
              requests);

  Table table({"host memory", "mode", "max VMs", "used at cap (MiB)",
               "marginal cost (KiB/VM)"});
  BenchReport report("memory_scaling");
  for (uint64_t host_mb : {512ull, 2048ull}) {
    for (CloneKind kind : {CloneKind::kFlash, CloneKind::kFullCopy}) {
      const ScaleResult r = RunMode(kind, host_mb, image_pages, requests);
      table.AddRow({HumanBytes(host_mb << 20), CloneKindName(kind),
                    WithCommas(r.max_vms),
                    WithCommas(r.curve.back().used_mb),
                    StrFormat("%.0f", r.marginal_kb_per_vm)});
      report.Add(StrFormat("max_vms_%llumb_%s",
                           static_cast<unsigned long long>(host_mb),
                           kind == CloneKind::kFlash ? "flash" : "fullcopy"),
                 static_cast<double>(r.max_vms), "vms",
                 Better::kHigher, Kind::kDeterministic);
    }
  }
  std::printf("%s\n", table.ToAscii().c_str());

  // Detailed growth curve on the 2 GiB host.
  const ScaleResult flash = RunMode(CloneKind::kFlash, 2048, image_pages, requests);
  const ScaleResult full = RunMode(CloneKind::kFullCopy, 2048, image_pages, requests);
  std::printf("memory growth on 2 GiB host (CSV):\nvms,flash_mib,fullcopy_mib\n");
  size_t fi = 0;
  for (const auto& point : flash.curve) {
    while (fi + 1 < full.curve.size() && full.curve[fi + 1].vms <= point.vms) {
      ++fi;
    }
    std::printf("%llu,%llu,%s\n", static_cast<unsigned long long>(point.vms),
                static_cast<unsigned long long>(point.used_mb),
                point.vms <= full.max_vms
                    ? StrFormat("%llu",
                                static_cast<unsigned long long>(full.curve[fi].used_mb))
                          .c_str()
                    : "");
  }
  std::printf("\nshape check (paper): delta virtualization fits roughly an order of "
              "magnitude more VMs per host than full copying; marginal per-VM cost "
              "is the working-set delta plus fixed overhead, not the image size.\n");

  report.Add("marginal_kb_per_vm_flash_2048mb", flash.marginal_kb_per_vm, "KiB",
             Better::kLower, Kind::kDeterministic);
  report.WriteJson();
}

}  // namespace
}  // namespace potemkin

int main(int argc, char** argv) {
  potemkin::Run(argc, argv);
  return 0;
}
