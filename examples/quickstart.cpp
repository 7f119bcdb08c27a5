// Quickstart: the smallest end-to-end Potemkin session.
//
// Builds a honeyfarm emulating a /24, sends one SYN probe from a pretend attacker,
// and narrates what happens: the gateway late-binds the address, flash-clones a VM
// from the reference image in ~0.5s of virtual time, the honeypot answers the
// probe, and the idle VM is recycled moments later.
//
//   ./quickstart [--prefix 10.1.0.0/24] [--port 445]
#include <cstdio>

#include "src/base/flags.h"
#include "src/base/strings.h"
#include "src/core/honeyfarm.h"

using namespace potemkin;

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const Ipv4Prefix prefix =
      Ipv4Prefix::Parse(flags.GetString("prefix", "10.1.0.0/24")).value();
  const uint16_t port = static_cast<uint16_t>(flags.GetUint("port", 445));

  // 1. Configure a small farm: one physical host, real page contents, default
  //    Windows-like services, 5-second recycle timeout so we can watch it happen.
  HoneyfarmConfig config =
      MakeDefaultFarmConfig(prefix, /*num_hosts=*/1, /*host_memory_mb=*/512,
                            ContentMode::kStoreBytes);
  config.server_template.image.num_pages = 4096;  // 16 MiB reference image
  config.gateway.recycle.idle_timeout = Duration::Seconds(5);
  config.gateway.recycle.scan_interval = Duration::Seconds(1);

  Honeyfarm farm(config);
  farm.set_egress_monitor([&](const Packet& packet) {
    const auto view = PacketView::Parse(packet);
    std::printf("[%7.3fs] <- farm sent to Internet: %s\n",
                farm.loop().Now().seconds(), view ? view->Describe().c_str() : "?");
  });
  farm.Start();
  std::printf("Honeyfarm up: emulating %s (%s addresses) on %zu host(s)\n",
              prefix.ToString().c_str(), WithCommas(prefix.NumAddresses()).c_str(),
              farm.server_count());
  std::printf("Reference image: %s, %s\n\n",
              config.server_template.image.name.c_str(),
              HumanBytes(static_cast<uint64_t>(config.server_template.image.num_pages) *
                         kPageSize)
                  .c_str());

  // 2. A probe arrives from the Internet for an address nobody has contacted.
  const Ipv4Address target = prefix.AddressAt(7);
  PacketSpec probe;
  probe.src_mac = MacAddress::FromId(0xbad);
  probe.dst_mac = MacAddress::FromId(1);
  probe.src_ip = Ipv4Address(198, 51, 100, 77);
  probe.dst_ip = target;
  probe.proto = IpProto::kTcp;
  probe.src_port = 51234;
  probe.dst_port = port;
  probe.tcp_flags = TcpFlags::kSyn;
  std::printf("[%7.3fs] -> injecting SYN probe %s:51234 > %s:%u\n",
              farm.loop().Now().seconds(), probe.src_ip.ToString().c_str(),
              target.ToString().c_str(), port);
  farm.InjectInbound(BuildPacket(probe));
  std::printf("[%7.3fs]    gateway: no VM bound to %s yet -> flash clone requested,"
              " packet queued\n",
              farm.loop().Now().seconds(), target.ToString().c_str());

  // 3. Let the clone complete and the honeypot answer.
  farm.RunFor(Duration::Seconds(2.0));
  std::printf("[%7.3fs]    live VMs: %llu, clone completed in %s (virtual)\n",
              farm.loop().Now().seconds(),
              static_cast<unsigned long long>(farm.TotalLiveVms()),
              config.server_template.engine.latency
                  .FlashCloneTotal(config.server_template.image.num_pages)
                  .ToString()
                  .c_str());
  farm.server(0).host().ForEachVm([&](VirtualMachine& vm) {
    std::printf("[%7.3fs]    %s: state=%s ip=%s delta=%u pages (%s) shared=%u pages\n",
                farm.loop().Now().seconds(), vm.name().c_str(),
                VmStateName(vm.state()), vm.ip().ToString().c_str(),
                vm.memory().private_pages(),
                HumanBytes(vm.memory().private_bytes()).c_str(),
                vm.memory().shared_pages());
  });

  // 4. Idle out and watch the recycler reclaim the VM.
  farm.RunFor(Duration::Seconds(10.0));
  const GatewayStats stats = farm.sharded_gateway().AggregateStats();
  std::printf("[%7.3fs]    after idle timeout: live VMs = %llu, recycled = %llu\n",
              farm.loop().Now().seconds(),
              static_cast<unsigned long long>(farm.TotalLiveVms()),
              static_cast<unsigned long long>(stats.vms_retired));

  std::printf("\nGateway summary: %llu inbound, %llu delivered, %llu clones, "
              "%llu egress\n",
              static_cast<unsigned long long>(stats.inbound_packets),
              static_cast<unsigned long long>(stats.inbound_delivered),
              static_cast<unsigned long long>(stats.clones_triggered),
              static_cast<unsigned long long>(stats.egress_packets));
  return 0;
}
