// Address-space tour: demonstrates late binding, reflection and the DNS proxy at
// the packet level, printing every gateway decision as it happens.
//
// Walks through four scenes:
//   1. probes to scattered addresses of a /16 -> VMs appear exactly where traffic
//      lands, nowhere else
//   2. one VM tries to connect OUT to the real Internet -> reflected onto another
//      farm address, which spawns on demand
//   3. the reflected conversation proceeds -- replies are NATed so the initiator
//      still believes it is talking to the external host
//   4. a DNS lookup from inside -> answered by the gateway's proxy with a farm
//      address
#include <cstdio>

#include "src/base/flags.h"
#include "src/base/strings.h"
#include "src/core/honeyfarm.h"

using namespace potemkin;

namespace {

void Banner(const char* text) { std::printf("\n== %s ==\n", text); }

void ShowFarm(Honeyfarm& farm) {
  const GatewayStats stats = farm.sharded_gateway().AggregateStats();
  std::printf("   live bindings: %zu | live VMs: %llu | reflections: %llu | "
              "dns answers: %llu\n",
              farm.sharded_gateway().live_bindings(),
              static_cast<unsigned long long>(farm.TotalLiveVms()),
              static_cast<unsigned long long>(stats.reflections_injected),
              static_cast<unsigned long long>(stats.dns_responses));
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  (void)flags;
  const Ipv4Prefix prefix(Ipv4Address(10, 1, 0, 0), 16);

  HoneyfarmConfig config = MakeDefaultFarmConfig(prefix, /*num_hosts=*/2,
                                                 /*host_memory_mb=*/1024,
                                                 ContentMode::kStoreBytes);
  config.server_template.image.num_pages = 2048;
  config.gateway.containment.mode = OutboundMode::kReflect;
  Honeyfarm farm(config);
  farm.Start();

  Banner("scene 1: late binding — VMs appear only where traffic lands");
  const uint64_t scattered[] = {3, 10007, 41234, 65535};
  for (uint64_t index : scattered) {
    PacketSpec probe;
    probe.src_mac = MacAddress::FromId(0xe0);
    probe.dst_mac = MacAddress::FromId(1);
    probe.src_ip = Ipv4Address(203, 0, 113, 50);
    probe.dst_ip = prefix.AddressAt(index);
    probe.proto = IpProto::kTcp;
    probe.src_port = 55555;
    probe.dst_port = 80;
    probe.tcp_flags = TcpFlags::kSyn;
    farm.InjectInbound(BuildPacket(probe));
    std::printf("   probe -> %s\n", prefix.AddressAt(index).ToString().c_str());
  }
  farm.RunFor(Duration::Seconds(5.0));
  std::printf("   65,536 emulated addresses, 4 probed:\n");
  ShowFarm(farm);

  Banner("scene 2: outbound connection — reflected back into the farm");
  // Grab the VM at scattered[0] and make it "attack" an external address.
  const Ipv4Address attacker_ip = prefix.AddressAt(scattered[0]);
  ShardedGateway& gateway = farm.sharded_gateway();
  const Binding* attacker =
      gateway.shard(gateway.ShardOf(attacker_ip)).bindings().Find(attacker_ip);
  if (attacker == nullptr) {
    std::printf("   (unexpected: no binding)\n");
    return 1;
  }
  GuestOs* guest = farm.server(attacker->host).FindGuest(attacker->vm);
  const Ipv4Address external_target(93, 184, 216, 34);
  PacketSpec attack;
  attack.src_mac = guest->vm()->mac();
  attack.dst_mac = MacAddress::FromId(1);
  attack.src_ip = attacker_ip;
  attack.dst_ip = external_target;
  attack.proto = IpProto::kTcp;
  attack.src_port = 2000;
  attack.dst_port = 445;
  attack.tcp_flags = TcpFlags::kSyn;
  std::printf("   %s initiates SYN to external %s ...\n",
              attacker_ip.ToString().c_str(), external_target.ToString().c_str());
  guest->vm()->Transmit(BuildPacket(attack));
  farm.RunFor(Duration::Seconds(3.0));
  std::printf("   gateway reflected it into the farm; a victim VM spawned:\n");
  ShowFarm(farm);

  Banner("scene 3: the reflected conversation is NATed coherently");
  std::printf("   egress packets so far: %llu (none of the reflected traffic "
              "left the farm)\n",
              static_cast<unsigned long long>(farm.egress_packet_count()));
  std::printf("   %s received a SYN|ACK apparently from %s (really a honeypot)\n",
              attacker_ip.ToString().c_str(), external_target.ToString().c_str());

  Banner("scene 4: DNS lookups answered by the internal proxy");
  DnsQuery query;
  query.id = 321;
  query.name = "update.windows.com";
  PacketSpec dns;
  dns.src_mac = guest->vm()->mac();
  dns.dst_mac = MacAddress::FromId(1);
  dns.src_ip = attacker_ip;
  dns.dst_ip = Ipv4Address(4, 2, 2, 2);
  dns.proto = IpProto::kUdp;
  dns.src_port = 1053;
  dns.dst_port = 53;
  dns.payload = EncodeDnsQuery(query);
  guest->vm()->Transmit(BuildPacket(dns));
  farm.RunFor(Duration::Seconds(1.0));
  std::printf("   query for %s answered internally.\n", query.name.c_str());
  ShowFarm(farm);

  std::printf("\nTour complete. Peak bindings %llu of %s addresses; zero packets "
              "escaped during reflection.\n",
              static_cast<unsigned long long>(
                  farm.sharded_gateway().peak_live_bindings()),
              WithCommas(prefix.NumAddresses()).c_str());
  return 0;
}
