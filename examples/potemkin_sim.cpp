// potemkin_sim — the full honeyfarm as one configurable command.
//
// Composes everything in the library: synthetic telescope traffic, optional worm
// outbreaks, any containment policy, strict or permissive guests, scanner
// filtering, forensics and GRE delivery; then prints a complete operations
// report. Examples:
//
//   ./potemkin_sim                                   # 10 min on a /18, reflect
//   ./potemkin_sim --prefix 10.1.0.0/16 --hosts 16 --minutes 30 --pps 120
//   ./potemkin_sim --worm blaster --policy reflect --strict-tcp
//   ./potemkin_sim --policy drop --worm slammer --forensics /tmp --timeout-s 20
#include <cstdio>

#include "src/analysis/series_util.h"
#include "src/base/flags.h"
#include "src/base/strings.h"
#include "src/base/table.h"
#include "src/core/honeyfarm.h"
#include "src/malware/radiation.h"

using namespace potemkin;

namespace {

const char* Usage() {
  return
      "potemkin_sim — drive a full Potemkin honeyfarm simulation\n"
      "  --prefix P       emulated prefix (default 10.1.0.0/18)\n"
      "  --hosts N        physical hosts (default 8)\n"
      "  --host-mb M      memory per host in MiB (default 2048)\n"
      "  --image-pages N  reference image size in 4K pages (default 8192)\n"
      "  --minutes T      virtual duration (default 10)\n"
      "  --pps R          mean radiation rate (default 50)\n"
      "  --policy X       open | drop | reflect (default reflect)\n"
      "  --timeout-s T    VM recycle idle timeout (default 5)\n"
      "  --worm W         none | slammer | blaster | codered (default none)\n"
      "  --scan-rate R    worm scans/sec per instance (default 2)\n"
      "  --strict-tcp     run guests with the real TCP server stack\n"
      "  --filter-scanners  shed load from flagged scanners\n"
      "  --optimized-cp   optimized clone control plane (42ms vs 520ms)\n"
      "  --workers N      control-plane workers per host (default 4)\n"
      "  --shards N       gateway shards, power of two (default 1)\n"
      "  --forensics DIR  snapshot infected VMs at recycle time\n"
      "  --gre            deliver traffic via GRE tunnel termination\n"
      "  --seed S         experiment seed (default 42)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  if (flags.Has("help")) {
    std::printf("%s", Usage());
    return 0;
  }
  const auto prefix_opt = Ipv4Prefix::Parse(flags.GetString("prefix", "10.1.0.0/18"));
  if (!prefix_opt) {
    std::printf("bad --prefix\n%s", Usage());
    return 1;
  }
  const Ipv4Prefix prefix = *prefix_opt;
  const double minutes = flags.GetDouble("minutes", 10.0);
  const std::string policy = flags.GetString("policy", "reflect");
  const std::string worm_name = flags.GetString("worm", "none");
  const uint64_t seed = flags.GetUint("seed", 42);

  // ---- Farm configuration ----
  HoneyfarmConfig config = MakeDefaultFarmConfig(
      prefix, static_cast<uint32_t>(flags.GetUint("hosts", 8)),
      flags.GetUint("host-mb", 2048), ContentMode::kMetadataOnly);
  config.seed = seed;
  config.server_template.image.num_pages =
      static_cast<uint32_t>(flags.GetUint("image-pages", 8192));
  config.server_template.guest.strict_tcp = flags.GetBool("strict-tcp", false);
  if (flags.GetBool("optimized-cp", false)) {
    config.server_template.engine.latency = CloneLatencyModel::Optimized();
  }
  config.server_template.engine.control_plane_workers =
      static_cast<int>(flags.GetInt("workers", 4));
  config.server_template.forensics_dir = flags.GetString("forensics", "");
  config.gateway.containment.mode = policy == "open"   ? OutboundMode::kOpen
                                    : policy == "drop" ? OutboundMode::kDropAll
                                                       : OutboundMode::kReflect;
  config.gateway.filter_known_scanners = flags.GetBool("filter-scanners", false);
  config.gateway.recycle.idle_timeout =
      Duration::Seconds(flags.GetDouble("timeout-s", 5.0));
  config.gateway.recycle.infected_hold = Duration::Minutes(10);
  config.gateway.recycle.max_lifetime = Duration::Zero();
  // Gateway shards (power of two). The default of 1 keeps stdout independent
  // of the host; any explicit count gives the same output on every host.
  config.gateway_shards = static_cast<uint32_t>(flags.GetUint("shards", 1));

  Honeyfarm farm(config);
  if (config.gateway_shards > 1) {
    std::printf("(gateway partitioned across %u shards)\n", config.gateway_shards);
  }
  farm.Start(/*sample_interval=*/Duration::Seconds(10));

  // ---- Workload: radiation ----
  RadiationConfig radiation;
  radiation.telescope = prefix;
  radiation.duration = Duration::Minutes(minutes);
  radiation.mean_pps = flags.GetDouble("pps", 50.0);
  radiation.seed = seed + 1;
  const auto trace = RadiationGenerator(radiation).GenerateAll();

  std::unique_ptr<GreTunnel> router;
  if (flags.GetBool("gre", false)) {
    const Ipv4Address gateway_ip(192, 0, 2, 2);
    const Ipv4Address router_ip(192, 0, 2, 1);
    farm.EnableGreTermination(gateway_ip, router_ip, 1);
    router = std::make_unique<GreTunnel>(router_ip, gateway_ip, 1);
    for (const auto& record : trace) {
      farm.loop().ScheduleAt(record.time, [&farm, &router, record]() {
        farm.InjectTunneled(router->Send(PacketFromRecord(
            record, MacAddress::FromId(record.src.value()), MacAddress::FromId(1))));
      });
    }
  } else {
    farm.ScheduleTrace(trace);
  }

  // ---- Workload: worm ----
  std::unique_ptr<WormRuntime> worm;
  if (worm_name != "none") {
    const Ipv4Prefix internet(Ipv4Address(0, 0, 0, 0), 0);
    WormConfig worm_config = worm_name == "blaster"   ? BlasterLikeWorm(internet)
                             : worm_name == "codered" ? CodeRedLikeWorm(internet)
                                                      : SlammerLikeWorm(internet);
    worm_config.scan_rate_pps = flags.GetDouble("scan-rate", 2.0);
    worm = std::make_unique<WormRuntime>(&farm.loop(), worm_config, seed + 2);
    farm.AttachWorm(worm.get());
    // Outbreak begins one tenth into the run. TCP worms are seeded with a full
    // attacker handshake so strict-TCP guests accept the exploit too.
    farm.loop().ScheduleAfter(Duration::Minutes(minutes / 10.0), [&]() {
      const Ipv4Address attacker(198, 51, 100, 66);
      if (worm->config().proto == IpProto::kTcp) {
        farm.SeedWormViaHandshake(*worm, attacker, prefix.AddressAt(1));
      } else {
        farm.SeedWorm(*worm, attacker, prefix.AddressAt(1));
        farm.SeedWorm(*worm, attacker, prefix.AddressAt(1));
      }
    });
  }

  std::printf("potemkin_sim: %s | %u hosts x %s | policy=%s | %zu trace packets | "
              "worm=%s%s%s\n\n",
              prefix.ToString().c_str(), config.num_hosts,
              HumanBytes(flags.GetUint("host-mb", 2048) << 20).c_str(),
              policy.c_str(), trace.size(), worm_name.c_str(),
              config.server_template.guest.strict_tcp ? " | strict-tcp" : "",
              flags.GetBool("gre", false) ? " | via GRE" : "");

  // ---- Run, narrating ----
  const int ticks = 10;
  for (int t = 1; t <= ticks; ++t) {
    farm.RunUntil(TimePoint() + Duration::Minutes(minutes * t / ticks));
    const FarmSample sample = farm.SampleNow();
    std::printf("[%5.1f min] vms=%-6llu bindings=%-6llu delta=%-8s infected=%-5llu "
                "cpu=%.1f%%\n",
                sample.time.seconds() / 60.0,
                static_cast<unsigned long long>(sample.live_vms),
                static_cast<unsigned long long>(sample.live_bindings),
                HumanBytes(sample.private_pages * kPageSize).c_str(),
                static_cast<unsigned long long>(sample.infections),
                sample.mean_cpu_utilization * 100.0);
  }

  // ---- Report ----
  const GatewayStats g = farm.sharded_gateway().AggregateStats();
  const ContainmentStats c = farm.sharded_gateway().AggregateContainmentStats();
  std::printf("\n---- gateway ----\n");
  Table gw({"metric", "count"});
  gw.AddRow({"inbound packets", WithCommas(g.inbound_packets)});
  gw.AddRow({"delivered to VMs", WithCommas(g.inbound_delivered)});
  gw.AddRow({"clones triggered", WithCommas(g.clones_triggered)});
  gw.AddRow({"VMs recycled", WithCommas(g.vms_retired)});
  gw.AddRow({"queued during cloning", WithCommas(g.inbound_queued)});
  gw.AddRow({"no-capacity drops", WithCommas(g.no_capacity_drops)});
  gw.AddRow({"filtered scanner packets", WithCommas(g.inbound_filtered_scanners)});
  gw.AddRow({"outbound packets", WithCommas(g.outbound_packets)});
  gw.AddRow({"responses allowed out", WithCommas(g.responses_allowed_out)});
  gw.AddRow({"reflections", WithCommas(g.reflections_injected)});
  gw.AddRow({"DNS answered internally", WithCommas(g.dns_responses)});
  gw.AddRow({"ICMP errors allowed out", WithCommas(g.icmp_errors_allowed_out)});
  gw.AddRow({"TTL-expired drops", WithCommas(g.ttl_expired_drops)});
  gw.AddRow({"emergency reclaims", WithCommas(g.emergency_reclaims)});
  gw.AddRow({"egress packets (total)", WithCommas(g.egress_packets)});
  gw.AddRow({"ESCAPES from infected VMs", WithCommas(c.escapes_from_infected)});
  std::printf("%s", gw.ToAscii().c_str());

  std::printf("\n---- farm ----\n");
  const FarmSample final_sample = farm.SampleNow();
  const uint64_t peak_bindings = farm.sharded_gateway().peak_live_bindings();
  std::printf("peak bindings: %s of %s addresses (%.0fx reduction)\n",
              WithCommas(peak_bindings).c_str(),
              WithCommas(prefix.NumAddresses()).c_str(),
              static_cast<double>(prefix.NumAddresses()) /
                  std::max<uint64_t>(1, peak_bindings));
  std::printf("clones completed: %s | scanners flagged: %s\n",
              WithCommas(farm.total_clones_completed()).c_str(),
              WithCommas(farm.sharded_gateway().scanners_flagged()).c_str());
  std::printf("memory in use: %s | per-VM delta mean: %s | cpu: %.1f%%\n",
              HumanBytes(final_sample.used_frames * kPageSize).c_str(),
              final_sample.live_vms
                  ? HumanBytes(final_sample.private_pages * kPageSize /
                               final_sample.live_vms)
                        .c_str()
                  : "-",
              final_sample.mean_cpu_utilization * 100.0);

  if (worm) {
    std::printf("\n---- outbreak ----\n");
    std::printf("infections: %llu | scans captured: %s | handshakes: %s\n",
                static_cast<unsigned long long>(farm.epidemic().total_infections()),
                WithCommas(worm->stats().scans_sent).c_str(),
                WithCommas(worm->stats().handshakes_completed).c_str());
    TimeSeries curve = farm.epidemic().CumulativeSeries();
    std::printf("epidemic     |%s|\n",
                Sparkline(curve, 50, TimePoint() + Duration::Minutes(minutes))
                    .c_str());
    std::printf("containment verdict: %s\n",
                c.escapes_from_infected == 0 ? "CONTAINED (zero escapes)"
                                             : "ESCAPED — check policy!");
  }
  if (!config.server_template.forensics_dir.empty()) {
    uint64_t snaps = 0;
    for (size_t s = 0; s < farm.server_count(); ++s) {
      snaps += farm.server(s).snapshots_written();
    }
    std::printf("forensic snapshots written: %llu -> %s\n",
                static_cast<unsigned long long>(snaps),
                config.server_template.forensics_dir.c_str());
  }
  return 0;
}
