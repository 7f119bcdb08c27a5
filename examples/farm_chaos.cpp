// Containment under failure: a worm outbreak with the control plane flying the
// farm while the chaos harness tears pieces out of it.
//
//   ./farm_chaos [--minutes 2] [--seed 7] [--faults 4] [--hosts 4] [--shards N]
//                [--policy open|drop|reflect] [--out DIR] [--scan-rate PPS]
//                [--prefix-bits N]
//
// A Blaster-like worm propagates through reflection while seeded faults land
// on the live farm: backends crash mid-outbreak, hosts slow down, allocators
// refuse frames, the shard fabric partitions. The controller drains, fails
// over, and revives; the harness asserts the containment invariants at 1 Hz
// the whole time. The run is deterministic — same seed, same fault schedule,
// same ledger — so CI replays it twice and diffs the artifacts.
//
// With --out DIR the full event ledger (ledger.jsonl) and the machine-readable
// chaos verdict (chaos_report.json) land in DIR. Exit status is 0 only for a
// clean run: zero invariant violations and zero containment escapes; 2 when
// an artifact cannot be written.
#include <cstdio>
#include <string>

#include "src/base/flags.h"
#include "src/base/json_util.h"
#include "src/core/honeyfarm.h"
#include "src/ctrl/chaos.h"
#include "src/ctrl/controller.h"
#include "src/malware/worm.h"

using namespace potemkin;

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const double minutes = flags.GetDouble("minutes", 2.0);
  const uint64_t seed = flags.GetUint("seed", 7);
  const size_t faults = flags.GetUint("faults", 4);
  const uint32_t hosts = static_cast<uint32_t>(flags.GetUint("hosts", 4));
  const std::string policy = flags.GetString("policy", "reflect");
  const std::string out_dir = flags.GetString("out", "");
  // Telescope size: /22 (1024 addresses) models a real outbreak; CI smoke
  // runs a /24 so the whole run fits the ledger ring for byte-comparison.
  const uint8_t prefix_bits =
      static_cast<uint8_t>(flags.GetUint("prefix-bits", 22));

  OutboundMode mode = OutboundMode::kReflect;
  if (policy == "open") {
    mode = OutboundMode::kOpen;
  } else if (policy == "drop") {
    mode = OutboundMode::kDropAll;
  }

  const Ipv4Prefix prefix(Ipv4Address(10, 1, 0, 0), prefix_bits);
  HoneyfarmConfig config = MakeDefaultFarmConfig(prefix, hosts,
                                                 /*host_memory_mb=*/1024,
                                                 ContentMode::kMetadataOnly);
  config.server_template.image.num_pages = 2048;
  config.server_template.engine.latency = CloneLatencyModel::Optimized();
  config.gateway.containment.mode = mode;
  config.gateway.placement = PlacementKind::kScored;
  config.gateway.recycle.idle_timeout = Duration::Minutes(10);
  config.gateway.recycle.infected_hold = Duration::Minutes(30);
  config.gateway_shards = static_cast<uint32_t>(flags.GetUint("shards", 2));
  // CI passes --ledger-bits 20 so the whole smoke run survives the ring and
  // the two replays can be byte-compared without eviction artifacts.
  config.ledger_capacity = 1u << flags.GetUint("ledger-bits", 18);

  Honeyfarm farm(config);

  ControllerConfig ctrl_config;
  ctrl_config.tick = Duration::Millis(500);
  ctrl_config.drain.deadline = Duration::Seconds(10);
  ctrl_config.warmup = Duration::Seconds(2);
  ctrl_config.rotation_interval = Duration::Seconds(45);
  Controller controller(&farm, ctrl_config);

  const Ipv4Prefix internet(Ipv4Address(0, 0, 0, 0), 0);
  WormConfig worm_config = BlasterLikeWorm(internet);
  worm_config.scan_rate_pps = flags.GetDouble("scan-rate", 10.0);
  WormRuntime worm(&farm.loop(), worm_config, 4);
  farm.AttachWorm(&worm);
  farm.Start();
  controller.Start();

  ChaosConfig chaos_config;
  chaos_config.seed = seed;
  chaos_config.horizon = Duration::Minutes(minutes * 0.8);  // heals fit the run
  chaos_config.num_faults = faults;
  ChaosHarness harness(&farm, &controller, chaos_config);
  const std::vector<ChaosEvent> plan = harness.GeneratePlan();
  std::printf("Farm: %s across %u hosts, %u gateway shard(s); policy %s\n",
              prefix.ToString().c_str(), hosts, config.gateway_shards,
              OutboundModeName(mode));
  std::printf("Chaos plan (seed %llu):\n",
              static_cast<unsigned long long>(seed));
  for (const ChaosEvent& event : plan) {
    std::printf("  t=%5.1fs %-18s target=%-6u for %.1fs\n", event.at.seconds(),
                ChaosFaultName(event.fault), event.target,
                event.duration.seconds());
  }
  harness.Arm(plan);

  std::printf("\nReleasing %s under chaos...\n\n", worm_config.name.c_str());
  farm.SeedWorm(worm, Ipv4Address(198, 51, 100, 66), prefix.AddressAt(1));

  const Duration tick = Duration::Seconds(15);
  for (TimePoint t = TimePoint() + tick;
       t <= TimePoint() + Duration::Minutes(minutes); t += tick) {
    farm.RunUntil(t);
    const ChaosReport report = harness.report();
    const BackendPool& pool = controller.pool();
    std::printf(
        "[%5.0fs] infected=%-4llu vms=%-5llu active=%zu draining=%zu down=%zu "
        "faults=%llu/%zu violations=%llu\n",
        t.seconds(),
        static_cast<unsigned long long>(farm.epidemic().total_infections()),
        static_cast<unsigned long long>(farm.TotalLiveVms()),
        pool.CountInState(BackendState::kActive),
        pool.CountInState(BackendState::kDraining),
        pool.CountInState(BackendState::kDown),
        static_cast<unsigned long long>(report.faults_injected), plan.size(),
        static_cast<unsigned long long>(report.violations));
  }

  const ChaosReport report = harness.report();
  const Controller::Stats& stats = controller.stats();
  const uint64_t escapes =
      farm.sharded_gateway().AggregateContainmentStats().escapes_from_infected;

  std::printf("\n--- chaos post-mortem ---\n");
  std::printf("faults injected:  %llu (healed %llu)\n",
              static_cast<unsigned long long>(report.faults_injected),
              static_cast<unsigned long long>(report.heals));
  std::printf("invariant checks: %llu, violations %llu\n",
              static_cast<unsigned long long>(report.checks),
              static_cast<unsigned long long>(report.violations));
  std::printf("controller:       %llu failovers, %llu drains, %llu migrations, "
              "%llu rotations\n",
              static_cast<unsigned long long>(stats.failovers),
              static_cast<unsigned long long>(stats.drains_started),
              static_cast<unsigned long long>(stats.migrations),
              static_cast<unsigned long long>(stats.rotations));
  std::printf("partition drops:  %llu\n",
              static_cast<unsigned long long>(report.partition_drops));

  const bool contained = report.violations == 0 &&
                         (mode == OutboundMode::kOpen || escapes == 0);
  std::printf("\nverdict: %llu escape(s), %llu violation(s) (%s)\n",
              static_cast<unsigned long long>(escapes),
              static_cast<unsigned long long>(report.violations),
              contained ? "CONTAINED" : "ESCAPED");

  if (!out_dir.empty()) {
    const std::string ledger_path = out_dir + "/ledger.jsonl";
    const std::string report_path = out_dir + "/chaos_report.json";
    std::string json = "{\"schema_version\":1";
    auto field = [&json](const char* key, uint64_t value) {
      json += ",\"";
      json += key;
      json += "\":";
      AppendJsonInt(json, value);
    };
    field("seed", seed);
    field("faults_injected", report.faults_injected);
    field("heals", report.heals);
    field("checks", report.checks);
    field("violations", report.violations);
    field("containment_escapes", escapes);
    field("bindings_on_down_hosts", report.bindings_on_down_hosts);
    field("nat_misplaced", report.nat_misplaced);
    field("partition_drops", report.partition_drops);
    field("failovers", stats.failovers);
    field("drains_started", stats.drains_started);
    field("drains_completed", stats.drains_completed);
    field("migrations", stats.migrations);
    field("rotations", stats.rotations);
    json += contained ? ",\"contained\":true}\n" : ",\"contained\":false}\n";
    if (!farm.ledger().WriteJsonLines(ledger_path)) {
      std::fprintf(stderr, "farm_chaos: cannot write %s\n",
                   ledger_path.c_str());
      return 2;
    }
    if (!WriteStringToFile(report_path, json)) {
      std::fprintf(stderr, "farm_chaos: cannot write %s\n",
                   report_path.c_str());
      return 2;
    }
    std::printf("artifacts: %s, %s\n", ledger_path.c_str(),
                report_path.c_str());
  }
  return contained ? 0 : 1;
}
