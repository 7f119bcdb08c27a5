// Soak run — long-window telescope replay with the percentile telemetry stack
// on, asserting the two properties a honeyfarm must hold over hours, not
// milliseconds: memory stays bounded (the ring-buffered exporter, recycler and
// CoW pools do not leak) and tail latency stays flat (the gateway's datapath
// p99 in the second half of the run is no worse than the first half).
//
// The run replays RadiationGenerator background radiation (diurnal cycle,
// Pareto sources, sequential sweepers) against a sharded farm for --minutes of
// *virtual* time, with the watchdog evaluating percentile rules every 5 s and
// the TelemetryExporter streaming one JSONL sample per --interval-ms to
// --series-out. Everything in the series is virtual-time deterministic: two
// runs with the same seed produce byte-identical series files (CI `cmp`s
// them). Wall-clock facts — RSS at the midpoint and end, elapsed real time —
// go only into the BENCH_soak.json report, in wallclock rows CI gates wide.
//
//   ./bench_soak [--minutes=30] [--seed=21] [--shards=2] [--hosts=4]
//                [--pps=40] [--interval-ms=1000] [--series-out=PATH]
//                [--check] [--no-bench]
//
//   --check     assert bounded RSS (final <= 1.15x midpoint + 48 MB) and flat
//               p99 (second-half p99 <= 2x first-half p99 + 1 ms), print
//               "SOAK OK" / "SOAK FAIL", exit 1 on failure
//   --no-bench  skip the BENCH_soak.json report (CI's determinism replay uses
//               this so run B does not clobber run A's report)
//
// Exit status: 0 ok, 1 soak assertion failed, 2 usage error.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/report.h"
#include "src/base/flags.h"
#include "src/base/strings.h"
#include "src/core/honeyfarm.h"
#include "src/malware/radiation.h"
#include "src/obs/metric_registry.h"
#include "src/obs/telemetry_exporter.h"

namespace potemkin {
namespace {

// Resident set size in MB from /proc/self/status, 0.0 when unavailable (the
// soak checks then skip the RSS assertion rather than fail on exotic hosts).
double RssMb() {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) {
    return 0.0;
  }
  double kb = 0.0;
  char line[256];
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(file);
  return kb / 1024.0;
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: bench_soak [--minutes=30] [--seed=21] [--shards=2] "
               "[--hosts=4]\n"
               "                  [--pps=40] [--interval-ms=1000] "
               "[--series-out=PATH] [--check] [--no-bench]\n");
}

int Run(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  for (const std::string& name : flags.Names()) {
    if (name != "minutes" && name != "seed" && name != "shards" &&
        name != "hosts" && name != "pps" && name != "interval-ms" &&
        name != "series-out" && name != "check" && name != "bench") {
      std::fprintf(stderr, "bench_soak: unknown flag --%s\n", name.c_str());
      PrintUsage();
      return 2;
    }
  }
  const double minutes = flags.GetDouble("minutes", 30.0);
  const uint64_t seed = flags.GetUint("seed", 21);
  const uint32_t shards = static_cast<uint32_t>(flags.GetUint("shards", 2));
  const size_t hosts = flags.GetUint("hosts", 4);
  const double pps = flags.GetDouble("pps", 40.0);
  const int64_t interval_ms =
      static_cast<int64_t>(flags.GetUint("interval-ms", 1000));
  const std::string series_out = flags.GetString("series-out", "");

  const auto wall_start = std::chrono::steady_clock::now();

  // Telescope-shaped workload: background radiation over a /20, diurnal cycle
  // compressed into the run so both rising and falling load appear.
  const Ipv4Prefix prefix(Ipv4Address(10, 1, 0, 0), 20);
  RadiationConfig radiation;
  radiation.telescope = prefix;
  radiation.duration = Duration::Minutes(minutes);
  radiation.mean_pps = pps;
  radiation.diurnal_period = Duration::Minutes(std::max(1.0, minutes / 2.0));
  radiation.seed = static_cast<uint32_t>(seed);
  RadiationGenerator generator(radiation);
  const std::vector<TraceRecord> trace = generator.GenerateAll();
  if (trace.empty()) {
    std::fprintf(stderr, "bench_soak: empty trace (--minutes too small?)\n");
    return 2;
  }

  HoneyfarmConfig config =
      MakeDefaultFarmConfig(prefix, hosts, /*host_memory_mb=*/2048,
                            ContentMode::kMetadataOnly);
  config.server_template.engine.latency = CloneLatencyModel::Optimized();
  config.gateway.recycle.idle_timeout = Duration::Seconds(5);
  config.gateway.recycle.scan_interval = Duration::Seconds(1);
  config.gateway_shards = shards;

  Honeyfarm farm(config);
  farm.Start();
  farm.StartWatchdog(Duration::Seconds(5));

  TelemetryExporterConfig telemetry;
  telemetry.interval = Duration::Millis(interval_ms);
  telemetry.source = "bench_soak";
  TelemetryExporter& exporter = farm.StartTelemetry(telemetry);

  std::FILE* series = nullptr;
  if (!series_out.empty()) {
    series = std::fopen(series_out.c_str(), "wb");
    if (series == nullptr) {
      std::fprintf(stderr, "bench_soak: cannot write %s\n",
                   series_out.c_str());
      return 2;
    }
    const std::string header = exporter.HeaderLine();
    std::fwrite(header.data(), 1, header.size(), series);
    std::fputc('\n', series);
    exporter.set_sink([series](const std::string& line) {
      std::fwrite(line.data(), 1, line.size(), series);
      std::fputc('\n', series);
    });
  }

  farm.ScheduleTrace(trace);
  const TimePoint end_at =
      TimePoint() + (trace.back().time - TimePoint()) + Duration::Seconds(30);
  const TimePoint mid_at = TimePoint() + (end_at - TimePoint()) / 2;

  // Midpoint capture, in virtual time so it lands between samples
  // deterministically. RSS is wall-clock state; it never enters the series.
  LatencySnapshot mid_datapath;
  double rss_mid_mb = 0.0;
  farm.loop().ScheduleAt(mid_at, [&]() {
    farm.obs().metrics.SnapshotLatency("gateway.datapath.latency_ns",
                                       &mid_datapath);
    rss_mid_mb = RssMb();
  });

  std::printf("soak: %zu packets over %.1f virtual minutes, %u shard(s), "
              "%zu hosts, sampling every %lld ms\n",
              trace.size(), minutes, shards, hosts,
              static_cast<long long>(interval_ms));
  farm.RunUntil(end_at);

  LatencySnapshot final_datapath;
  farm.obs().metrics.SnapshotLatency("gateway.datapath.latency_ns",
                                     &final_datapath);
  const double rss_final_mb = RssMb();
  if (series != nullptr) {
    std::fclose(series);
    std::printf("series: %llu samples -> %s (%zu retained in ring, %llu "
                "rotated out)\n",
                static_cast<unsigned long long>(exporter.sequence()),
                series_out.c_str(), exporter.retained(),
                static_cast<unsigned long long>(exporter.dropped()));
  }

  // Second-half window = cumulative minus the midpoint baseline.
  LatencySnapshot second_half = final_datapath;
  second_half.SubtractBaseline(mid_datapath);
  const double p99_first = static_cast<double>(mid_datapath.Quantile(0.99));
  const double p99_second = static_cast<double>(second_half.Quantile(0.99));

  const double wallclock_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();

  std::printf("datapath latency: p50 %.0f ns, p99 %.0f ns, p999 %.0f ns "
              "(%llu packets)\n",
              static_cast<double>(final_datapath.Quantile(0.5)),
              static_cast<double>(final_datapath.Quantile(0.99)),
              static_cast<double>(final_datapath.Quantile(0.999)),
              static_cast<unsigned long long>(final_datapath.total));
  std::printf("p99 by half: first %.0f ns, second %.0f ns\n", p99_first,
              p99_second);
  std::printf("rss: %.1f MB at midpoint, %.1f MB at end; wallclock %.0f ms\n",
              rss_mid_mb, rss_final_mb, wallclock_ms);
  std::printf("clones completed: %llu\n",
              static_cast<unsigned long long>(farm.total_clones_completed()));

  if (flags.GetBool("bench", true)) {
    BenchReport report("soak");
    report.set_seed(seed);
    report.set_shards(shards);
    // Virtual-time rows: identical across machines for a given seed.
    report.Add("packets_replayed", static_cast<double>(trace.size()), "pkts",
               Better::kLower, Kind::kDeterministic);
    report.Add("datapath_packets", static_cast<double>(final_datapath.total),
               "pkts", Better::kLower, Kind::kDeterministic);
    report.Add("clones_completed",
               static_cast<double>(farm.total_clones_completed()), "clones",
               Better::kLower, Kind::kDeterministic);
    report.Add("datapath_p50",
               static_cast<double>(final_datapath.Quantile(0.5)), "ns",
               Better::kLower, Kind::kDeterministic);
    report.Add("datapath_p99",
               static_cast<double>(final_datapath.Quantile(0.99)), "ns",
               Better::kLower, Kind::kDeterministic);
    report.Add("datapath_p999",
               static_cast<double>(final_datapath.Quantile(0.999)), "ns",
               Better::kLower, Kind::kDeterministic);
    report.Add("p99_second_half", p99_second, "ns", Better::kLower,
               Kind::kDeterministic);
    report.Add("telemetry_samples", static_cast<double>(exporter.sequence()),
               "samples", Better::kLower, Kind::kDeterministic);
    // Wall-clock rows: host-dependent; CI gates them with wide explicit
    // thresholds and `bench_tool check` never trend-checks them.
    report.Add("rss_mid_mb", rss_mid_mb, "mb", Better::kLower,
               Kind::kWallclock);
    report.Add("rss_final_mb", rss_final_mb, "mb", Better::kLower,
               Kind::kWallclock);
    report.Add("wallclock_ms", wallclock_ms, "ms", Better::kLower,
               Kind::kWallclock);
    const std::string path = report.WriteJson();
    if (!path.empty()) {
      std::printf("wrote %s\n", path.c_str());
    }
  }

  if (flags.GetBool("check", false)) {
    bool ok = true;
    // Bounded memory: the second half may grow a little (CoW pools warming,
    // ring lines reaching steady size) but not keep climbing.
    if (rss_mid_mb > 0.0 && rss_final_mb > rss_mid_mb * 1.15 + 48.0) {
      std::printf("SOAK FAIL: rss grew %.1f -> %.1f MB (limit %.1f)\n",
                  rss_mid_mb, rss_final_mb, rss_mid_mb * 1.15 + 48.0);
      ok = false;
    }
    // Flat tail: second-half p99 within 2x the first half plus 1 ms slack
    // (quantization: one log-linear bucket is ~6% wide).
    if (mid_datapath.total > 0 && second_half.total > 0 &&
        p99_second > p99_first * 2.0 + 1e6) {
      std::printf("SOAK FAIL: datapath p99 rose %.0f -> %.0f ns (limit %.0f)\n",
                  p99_first, p99_second, p99_first * 2.0 + 1e6);
      ok = false;
    }
    if (!ok) {
      return 1;
    }
    std::printf("SOAK OK\n");
  }
  return 0;
}

}  // namespace
}  // namespace potemkin

int main(int argc, char** argv) {
  return potemkin::Run(argc, argv);
}
