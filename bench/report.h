// Perf-trajectory reporting: every benchmark binary records its headline
// metrics as BENCH_<name>.json at the repository root, so successive commits
// leave a machine-readable performance trail (tools/bench_tool diffs, records
// and trend-checks them). The schema is deliberately flat — one object per
// binary, one row per metric — and every row declares how to judge it, so a
// dashboard or CI check needs no bench-specific knowledge:
//
//   {
//     "benchmark": "vm_scaling",
//     "schema_version": 2,
//     "seed": 42,
//     "git_sha": "97e6328",
//     "shards": 1,
//     "host_threads": 8,
//     "metrics": [
//       {"metric": "peak_live_vms_timeout_5s", "value": 533, "unit": "vms",
//        "better": "lower", "kind": "deterministic"}
//     ]
//   }
//
// `better` is the direction a row improves in (the same key BENCHMARK.json
// uses). `kind` says whether the value comes from the deterministic virtual-
// time simulation (identical on every host for a given seed) or is a
// wallclock measurement of the runner (time, rates, RSS). `shards` and
// `host_threads` are `null` in reports recorded before they were stamped.
//
// The output directory is the enclosing git worktree root (queried from git at
// run time), overridable with POTEMKIN_BENCH_DIR.
#ifndef BENCH_REPORT_H_
#define BENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace potemkin {

enum class Better { kLower, kHigher };
enum class Kind { kDeterministic, kWallclock };

// The schema spellings: "lower"/"higher" and "deterministic"/"wallclock".
// The parsers return false for any other spelling.
const char* BetterName(Better better);
const char* KindName(Kind kind);
bool ParseBetter(std::string_view name, Better* out);
bool ParseKind(std::string_view name, Kind* out);

class BenchReport {
 public:
  static constexpr int kSchemaVersion = 2;

  explicit BenchReport(std::string benchmark);

  void Add(std::string metric, double value, std::string unit, Better better,
           Kind kind);
  void set_seed(uint64_t seed) { seed_ = seed; }
  // Gateway shard count the run used (1 for unsharded benches). Stamped into
  // the JSON alongside `host_threads` (the machine's hardware concurrency,
  // informational) so a diff can tell a code regression from a topology
  // change: `bench_tool diff` does not enforce across differing shard counts.
  void set_shards(uint32_t shards) { shards_ = shards; }

  // Serializes the report (stable key order, trailing newline).
  std::string ToJson() const;

  // Writes BENCH_<benchmark>.json into OutputDir(). Returns the path written,
  // or an empty string when the file could not be written in full.
  std::string WriteJson() const;

  // POTEMKIN_BENCH_DIR if set, else `git rev-parse --show-toplevel`, else ".".
  static std::string OutputDir();
  // Short commit hash of the enclosing checkout, "unknown" outside git.
  static std::string GitSha();

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    Better better;
    Kind kind;
  };

  std::string benchmark_;
  uint64_t seed_ = 0;
  uint32_t shards_ = 1;
  std::vector<Metric> metrics_;
};

}  // namespace potemkin

#endif  // BENCH_REPORT_H_
