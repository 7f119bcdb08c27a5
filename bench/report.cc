#include "bench/report.h"

#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include "src/base/json_util.h"

namespace potemkin {

namespace {

// Runs `command`, returning its first output line (trimmed), or "" on failure.
std::string FirstLineOf(const char* command) {
  FILE* pipe = ::popen(command, "r");
  if (pipe == nullptr) {
    return "";
  }
  char buffer[512];
  std::string line;
  if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    line = buffer;
  }
  ::pclose(pipe);
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  return line;
}

}  // namespace

const char* BetterName(Better better) {
  return better == Better::kHigher ? "higher" : "lower";
}

const char* KindName(Kind kind) {
  return kind == Kind::kWallclock ? "wallclock" : "deterministic";
}

bool ParseBetter(std::string_view name, Better* out) {
  *out = name == "higher" ? Better::kHigher : Better::kLower;
  return name == BetterName(*out);
}

bool ParseKind(std::string_view name, Kind* out) {
  *out = name == "wallclock" ? Kind::kWallclock : Kind::kDeterministic;
  return name == KindName(*out);
}

BenchReport::BenchReport(std::string benchmark) : benchmark_(std::move(benchmark)) {}

void BenchReport::Add(std::string metric, double value, std::string unit,
                      Better better, Kind kind) {
  metrics_.push_back(
      Metric{std::move(metric), value, std::move(unit), better, kind});
}

std::string BenchReport::OutputDir() {
  if (const char* dir = std::getenv("POTEMKIN_BENCH_DIR"); dir != nullptr && *dir) {
    return dir;
  }
  const std::string toplevel =
      FirstLineOf("git rev-parse --show-toplevel 2>/dev/null");
  return toplevel.empty() ? "." : toplevel;
}

std::string BenchReport::GitSha() {
  const std::string sha = FirstLineOf("git rev-parse --short HEAD 2>/dev/null");
  return sha.empty() ? "unknown" : sha;
}

std::string BenchReport::ToJson() const {
  std::string out = "{\n  \"benchmark\": ";
  AppendJsonString(out, benchmark_);
  out += ",\n  \"schema_version\": ";
  AppendJsonNumber(out, kSchemaVersion);
  out += ",\n  \"seed\": ";
  AppendJsonNumber(out, static_cast<double>(seed_));
  out += ",\n  \"git_sha\": ";
  AppendJsonString(out, GitSha());
  out += ",\n  \"shards\": ";
  AppendJsonNumber(out, static_cast<double>(shards_));
  out += ",\n  \"host_threads\": ";
  AppendJsonNumber(out,
                   static_cast<double>(std::thread::hardware_concurrency()));
  out += ",\n  \"metrics\": [";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"metric\": ";
    AppendJsonString(out, metrics_[i].name);
    out += ", \"value\": ";
    AppendJsonNumber(out, metrics_[i].value);
    out += ", \"unit\": ";
    AppendJsonString(out, metrics_[i].unit);
    out += ", \"better\": ";
    AppendJsonString(out, BetterName(metrics_[i].better));
    out += ", \"kind\": ";
    AppendJsonString(out, KindName(metrics_[i].kind));
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string BenchReport::WriteJson() const {
  const std::string path = OutputDir() + "/BENCH_" + benchmark_ + ".json";
  if (!WriteStringToFile(path, ToJson())) {
    std::fprintf(stderr, "BenchReport: cannot write %s\n", path.c_str());
    return "";
  }
  std::fprintf(stderr, "perf report: %s\n", path.c_str());
  return path;
}

}  // namespace potemkin
