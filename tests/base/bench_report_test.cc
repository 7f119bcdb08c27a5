// Validates the perf-trajectory report schema (bench/report.h): every bench
// binary ships BENCH_<name>.json with {benchmark, schema_version, seed,
// git_sha, shards, host_threads, metrics: [{metric, value, unit, better,
// kind}]}. CI and dashboards diff these files across commits, so the shape and
// the write path are contract, not implementation detail.
#include "bench/report.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "gtest/gtest.h"

namespace potemkin {
namespace {

std::string ReadFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return "";
  }
  std::string text;
  char buffer[4096];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, got);
  }
  std::fclose(file);
  return text;
}

TEST(BenchReportTest, JsonCarriesAllRequiredKeys) {
  BenchReport report("schema_check");
  report.set_seed(42);
  report.Add("clone_latency", 0.5, "ms", Better::kLower,
             Kind::kDeterministic);
  report.Add("peak_vms", 533.0, "vms", Better::kHigher, Kind::kWallclock);

  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"benchmark\": \"schema_check\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\": "), std::string::npos);
  EXPECT_NE(json.find("\"metrics\": ["), std::string::npos);
  EXPECT_NE(json.find("{\"metric\": \"clone_latency\", \"value\": 0.5, "
                      "\"unit\": \"ms\", \"better\": \"lower\", "
                      "\"kind\": \"deterministic\"}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"metric\": \"peak_vms\", \"value\": 533, "
                      "\"unit\": \"vms\", \"better\": \"higher\", "
                      "\"kind\": \"wallclock\"}"),
            std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

TEST(BenchReportTest, IdenticalReportsSerializeIdentically) {
  // The whole point of the trajectory: a diff between two BENCH files must
  // reflect metric changes only, never serialization noise.
  BenchReport a("det");
  BenchReport b("det");
  for (BenchReport* r : {&a, &b}) {
    r->set_seed(7);
    r->Add("m", 1234.5678, "ns", Better::kLower, Kind::kWallclock);
  }
  EXPECT_EQ(a.ToJson(), b.ToJson());
}

TEST(BenchReportTest, EscapesQuotesAndBackslashesInStrings) {
  BenchReport report("weird");
  report.Add("path\\with\"quote", 1.0, "u", Better::kLower,
             Kind::kDeterministic);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("path\\\\with\\\"quote"), std::string::npos);
}

TEST(BenchReportTest, NonFiniteValuesSerializeAsNull) {
  BenchReport report("nan_check");
  report.Add("bad", 0.0 / 0.0, "x", Better::kLower, Kind::kDeterministic);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"value\": null"), std::string::npos);
}

TEST(BenchReportTest, WriteJsonHonorsOutputDirOverride) {
  char dir_template[] = "/tmp/bench_report_test_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  setenv("POTEMKIN_BENCH_DIR", dir_template, 1);

  BenchReport report("roundtrip");
  report.set_seed(9);
  report.Add("value_under_test", 3.25, "x", Better::kHigher,
             Kind::kDeterministic);
  const std::string path = report.WriteJson();
  unsetenv("POTEMKIN_BENCH_DIR");

  ASSERT_EQ(path, std::string(dir_template) + "/BENCH_roundtrip.json");
  const std::string on_disk = ReadFile(path);
  EXPECT_EQ(on_disk, report.ToJson());
  std::remove(path.c_str());
  rmdir(dir_template);
}

TEST(BenchReportTest, DeclarationNamesRoundTrip) {
  for (const Better better : {Better::kLower, Better::kHigher}) {
    Better parsed = better == Better::kLower ? Better::kHigher : Better::kLower;
    EXPECT_TRUE(ParseBetter(BetterName(better), &parsed));
    EXPECT_EQ(parsed, better);
  }
  for (const Kind kind : {Kind::kDeterministic, Kind::kWallclock}) {
    Kind parsed =
        kind == Kind::kWallclock ? Kind::kDeterministic : Kind::kWallclock;
    EXPECT_TRUE(ParseKind(KindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  Better better = Better::kLower;
  Kind kind = Kind::kDeterministic;
  EXPECT_FALSE(ParseBetter("up", &better));
  EXPECT_FALSE(ParseBetter("Lower", &better));
  EXPECT_FALSE(ParseKind("", &kind));
  EXPECT_FALSE(ParseKind("wall", &kind));
}

TEST(BenchReportTest, WriteJsonReportsFailureAsEmptyPath) {
  setenv("POTEMKIN_BENCH_DIR", "/nonexistent_dir_for_bench_report_test", 1);
  BenchReport report("unwritable");
  EXPECT_EQ(report.WriteJson(), "");
  unsetenv("POTEMKIN_BENCH_DIR");
}

}  // namespace
}  // namespace potemkin
