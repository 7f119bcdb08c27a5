// One tool for the perf-trajectory artifacts: BENCH_<name>.json reports
// (bench/report.h), the BENCH_TRAJECTORY.jsonl history (one compact report per
// line) and HealthSnapshot files (src/obs/health_snapshot.h).
//
//   bench_tool import MICRO.json
//     google-benchmark JSON -> BENCH_micro.json in BenchReport::OutputDir():
//     a cpu_time row per benchmark (lower, wallclock), plus an `_items_per_s`
//     row (higher, wallclock) when it reports items_per_second.
//   bench_tool diff [--threshold=0.10] [--metric-threshold=NAME=FRAC ...]
//                   BASELINE.json CANDIDATE.json
//     A row regresses when it moves in its losing direction (the baseline's
//     `better`) by more than its threshold; a losing move off a zero baseline
//     always does (+inf%). The last --metric-threshold for a row wins.
//   bench_tool trajectory HISTORY.jsonl BENCH_a.json [...]
//     Appends each report unless the history's latest line for its benchmark
//     has the same git_sha and identical rows (a CI re-run on one commit).
//   bench_tool check HISTORY.jsonl
//     Fails on a deterministic row that moved strictly in its losing direction
//     across its benchmark's last 3 entries and by more than 5% in total: the
//     slow leak a single-step diff cannot see. Wallclock rows measure the
//     runner, not the code, and are never trend-checked.
//   bench_tool validate FILE [...]
//     Schema-checks reports, health snapshots and *.jsonl histories.
//
// Exit status: 0 ok; 1 regression (diff, check); 2 usage error, unreadable or
// malformed input, or reports that do not compare (different benchmarks, a
// baseline row missing from the candidate, a row declared differently).
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/report.h"
#include "src/base/json_util.h"
#include "src/base/strings.h"
#include "src/obs/health_snapshot.h"

namespace potemkin {
namespace {

constexpr size_t kTrendWindow = 3;
constexpr double kTrendTolerance = 0.05;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Better better = Better::kLower;
  Kind kind = Kind::kDeterministic;

  bool operator==(const Metric&) const = default;
};

struct Report {
  std::string benchmark;
  std::string git_sha;
  double shards = 0.0;  // NaN when `null`
  std::vector<Metric> metrics;
  std::string compact;  // the report as one trajectory line

  const Metric* Find(const std::string& name) const {
    for (const Metric& metric : metrics) {
      if (metric.name == name) {
        return &metric;
      }
    }
    return nullptr;
  }
};

int Fail(const std::string& what) {
  std::fprintf(stderr, "bench_tool: %s\n", what.c_str());
  return 2;
}

int Usage() {
  return Fail(
      "usage: bench_tool import MICRO.json\n"
      "       bench_tool diff [--threshold=FRAC] [--metric-threshold=NAME=FRAC "
      "...] BASELINE.json CANDIDATE.json\n"
      "       bench_tool trajectory HISTORY.jsonl BENCH_a.json [...]\n"
      "       bench_tool check HISTORY.jsonl\n"
      "       bench_tool validate FILE [...]");
}

// `text` without the whitespace between tokens.
std::string Compact(std::string_view text) {
  std::string out;
  bool in_string = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string || (c != ' ' && c != '\n' && c != '\t' && c != '\r')) {
      out += c;
    }
    if (in_string && c == '\\') {
      out += text[++i];
    } else if (c == '"') {
      in_string = !in_string;
    }
  }
  return out;
}

bool ParseReport(std::string_view text, Report* out, std::string* error) {
  JsonValue json;
  if (!ParseJson(text, &json, error)) {
    return false;
  }
  JsonFields fields(json);
  const double version = fields.Number("schema_version");
  out->benchmark = fields.String("benchmark");
  out->git_sha = fields.String("git_sha");
  fields.Number("seed");  // required; identifies the run, not compared
  out->shards = fields.NumberOrNull("shards");
  fields.NumberOrNull("host_threads");  // required; not compared
  for (const JsonValue& row : fields.Array("metrics")) {
    JsonFields row_fields(row);
    Metric& metric = out->metrics.emplace_back();
    metric.name = row_fields.String("metric");
    metric.value = row_fields.Number("value");
    metric.unit = row_fields.String("unit");
    const bool declared =
        ParseBetter(row_fields.String("better"), &metric.better) &&
        ParseKind(row_fields.String("kind"), &metric.kind);
    if (!row_fields.ok() || !declared || metric.name.empty() ||
        out->Find(metric.name) != &metric) {
      *error = StrFormat("metric row %zu: %s", out->metrics.size(),
                         !row_fields.ok() ? row_fields.error().c_str()
                                          : "needs a unique name, better "
                                            "lower|higher and kind "
                                            "deterministic|wallclock");
      return false;
    }
  }
  if (!fields.ok() || out->metrics.empty()) {
    *error = "not a BENCH report: " +
             (fields.ok() ? std::string("no metrics") : fields.error());
    return false;
  }
  if (version != BenchReport::kSchemaVersion) {
    *error = StrFormat("unsupported report schema_version %g (understood: %d)",
                       version, BenchReport::kSchemaVersion);
    return false;
  }
  out->compact = Compact(text);
  return true;
}

bool LoadReport(const std::string& path, Report* out) {
  std::string text;
  std::string error = "cannot read file";
  if (ReadFileToString(path, &text) && ParseReport(text, out, &error)) {
    return true;
  }
  Fail(path + ": " + error);
  return false;
}

// Reads a history file; a missing file is an empty history when `missing_ok`.
bool LoadHistory(const std::string& path, bool missing_ok,
                 std::vector<Report>* out) {
  std::string text;
  if (!ReadFileToString(path, &text)) {
    if (!missing_ok) {
      Fail(path + ": cannot read file");
    }
    return missing_ok;
  }
  size_t line_no = 0;
  for (size_t start = 0, end; start < text.size(); start = end + 1) {
    end = std::min(text.find('\n', start), text.size());
    ++line_no;
    if (end == start) {
      continue;  // blank line
    }
    const std::string_view line(text.data() + start, end - start);
    std::string error;
    if (!ParseReport(line, &out->emplace_back(), &error)) {
      Fail(StrFormat("%s:%zu: %s", path.c_str(), line_no, error.c_str()));
      return false;
    }
  }
  return true;
}

int Import(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    return Usage();
  }
  JsonValue json;
  std::string error;
  if (!ReadJsonFile(args[0], &json, &error)) {
    return Fail(args[0] + ": " + error);
  }
  const std::vector<JsonValue>& benchmarks =
      JsonFields(json).Array("benchmarks");
  if (benchmarks.empty()) {
    return Fail(args[0] + ": no benchmark entries (want the output of "
                "--benchmark_format=json)");
  }
  BenchReport report("micro");
  for (const JsonValue& entry : benchmarks) {
    JsonFields entry_fields(entry);
    std::string slug;  // the name with each run of non-alphanumerics as '_'
    for (const char c : entry_fields.String("name")) {
      if (std::isalnum(static_cast<unsigned char>(c))) {
        slug += c;
      } else if (!slug.empty() && slug.back() != '_') {
        slug += '_';
      }
    }
    while (!slug.empty() && slug.back() == '_') {
      slug.pop_back();
    }
    report.Add(slug, entry_fields.Number("cpu_time"),
               entry_fields.String("time_unit"), Better::kLower,
               Kind::kWallclock);
    const JsonValue* items = entry.Find("items_per_second");
    if (items != nullptr && items->type == JsonValue::Type::kNumber) {
      report.Add(slug + "_items_per_s", items->number, "items/s",
                 Better::kHigher, Kind::kWallclock);
    }
    if (!entry_fields.ok()) {
      return Fail(args[0] + ": benchmark entry: " + entry_fields.error());
    }
  }
  const std::string path = report.WriteJson();
  if (path.empty()) {
    return 2;
  }
  std::printf("%s\n", path.c_str());
  return 0;
}

int Diff(const std::vector<std::string>& args) {
  double threshold = 0.10;
  std::vector<std::pair<std::string, double>> metric_thresholds;
  std::vector<std::string> paths;
  for (const std::string& arg : args) {
    std::string name;
    std::string value;
    if (arg.rfind("--threshold=", 0) == 0) {
      value = arg.substr(12);
    } else if (arg.rfind("--metric-threshold=", 0) == 0) {
      const size_t eq = arg.rfind('=');
      name = arg.substr(19, eq - 19);
      value = eq > 19 ? arg.substr(eq + 1) : "";
    } else if (arg.rfind("--", 0) == 0) {
      return Fail("unknown flag " + arg);
    } else {
      paths.push_back(arg);
      continue;
    }
    char* end = nullptr;
    const double frac = std::strtod(value.c_str(), &end);
    if (value.empty() || *end != '\0' || !(frac >= 0.0)) {
      return Fail("bad " + arg + " (want a fraction >= 0)");
    }
    if (name.empty()) {
      threshold = frac;
    } else {
      metric_thresholds.emplace_back(name, frac);
    }
  }
  Report baseline;
  Report candidate;
  if (paths.size() != 2) {
    return Usage();
  }
  if (!LoadReport(paths[0], &baseline) || !LoadReport(paths[1], &candidate)) {
    return 2;
  }
  if (baseline.benchmark != candidate.benchmark) {
    return Fail("comparing different benchmarks (" + baseline.benchmark +
                " vs " + candidate.benchmark + ")");
  }

  // Like for like: when the reports disagree on shards, regressions are
  // printed but not enforced. The farm is single-threaded at any shard count,
  // so the host's thread count does not change what a run measures: noise
  // across hosts is a threshold problem, not a topology problem. A missing
  // stamp (NaN) keeps the guard inert, as NaN compares unequal.
  const bool cross_shards = baseline.shards == baseline.shards &&
                            candidate.shards == candidate.shards &&
                            baseline.shards != candidate.shards;
  if (cross_shards) {
    std::printf("note: not like-for-like (shards %g vs %g) — regressions "
                "reported but not enforced\n",
                baseline.shards, candidate.shards);
  }
  std::printf("%-44s %16s %16s %9s\n", "metric", "baseline", "candidate",
              "delta");
  bool regressed = false;
  bool mismatch = false;
  for (const Metric& base : baseline.metrics) {
    const Metric* cand = candidate.Find(base.name);
    if (cand == nullptr) {
      std::printf("%-44s %16.4g %16s %9s  MISSING\n", base.name.c_str(),
                  base.value, "-", "-");
      mismatch = true;
    } else if (cand->better != base.better || cand->kind != base.kind) {
      std::printf("%-44s declared %s/%s in baseline, %s/%s in candidate\n",
                  base.name.c_str(), BetterName(base.better),
                  KindName(base.kind), BetterName(cand->better),
                  KindName(cand->kind));
      mismatch = true;
    } else {
      // Off a zero baseline the delta is +/-inf, past every threshold.
      const double delta =
          cand->value == base.value
              ? 0.0
              : (cand->value - base.value) / std::fabs(base.value);
      double limit = threshold;
      for (const auto& [name, frac] : metric_thresholds) {
        limit = name == base.name ? frac : limit;
      }
      const bool worse =
          base.better == Better::kHigher ? delta < -limit : delta > limit;
      std::printf("%-44s %16.4g %16.4g %+8.1f%%%s\n", base.name.c_str(),
                  base.value, cand->value, delta * 100.0,
                  worse ? "  REGRESSED" : "");
      regressed = regressed || worse;
    }
  }
  for (const Metric& cand : candidate.metrics) {
    if (baseline.Find(cand.name) == nullptr) {
      std::printf("%-44s %16s %16.4g %9s  NEW\n", cand.name.c_str(), "-",
                  cand.value, "-");
    }
  }
  if (mismatch) {
    return Fail("baseline rows missing from the candidate or declared "
                "differently");
  }
  return regressed && !cross_shards ? 1 : 0;
}

int Trajectory(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    return Usage();
  }
  std::vector<Report> history;
  if (!LoadHistory(args[0], /*missing_ok=*/true, &history)) {
    return 2;
  }
  std::string lines;
  size_t appended = 0;
  for (size_t i = 1; i < args.size(); ++i) {
    Report report;
    if (!LoadReport(args[i], &report)) {
      return 2;
    }
    const Report* latest = nullptr;
    for (const Report& prior : history) {
      latest = prior.benchmark == report.benchmark ? &prior : latest;
    }
    const bool recorded = latest != nullptr &&
                          latest->git_sha == report.git_sha &&
                          latest->metrics == report.metrics;
    std::printf("%-10s %-36s (%s, %zu metrics)\n",
                recorded ? "unchanged" : "appended", report.benchmark.c_str(),
                report.git_sha.c_str(), report.metrics.size());
    if (!recorded) {
      lines += report.compact + "\n";
      ++appended;
      history.push_back(std::move(report));
    }
  }
  std::FILE* file = std::fopen(args[0].c_str(), "a");
  bool written =
      file != nullptr &&
      std::fwrite(lines.data(), 1, lines.size(), file) == lines.size();
  if (file != nullptr && std::fclose(file) != 0) {
    written = false;
  }
  if (!written) {
    return Fail(args[0] + ": cannot write file");
  }
  std::printf("trajectory: %zu appended, %zu unchanged -> %s\n", appended,
              args.size() - 1 - appended, args[0].c_str());
  return 0;
}

int Check(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    return Usage();
  }
  std::vector<Report> history;
  if (!LoadHistory(args[0], /*missing_ok=*/false, &history)) {
    return 2;
  }
  if (history.empty()) {
    return Fail(args[0] + ": empty history");
  }
  size_t benchmarks = 0;
  size_t short_series = 0;
  size_t checked = 0;
  size_t failures = 0;
  for (const Report& newest : history) {
    std::vector<const Report*> window;  // this benchmark's entries, in order
    for (const Report& entry : history) {
      if (entry.benchmark == newest.benchmark) {
        window.push_back(&entry);
      }
    }
    if (window.back() != &newest) {
      continue;  // judge each benchmark once, at its newest entry
    }
    ++benchmarks;
    if (window.size() < kTrendWindow) {
      ++short_series;
      continue;
    }
    window.erase(window.begin(), window.end() - kTrendWindow);
    // The newest entry's declarations decide how each row is judged.
    for (const Metric& metric : newest.metrics) {
      std::vector<double> values;
      for (const Report* entry : window) {
        if (const Metric* m = entry->Find(metric.name)) {
          values.push_back(m->value);
        }
      }
      if (metric.kind == Kind::kWallclock || values.size() != kTrendWindow) {
        continue;
      }
      ++checked;
      // +1 when a rise is a loss; a losing move off zero is infinite.
      const double sign = metric.better == Better::kLower ? 1.0 : -1.0;
      bool monotone_worse = true;
      for (size_t i = 1; i < values.size(); ++i) {
        monotone_worse =
            monotone_worse && sign * (values[i] - values[i - 1]) > 0.0;
      }
      const double total =
          sign * (values.back() - values.front()) / std::fabs(values.front());
      if (monotone_worse && total > kTrendTolerance) {
        ++failures;
        std::printf("REGRESSION %s / %s: monotone %s across the last %zu "
                    "entries (%.6g -> %.6g)\n",
                    newest.benchmark.c_str(), metric.name.c_str(),
                    sign > 0 ? "rise" : "fall", kTrendWindow, values.front(),
                    values.back());
      }
    }
  }
  std::printf("trajectory check %s: %zu monotone regression(s) in %zu "
              "deterministic series across %zu benchmarks (window %zu, "
              "tolerance %.0f%%); %zu benchmark(s) with fewer than %zu "
              "entries not checked\n",
              failures > 0 ? "FAILED" : "OK", failures, checked,
              benchmarks - short_series, kTrendWindow, 100.0 * kTrendTolerance,
              short_series, kTrendWindow);
  return failures > 0 ? 1 : 0;
}

// Top-level keys, versions and row shapes of a HealthSnapshot.
std::string SnapshotError(const JsonValue& json) {
  JsonFields fields(json);
  fields.String("snapshot");
  fields.Number("sequence");
  fields.Number("time_ns");
  const double version = fields.Number("schema_version");
  const double alerts_version = fields.Number("alerts_schema_version");
  for (const JsonValue& alert : fields.Array("alerts")) {
    JsonFields row(alert);
    row.String("alert");
    row.String("metric");
    row.Bool("firing");
    if (!row.ok()) {
      return "alert row: " + row.error();
    }
  }
  for (const JsonValue& metric : fields.Array("metrics")) {
    JsonFields row(metric);
    row.String("metric");
    row.Number("value");
    row.String("unit");
    if (!row.ok()) {
      return "metric row: " + row.error();
    }
  }
  if (!fields.ok()) {
    return "not a health snapshot: " + fields.error();
  }
  if (version != HealthSnapshot::kSchemaVersion ||
      alerts_version != HealthSnapshot::kAlertsSchemaVersion) {
    return StrFormat("unsupported snapshot schema_version %g / "
                     "alerts_schema_version %g (understood: %d / %d)",
                     version, alerts_version, HealthSnapshot::kSchemaVersion,
                     HealthSnapshot::kAlertsSchemaVersion);
  }
  return "";
}

// Prints what the artifact at `path` is, or reports why it is invalid.
bool ValidateFile(const std::string& path) {
  std::vector<Report> history;
  Report report;
  std::string text;
  JsonValue json;
  std::string what;
  std::string error;
  if (path.ends_with(".jsonl")) {
    if (!LoadHistory(path, /*missing_ok=*/false, &history)) {
      return false;
    }
    what = StrFormat("trajectory, %zu entries", history.size());
  } else if (!ReadFileToString(path, &text)) {
    error = "cannot read file";
  } else if (ParseJson(text, &json, &error) &&
             json.Find("snapshot") != nullptr) {
    error = SnapshotError(json);
    what = "health snapshot";
  } else if (error.empty() && ParseReport(text, &report, &error)) {
    what = StrFormat("report %s, %zu metrics", report.benchmark.c_str(),
                     report.metrics.size());
  }
  if (!error.empty()) {
    Fail(path + ": " + error);
    return false;
  }
  std::printf("valid  %s (%s)\n", path.c_str(), what.c_str());
  return true;
}

int Validate(const std::vector<std::string>& args) {
  int status = args.empty() ? Usage() : 0;
  for (const std::string& path : args) {
    status = ValidateFile(path) ? status : 2;
  }
  return status;
}

int Run(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  const std::vector<std::string> args(argv + std::min(argc, 2), argv + argc);
  if (command == "diff") {
    return Diff(args);
  }
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) == 0) {
      return Fail("unknown flag " + arg);
    }
  }
  return command == "import"       ? Import(args)
         : command == "trajectory" ? Trajectory(args)
         : command == "check"      ? Check(args)
         : command == "validate"   ? Validate(args)
                                   : Usage();
}

}  // namespace
}  // namespace potemkin

int main(int argc, char** argv) { return potemkin::Run(argc, argv); }
