// Dumps a versioned farm HealthSnapshot (see src/obs/health_snapshot.h).
//
// With no file argument it runs a small deterministic demo farm — a /24 across
// two hosts, a burst of first-contact probes, repeat traffic, and an idle-out
// period so the recycler fires — then prints the final snapshot. Given a file,
// it pretty-prints an existing snapshot JSON instead. Exit status:
//
//   0  snapshot produced / parsed and printed
//   2  file unreadable, not a HealthSnapshot, or unsupported schema_version
//
// Usage:
//   metrics_dump [--json] [--prom] [--out=PATH] [snapshot.json]
//
//   --json       emit the raw versioned JSON on stdout instead of the table
//   --prom       emit Prometheus text exposition on stdout instead of the table
//   --out=PATH   additionally write the snapshot JSON to PATH
//
// Unknown flags and unwritable --out paths are usage errors (exit 2) — a typoed
// flag silently running the demo farm once cost someone an afternoon.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "src/base/flags.h"
#include "src/base/json_util.h"
#include "src/base/strings.h"
#include "src/base/table.h"
#include "src/core/honeyfarm.h"
#include "src/obs/health_snapshot.h"
#include "src/obs/telemetry_exporter.h"

namespace potemkin {
namespace {

std::string FormatValue(double value) {
  if (std::floor(value) == value && std::fabs(value) < 1e15) {
    return StrFormat("%.0f", value);
  }
  return StrFormat("%.6g", value);
}

void PrintSnapshot(const HealthSnapshot& snapshot) {
  std::printf("snapshot: %s  (schema v%d, sequence %llu, t=%.3fs virtual)\n",
              snapshot.source.c_str(), HealthSnapshot::kSchemaVersion,
              static_cast<unsigned long long>(snapshot.sequence),
              static_cast<double>(snapshot.time_ns) / 1e9);
  Table table({"metric", "value", "unit"});
  for (const auto& sample : snapshot.metrics) {
    table.AddRow({sample.name, FormatValue(sample.value), sample.unit});
  }
  std::printf("%s", table.ToAscii().c_str());
  std::printf("%zu metrics\n", snapshot.metrics.size());
}

// ---- Existing-file mode ----

// Reads a snapshot file into `out`; returns why it could not, or "".
std::string ParseSnapshotFile(const std::string& path, HealthSnapshot* out) {
  JsonValue json;
  std::string error;
  if (!ReadJsonFile(path, &json, &error)) {
    return error;
  }
  JsonFields fields(json);
  out->source = fields.String("snapshot");
  const double version = fields.Number("schema_version");
  out->sequence = static_cast<uint64_t>(fields.Number("sequence"));
  out->time_ns = static_cast<int64_t>(fields.Number("time_ns"));
  // --prom re-exports the alert rows as potemkin_alert_firing series.
  for (const JsonValue& row : fields.Array("alerts")) {
    JsonFields alert_fields(row);
    AlertSample& alert = out->alerts.emplace_back();
    alert.rule = alert_fields.String("alert");
    alert.metric = alert_fields.String("metric");
    alert.value = alert_fields.NumberOrNull("value");
    alert.threshold = alert_fields.NumberOrNull("threshold");
    alert.firing = alert_fields.Bool("firing");
    alert.since_ns = static_cast<int64_t>(alert_fields.Number("since_ns"));
    if (!alert_fields.ok()) {
      return "malformed alert entry: " + alert_fields.error();
    }
  }
  for (const JsonValue& row : fields.Array("metrics")) {
    JsonFields metric_fields(row);
    MetricRegistry::Sample& sample = out->metrics.emplace_back();
    sample.name = metric_fields.String("metric");
    sample.value = metric_fields.Number("value");
    sample.unit = metric_fields.String("unit");
    if (!metric_fields.ok()) {
      return "malformed metric entry: " + metric_fields.error();
    }
  }
  if (!fields.ok()) {
    return "not a HealthSnapshot: " + fields.error();
  }
  if (version != HealthSnapshot::kSchemaVersion) {
    return StrFormat("unsupported snapshot schema_version %g (understood: %d)",
                     version, HealthSnapshot::kSchemaVersion);
  }
  return "";
}

// ---- Demo-farm mode ----

Packet Probe(Ipv4Address src, Ipv4Address dst, uint16_t port) {
  PacketSpec spec;
  spec.src_mac = MacAddress::FromId(0xbad);
  spec.dst_mac = MacAddress::FromId(1);
  spec.src_ip = src;
  spec.dst_ip = dst;
  spec.proto = IpProto::kTcp;
  spec.src_port = 51234;
  spec.dst_port = port;
  spec.tcp_flags = TcpFlags::kSyn;
  return BuildPacket(spec);
}

HealthSnapshot RunDemoFarm() {
  const Ipv4Prefix prefix(Ipv4Address(10, 1, 0, 0), 24);
  HoneyfarmConfig config =
      MakeDefaultFarmConfig(prefix, /*num_hosts=*/2, /*host_memory_mb=*/512,
                            ContentMode::kMetadataOnly);
  config.gateway.recycle.idle_timeout = Duration::Seconds(5);
  config.gateway.recycle.scan_interval = Duration::Seconds(1);

  Honeyfarm farm(config);
  farm.Start();
  farm.StartHealthSnapshots(Duration::Seconds(1));

  // First contacts on eight addresses: eight flash clones.
  for (uint32_t i = 0; i < 8; ++i) {
    farm.InjectInbound(Probe(Ipv4Address(198, 51, 100, static_cast<uint8_t>(10 + i)),
                             prefix.AddressAt(i), 445));
  }
  farm.RunFor(Duration::Seconds(2));
  // Repeat traffic to the now-live bindings: hit-path deliveries.
  for (uint32_t i = 0; i < 8; ++i) {
    farm.InjectInbound(Probe(Ipv4Address(198, 51, 100, static_cast<uint8_t>(10 + i)),
                             prefix.AddressAt(i), 445));
  }
  // Idle out so the recycler retires every VM.
  farm.RunFor(Duration::Seconds(10));
  return farm.health().SampleNow();
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: metrics_dump [--json] [--prom] [--out=PATH] [snapshot.json]\n"
               "  --json       emit raw versioned JSON instead of the table\n"
               "  --prom       emit Prometheus text exposition instead of the table\n"
               "  --out=PATH   additionally write the snapshot JSON to PATH\n");
}

int Run(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  for (const std::string& name : flags.Names()) {
    if (name != "json" && name != "out" && name != "prom") {
      std::fprintf(stderr, "metrics_dump: unknown flag --%s\n", name.c_str());
      PrintUsage();
      return 2;
    }
  }
  const std::string out = flags.GetString("out", "");
  if (!out.empty()) {
    // Check writability up front: discovering the path is bad only after the
    // demo farm ran (or the input parsed) wastes the work and hides the error.
    std::FILE* probe = std::fopen(out.c_str(), "ab");
    if (probe == nullptr) {
      std::fprintf(stderr, "metrics_dump: cannot write %s\n", out.c_str());
      PrintUsage();
      return 2;
    }
    std::fclose(probe);
  }
  if (!flags.positional().empty()) {
    HealthSnapshot snapshot;
    const std::string& input = flags.positional()[0];
    const std::string error = ParseSnapshotFile(input, &snapshot);
    if (!error.empty()) {
      std::fprintf(stderr, "metrics_dump: %s: %s\n", input.c_str(),
                   error.c_str());
      return 2;
    }
    if (flags.GetBool("prom", false)) {
      std::printf("%s", PrometheusTextFor(snapshot).c_str());
    } else {
      PrintSnapshot(snapshot);
    }
    if (!out.empty()) {
      // File mode honors --out too: copy the (validated) snapshot through.
      std::string text;
      std::FILE* file = ReadFileToString(input, &text)
                            ? std::fopen(out.c_str(), "wb")
                            : nullptr;
      if (file == nullptr) {
        std::fprintf(stderr, "metrics_dump: cannot write %s\n", out.c_str());
        return 2;
      }
      std::fwrite(text.data(), 1, text.size(), file);
      std::fclose(file);
      std::fprintf(stderr, "metrics_dump: wrote %s\n", out.c_str());
    }
    return 0;
  }

  const HealthSnapshot snapshot = RunDemoFarm();
  if (!out.empty()) {
    if (!snapshot.WriteJson(out)) {
      std::fprintf(stderr, "metrics_dump: cannot write %s\n", out.c_str());
      return 2;
    }
    std::fprintf(stderr, "metrics_dump: wrote %s\n", out.c_str());
  }
  if (flags.GetBool("json", false)) {
    std::printf("%s", snapshot.ToJson().c_str());
  } else if (flags.GetBool("prom", false)) {
    std::printf("%s", PrometheusTextFor(snapshot).c_str());
  } else {
    PrintSnapshot(snapshot);
  }
  return 0;
}

}  // namespace
}  // namespace potemkin

int main(int argc, char** argv) {
  return potemkin::Run(argc, argv);
}
