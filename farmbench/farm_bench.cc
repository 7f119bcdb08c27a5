// Farm benchmark: replays one workload against a Honeyfarm in one process on
// one thread (shared-loop gateway shards) and prints one JSON line of results.
//
//   farm_bench --workload=NAME --seed=N [--seconds=S]
//   farm_bench_traced --workload=NAME --seed=N
//
// Workloads (see README.md for why each exists):
//   telescope_churn  radiation over a /20 at 40 pps, 5 s idle timeout, 2 shards
//   hot_prefix       radiation over a /22 at 1,000 pps, bindings never idle out
//   worm_reflect     Slammer-like outbreak in a /22 under reflect containment
//
// The untraced binary (farm_bench) repeats the workload's fixed virtual-time
// replay while another whole replay fits in --seconds of wall time (at least
// once, so --seconds=0 runs exactly one) and reports end-to-end metrics: set-up
// time, packets per wall second, p99 slice wall time, peak RSS and the
// virtual-time outputs. Every repetition must reproduce the first one's
// deterministic counters exactly.
//
// The traced binary (farm_bench_traced) runs one untraced replay and then one
// replay whose event loop it drives itself with NextEventTime() and Step(),
// attributing each event's wall time to the first layer whose public counter
// moved. It adds a standalone clone/destroy probe and counts heap allocations
// (a counting global allocator compiled into this binary only).
//
// Exit status: 0 ok, 1 a correctness check failed, 2 usage error.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "src/base/flags.h"
#include "src/core/honeyfarm.h"
#include "src/hv/physical_host.h"
#include "src/malware/radiation.h"
#include "src/malware/worm.h"
#include "src/obs/metric_registry.h"
#include "src/obs/telemetry_exporter.h"

#ifdef FARMBENCH_TRACED
// Counting global allocator: every heap allocation in the traced binary bumps
// one relaxed counter, so alloc.per_pkt is a deterministic work count.
namespace {
std::atomic<uint64_t> g_heap_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif  // FARMBENCH_TRACED

namespace potemkin {
namespace {

using Clock = std::chrono::steady_clock;

// Equal virtual-time slices per replay; p99 then has >= 10 samples beyond it.
constexpr int kSlices = 1000;
// Set-up-only repetitions per untraced run, on top of each replay's own.
constexpr int kExtraSetups = 24;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// Decorrelates the user-facing seed (often 0, 1, 2, ...) into independent
// component seeds.
uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  HoneyfarmConfig config;
  std::vector<TraceRecord> trace;  // empty for the worm workload
  std::optional<WormConfig> worm;
  uint64_t worm_seed = 0;
  TimePoint end_at;
};

// bench_soak's farm: 4 hosts x 2 GB, 8,192-page metadata-only images.
HoneyfarmConfig TelescopeFarm(Ipv4Prefix prefix) {
  HoneyfarmConfig config = MakeDefaultFarmConfig(
      prefix, /*num_hosts=*/4, /*host_memory_mb=*/2048,
      ContentMode::kMetadataOnly);
  config.server_template.engine.latency = CloneLatencyModel::Optimized();
  config.gateway.recycle.scan_interval = Duration::Seconds(1);
  return config;
}

std::vector<TraceRecord> Radiation(Ipv4Prefix prefix, double minutes,
                                   double pps, uint64_t seed) {
  RadiationConfig radiation;
  radiation.telescope = prefix;
  radiation.duration = Duration::Minutes(minutes);
  radiation.mean_pps = pps;
  radiation.diurnal_period = Duration::Minutes(std::max(1.0, minutes / 2.0));
  radiation.seed = seed;
  return RadiationGenerator(radiation).GenerateAll();
}

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "telescope_churn") {
    const Ipv4Prefix prefix(Ipv4Address(10, 1, 0, 0), 20);
    const double minutes = 30.0;
    w.config = TelescopeFarm(prefix);
    w.config.gateway.recycle.idle_timeout = Duration::Seconds(5);
    w.config.gateway_shards = 2;
    w.trace = Radiation(prefix, minutes, 40.0, SplitMix(seed ^ 0x11));
    w.end_at = w.trace.back().time + Duration::Seconds(30);
  } else if (name == "hot_prefix") {
    const Ipv4Prefix prefix(Ipv4Address(10, 1, 0, 0), 22);
    const double minutes = 5.0;
    w.config = TelescopeFarm(prefix);
    // Longer than the run: after the first contact with each of the 1,024
    // addresses every packet hits a live binding.
    w.config.gateway.recycle.idle_timeout = Duration::Minutes(minutes + 60.0);
    w.config.gateway.recycle.max_lifetime = Duration::Zero();
    w.config.gateway_shards = 1;
    w.trace = Radiation(prefix, minutes, 1000.0, SplitMix(seed ^ 0x22));
    w.end_at = w.trace.back().time + Duration::Seconds(5);
  } else if (name == "worm_reflect") {
    // examples/worm_outbreak's farm and worm.
    const Ipv4Prefix prefix(Ipv4Address(10, 1, 0, 0), 22);
    w.config = MakeDefaultFarmConfig(prefix, /*num_hosts=*/4,
                                     /*host_memory_mb=*/1024,
                                     ContentMode::kMetadataOnly);
    w.config.server_template.image.num_pages = 2048;
    w.config.server_template.engine.latency = CloneLatencyModel::Optimized();
    w.config.server_template.engine.control_plane_workers = 4;
    w.config.gateway.containment.mode = OutboundMode::kReflect;
    w.config.gateway.recycle.idle_timeout = Duration::Minutes(10);
    w.config.gateway.recycle.infected_hold = Duration::Minutes(30);
    w.config.gateway.recycle.max_lifetime = Duration::Zero();
    w.config.gateway_shards = 2;
    WormConfig worm = SlammerLikeWorm(Ipv4Prefix(Ipv4Address(0, 0, 0, 0), 0));
    worm.scan_rate_pps = 15.0;
    w.worm = worm;
    w.worm_seed = SplitMix(seed ^ 0x33);
    w.end_at = TimePoint() + Duration::Minutes(3);
  } else {
    return std::nullopt;
  }
  w.config.seed = SplitMix(seed ^ 0x44);
  return w;
}

// A constructed farm. The worm is declared after the farm so it is destroyed
// first, as in examples/worm_outbreak.
struct Farm {
  std::unique_ptr<Honeyfarm> farm;
  std::unique_ptr<WormRuntime> worm;
};

// Everything from farm construction up to the first dispatched event:
// Start, watchdog and telemetry exporter (as in bench_soak), then one
// ScheduleRecord per trace record or the worm seed.
Farm SetUp(const Workload& w) {
  Farm f;
  f.farm = std::make_unique<Honeyfarm>(w.config);
  Honeyfarm& farm = *f.farm;
  if (w.worm) {
    f.worm = std::make_unique<WormRuntime>(&farm.loop(), *w.worm, w.worm_seed);
    farm.AttachWorm(f.worm.get());
  }
  farm.Start();
  farm.StartWatchdog(Duration::Seconds(5));
  TelemetryExporterConfig telemetry;
  telemetry.interval = Duration::Millis(1000);
  telemetry.source = "farm_bench";
  farm.StartTelemetry(telemetry);
  // Per-record scheduling: ScheduleTrace's batched path for equal
  // timestamps is not used (see README.md).
  for (const TraceRecord& record : w.trace) {
    farm.ScheduleRecord(record);
  }
  if (f.worm) {
    farm.SeedWorm(*f.worm, Ipv4Address(198, 51, 100, 66),
                  w.config.prefix.AddressAt(1));
  }
  return f;
}

TimePoint SliceEnd(const Workload& w, int i) {
  return i == kSlices ? w.end_at
                      : TimePoint() + (w.end_at - TimePoint()) * (
                            static_cast<double>(i) / kSlices);
}

// ---------------------------------------------------------------------------
// Deterministic outputs of one replay, read farm-wide (all shards).

// p99 of a registry latency histogram (bucket upper bound, ~6% resolution),
// in ms.
double P99Ms(const MetricRegistry& metrics, const std::string& name) {
  LatencySnapshot snap;
  metrics.SnapshotLatency(name, &snap);
  return static_cast<double>(snap.Quantile(0.99)) / 1e6;
}

struct Outcome {
  uint64_t events = 0;
  uint64_t rx_packets = 0;
  uint64_t rx_hit = 0;     // every delivery into a guest
  uint64_t rx_queued = 0;  // packets that waited for their clone
  uint64_t tx_outbound = 0;
  uint64_t clones_completed = 0;
  uint64_t clones_failed = 0;
  uint64_t clones_destroyed = 0;
  uint64_t no_capacity_drops = 0;
  uint64_t escapes = 0;
  uint64_t reflected = 0;
  uint64_t handoff_out = 0;
  uint64_t scans = 0;
  uint64_t cow_copies = 0;
  uint64_t peak_frames = 0;
  uint64_t peak_live_vms = 0;
  double datapath_p99_ms = 0.0;
  double clone_p99_ms = 0.0;

  bool operator==(const Outcome&) const = default;
  uint64_t gateway_packets() const { return rx_packets + tx_outbound; }
  uint64_t failures() const {
    return clones_failed + no_capacity_drops + escapes;
  }
};

Outcome ReadOutcome(Farm& f, uint64_t peak_live_vms) {
  Honeyfarm& farm = *f.farm;
  ShardedGateway& gateway = farm.sharded_gateway();
  const MetricRegistry& metrics = farm.obs().metrics;
  const GatewayStats stats = gateway.AggregateStats();
  Outcome o;
  o.events = farm.loop().executed_events();
  o.rx_packets = stats.inbound_packets;
  o.rx_hit = static_cast<uint64_t>(metrics.ValueOf("gateway.rx.hit"));
  o.rx_queued = static_cast<uint64_t>(metrics.ValueOf("gateway.rx.queued"));
  o.tx_outbound = stats.outbound_packets;
  o.clones_completed =
      static_cast<uint64_t>(metrics.ValueOf("clone.completed"));
  o.clones_failed = static_cast<uint64_t>(metrics.ValueOf("clone.failed"));
  o.clones_destroyed =
      static_cast<uint64_t>(metrics.ValueOf("clone.destroyed"));
  o.no_capacity_drops = stats.no_capacity_drops;
  o.handoff_out = stats.handoffs_out;
  for (uint32_t s = 0; s < gateway.shard_count(); ++s) {
    const ContainmentStats& c = gateway.shard(s).containment().stats();
    o.escapes += c.escapes_from_infected;
    o.reflected += c.reflected;
  }
  o.scans = f.worm ? f.worm->stats().scans_sent : 0;
  for (size_t h = 0; h < farm.server_count(); ++h) {
    const FrameAllocator& allocator = farm.server(h).host().allocator();
    o.cow_copies += allocator.total_copies();
    o.peak_frames += allocator.peak_used_frames();
  }
  o.peak_live_vms = peak_live_vms;
  o.datapath_p99_ms = P99Ms(metrics, "gateway.datapath.latency_ns");
  o.clone_p99_ms = P99Ms(metrics, "clone.phase_ns.total");
  return o;
}

// Correctness checks on one replay; prints each failure to stderr.
bool Check(const Workload& w, const Outcome& o) {
  bool ok = true;
  if (!w.trace.empty() && o.rx_packets != w.trace.size()) {
    std::fprintf(stderr,
                 "farm_bench: CHECK FAILED: %zu trace records but "
                 "gateway.rx.packets=%llu\n",
                 w.trace.size(), static_cast<unsigned long long>(o.rx_packets));
    ok = false;
  }
  if (o.escapes != 0) {
    std::fprintf(stderr,
                 "farm_bench: CHECK FAILED: %llu packets from infected VMs "
                 "escaped containment\n",
                 static_cast<unsigned long long>(o.escapes));
    ok = false;
  }
  if (w.worm && o.scans == 0) {
    std::fprintf(stderr, "farm_bench: CHECK FAILED: the worm never scanned\n");
    ok = false;
  }
  if (o.gateway_packets() == 0 || o.clones_completed == 0) {
    std::fprintf(stderr, "farm_bench: CHECK FAILED: no traffic was served\n");
    ok = false;
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Untraced replay

struct Replay {
  Outcome outcome;
  double setup_s = 0.0;
  double run_s = 0.0;
  std::vector<double> slice_ms;  // wall time of each virtual-time slice
  uint64_t allocations = 0;  // heap allocations in the run phase (traced only)
};

uint64_t HeapAllocations() {
#ifdef FARMBENCH_TRACED
  return g_heap_allocations.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

Replay RunUntraced(const Workload& w) {
  Replay r;
  const auto setup_start = Clock::now();
  Farm f = SetUp(w);
  r.setup_s = SecondsSince(setup_start);

  Honeyfarm& farm = *f.farm;
  uint64_t peak_live = farm.TotalLiveVms();
  const uint64_t allocs_before = HeapAllocations();
  const auto run_start = Clock::now();
  auto slice_start = run_start;
  for (int i = 1; i <= kSlices; ++i) {
    farm.RunUntil(SliceEnd(w, i));
    const auto slice_end = Clock::now();
    r.slice_ms.push_back(NanosBetween(slice_start, slice_end) / 1e6);
    slice_start = slice_end;
    peak_live = std::max(peak_live, farm.TotalLiveVms());
  }
  r.run_s = SecondsSince(run_start);
  r.allocations = HeapAllocations() - allocs_before;
  r.outcome = ReadOutcome(f, peak_live);
  return r;
}

// ---------------------------------------------------------------------------
// Traced replay: per-event attribution from public counters.

enum Layer : int {
  kCloneComplete,
  kCloneTeardown,
  kMalwareScan,
  kGatewayIngress,
  kGatewayRecycle,
  kObsExport,
  kGuestDeliver,
  kEventLoopPeek,
  kNumLayers,
};

constexpr std::array<const char*, kNumLayers> kLayerNames = {
    "clone.complete", "clone.teardown",  "malware.scan",
    "gateway.ingress", "gateway.recycle", "obs.export",
    "guest.deliver",  "event_loop.peek"};

// Public counters the attribution watches, resolved once before the run.
class LayerProbe {
 public:
  explicit LayerProbe(Farm& f) : farm_(*f.farm), worm_(f.worm.get()) {
    MetricRegistry& metrics = farm_.obs().metrics;
    // Re-registering an existing counter name returns its live cell.
    completed_ = metrics.RegisterCounter("clone.completed", "count");
    destroyed_ = metrics.RegisterCounter("clone.destroyed", "count");
    rx_packets_ = metrics.RegisterCounter("gateway.rx.packets", "count");
    ShardedGateway& gateway = farm_.sharded_gateway();
    for (uint32_t s = 0; s < gateway.shard_count(); ++s) {
      shard_stats_.push_back(&gateway.shard(s).stats());
    }
    exporter_ = farm_.telemetry();
  }

  struct Reading {
    uint64_t completed, destroyed, scans, rx_packets, retired, exports;
  };

  Reading Read() const {
    Reading r{};
    r.completed = completed_.value();
    r.destroyed = destroyed_.value();
    r.scans = worm_ != nullptr ? worm_->stats().scans_sent : 0;
    r.rx_packets = rx_packets_.value();
    for (const GatewayStats* s : shard_stats_) {
      r.retired += s->vms_retired;
    }
    r.exports = farm_.health().samples_taken() +
                (exporter_ != nullptr ? exporter_->sequence() : 0);
    return r;
  }

  static Layer Attribute(const Reading& a, const Reading& b) {
    if (a.completed != b.completed) return kCloneComplete;
    if (a.destroyed != b.destroyed) return kCloneTeardown;
    if (a.scans != b.scans) return kMalwareScan;
    if (a.rx_packets != b.rx_packets) return kGatewayIngress;
    if (a.retired != b.retired) return kGatewayRecycle;
    if (a.exports != b.exports) return kObsExport;
    return kGuestDeliver;
  }

 private:
  Honeyfarm& farm_;
  const WormRuntime* worm_;
  Counter completed_;
  Counter destroyed_;
  Counter rx_packets_;
  std::vector<const GatewayStats*> shard_stats_;
  const TelemetryExporter* exporter_ = nullptr;
};

struct TracedReplay {
  Outcome outcome;
  double run_s = 0.0;
  std::array<int64_t, kNumLayers> busy_ns{};
  std::array<uint64_t, kNumLayers> events{};
  uint64_t peak_pending = 0;
};

TracedReplay RunTraced(const Workload& w) {
  TracedReplay t;
  Farm f = SetUp(w);
  Honeyfarm& farm = *f.farm;
  EventLoop& loop = farm.loop();
  const LayerProbe probe(f);
  uint64_t peak_live = farm.TotalLiveVms();
  const auto run_start = Clock::now();
  for (int i = 1; i <= kSlices; ++i) {
    const TimePoint until = SliceEnd(w, i);
    for (;;) {
      const auto peek_start = Clock::now();
      const TimePoint next = loop.NextEventTime();
      const auto step_start = Clock::now();
      t.busy_ns[kEventLoopPeek] += NanosBetween(peek_start, step_start);
      ++t.events[kEventLoopPeek];
      t.peak_pending = std::max(t.peak_pending, loop.pending_events());
      if (next > until) {
        break;
      }
      const LayerProbe::Reading before = probe.Read();
      loop.Step();
      const auto step_end = Clock::now();
      const Layer layer = LayerProbe::Attribute(before, probe.Read());
      t.busy_ns[layer] += NanosBetween(step_start, step_end);
      ++t.events[layer];
    }
    // No event is due before `until`; this only advances the clock, exactly as
    // the untraced replay's RunUntil does at each slice boundary.
    farm.RunUntil(until);
    peak_live = std::max(peak_live, farm.TotalLiveVms());
  }
  t.run_s = SecondsSince(run_start);
  t.outcome = ReadOutcome(f, peak_live);
  return t;
}

// Median of a sample (mean of the middle two for an even count).
double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Nearest-rank quantile of an unsorted sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

// Standalone flash clone/destroy cost at the workload's image size, outside
// the farm: median over rounds of the mean per-VM cost of a batch.
struct HvProbe {
  double create_us = 0.0;
  double destroy_us = 0.0;
};

HvProbe MeasureHv(const Workload& w) {
  constexpr int kRounds = 15;
  constexpr int kBatch = 64;
  PhysicalHostConfig host_config = w.config.server_template.host;
  PhysicalHost host(host_config);
  const ImageId image = host.RegisterImage(w.config.server_template.image);
  std::vector<std::string> names;
  for (int i = 0; i < kBatch; ++i) {
    names.push_back("probe" + std::to_string(i));
  }
  std::vector<double> create_us;
  std::vector<double> destroy_us;
  std::vector<VmId> vms;
  for (int round = 0; round <= kRounds; ++round) {
    vms.clear();
    const auto create_start = Clock::now();
    for (int i = 0; i < kBatch; ++i) {
      VirtualMachine* vm = host.CreateClone(image, CloneKind::kFlash, names[i]);
      if (vm == nullptr) {
        break;
      }
      vms.push_back(vm->id());
    }
    const auto destroy_start = Clock::now();
    for (VmId id : vms) {
      host.DestroyVm(id);
    }
    const auto destroy_end = Clock::now();
    if (round == 0 || vms.empty()) {
      continue;  // warm-up round
    }
    const double n = static_cast<double>(vms.size());
    create_us.push_back(NanosBetween(create_start, destroy_start) / 1e3 / n);
    destroy_us.push_back(NanosBetween(destroy_start, destroy_end) / 1e3 / n);
  }
  return HvProbe{Median(create_us), Median(destroy_us)};
}

// ---------------------------------------------------------------------------
// Output

double PeakRssMb() {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof(line), file) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) {
        std::fclose(file);
        return std::strtod(line + 6, nullptr) / 1024.0;
      }
    }
    std::fclose(file);
  }
  return 0.0;
}

class JsonMetrics {
 public:
  void Add(const char* name, double value, const char* unit) {
    body_ += body_.empty() ? "" : ", ";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", name, value,
                  unit);
    body_ += buf;
  }
  void Add(const std::string& name, double value, const char* unit) {
    Add(name.c_str(), value, unit);
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

void PrintResult(bool correct, const Outcome& o, const JsonMetrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(
                  std::max<uint64_t>(o.gateway_packets(), 1)),
              static_cast<unsigned long long>(o.failures()),
              metrics.body().c_str());
  std::fflush(stdout);
}

// The deterministic counters of one replay as a JSON object (stderr only;
// the benchmark's tests compare these across runs).
std::string OutcomeJson(const Outcome& o) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"events\": %llu, \"rx_packets\": %llu, \"rx_hit\": %llu, "
      "\"rx_queued\": %llu, \"tx_outbound\": %llu, \"clones_completed\": %llu, "
      "\"clones_failed\": %llu, \"clones_destroyed\": %llu, "
      "\"no_capacity_drops\": %llu, \"escapes\": %llu, \"reflected\": %llu, "
      "\"handoff_out\": %llu, \"scans\": %llu, \"cow_copies\": %llu, "
      "\"sim_peak_frames\": %llu, \"sim_peak_live_vms\": %llu, "
      "\"sim_datapath_p99_ms\": %.17g, \"sim_clone_p99_ms\": %.17g}",
      static_cast<unsigned long long>(o.events),
      static_cast<unsigned long long>(o.rx_packets),
      static_cast<unsigned long long>(o.rx_hit),
      static_cast<unsigned long long>(o.rx_queued),
      static_cast<unsigned long long>(o.tx_outbound),
      static_cast<unsigned long long>(o.clones_completed),
      static_cast<unsigned long long>(o.clones_failed),
      static_cast<unsigned long long>(o.clones_destroyed),
      static_cast<unsigned long long>(o.no_capacity_drops),
      static_cast<unsigned long long>(o.escapes),
      static_cast<unsigned long long>(o.reflected),
      static_cast<unsigned long long>(o.handoff_out),
      static_cast<unsigned long long>(o.scans),
      static_cast<unsigned long long>(o.cow_copies),
      static_cast<unsigned long long>(o.peak_frames),
      static_cast<unsigned long long>(o.peak_live_vms), o.datapath_p99_ms,
      o.clone_p99_ms);
  return buf;
}

bool SameOutcome(const char* what, const Outcome& a, const Outcome& b) {
  if (a == b) {
    return true;
  }
  std::fprintf(stderr, "farm_bench: CHECK FAILED: %s diverged:\n  %s\n  %s\n",
               what, OutcomeJson(a).c_str(), OutcomeJson(b).c_str());
  return false;
}

int RunEndToEnd(const Workload& w, double seconds) {
  // Per-replay figures; each metric is their median, so one replay disturbed
  // by another tenant of the host does not move it.
  std::vector<double> pkts_per_s;
  std::vector<double> slice_p99;
  std::vector<double> setup_s;
  double run_s = 0.0;
  std::optional<Outcome> first;
  bool correct = true;
  // Set-up alone is tens of milliseconds, so it is sampled several times
  // (each farm is built, scheduled and discarded) and reported as a median.
  for (int i = 0; i < kExtraSetups; ++i) {
    const auto setup_start = Clock::now();
    const Farm f = SetUp(w);
    setup_s.push_back(SecondsSince(setup_start));
  }
  // Whole replays only: another one starts when it should still end within
  // --seconds of the first replay's start.
  const auto replays_start = Clock::now();
  double peak_rss_mb = 0.0;
  double last_replay_s = 0.0;
  for (uint64_t rep = 0;
       rep == 0 || SecondsSince(replays_start) + last_replay_s <= seconds;
       ++rep) {
    const auto replay_start = Clock::now();
    Replay r = RunUntraced(w);
    last_replay_s = SecondsSince(replay_start);
    std::fprintf(stderr, "farm_bench: replay %llu: %.3f s set-up, %.3f s run\n",
                 static_cast<unsigned long long>(rep), r.setup_s, r.run_s);
    setup_s.push_back(r.setup_s);
    run_s += r.run_s;
    pkts_per_s.push_back(static_cast<double>(r.outcome.gateway_packets()) /
                         r.run_s);
    slice_p99.push_back(Quantile(r.slice_ms, 0.99));
    correct = Check(w, r.outcome) && correct;
    if (!first) {
      first = r.outcome;
      // Later replays reuse the freed heap but may still nudge the
      // high-water mark; read it once so it does not depend on their count.
      peak_rss_mb = PeakRssMb();
    } else {
      correct = SameOutcome("a repeated replay", *first, r.outcome) && correct;
    }
  }
  const Outcome& o = *first;
  JsonMetrics m;
  m.Add("setup_s", Median(setup_s), "s");
  m.Add("pkts_per_s", Median(pkts_per_s), "pkts/s");
  m.Add("slice_wall_ms_p99", Median(slice_p99), "ms");
  m.Add("peak_rss_mb", peak_rss_mb, "MB");
  m.Add("sim_peak_live_vms", static_cast<double>(o.peak_live_vms), "VMs");
  m.Add("sim_peak_frames", static_cast<double>(o.peak_frames), "frames");
  std::fprintf(stderr, "farm_bench: %s: %zu replay(s), %.3f s run wall\n",
               w.name.c_str(), pkts_per_s.size(), run_s);
  std::fprintf(stderr, "farm_bench: outcome %s\n", OutcomeJson(o).c_str());
  PrintResult(correct, o, m);
  return correct ? 0 : 1;
}

int RunLayered(const Workload& w) {
  const Replay plain = RunUntraced(w);
  const TracedReplay traced = RunTraced(w);
  const bool plain_ok = Check(w, plain.outcome);
  const bool traced_ok = Check(w, traced.outcome);
  const bool correct =
      SameOutcome("the traced replay", plain.outcome, traced.outcome) &&
      plain_ok && traced_ok;
  const HvProbe hv = MeasureHv(w);

  const Outcome& o = plain.outcome;
  const double packets =
      static_cast<double>(std::max<uint64_t>(o.gateway_packets(), 1));
  JsonMetrics m;
  int64_t attributed_ns = 0;
  for (int layer = 0; layer < kNumLayers; ++layer) {
    const std::string name = kLayerNames[layer];
    const double busy_ms = static_cast<double>(traced.busy_ns[layer]) / 1e6;
    const uint64_t events = traced.events[layer];
    attributed_ns += traced.busy_ns[layer];
    m.Add(name + ".busy_ms", busy_ms, "ms");
    m.Add(name + ".events", static_cast<double>(events), "count");
    m.Add(name + ".us_per_event",
          events == 0 ? 0.0 : busy_ms * 1e3 / static_cast<double>(events),
          "us");
  }
  const double traced_ms = traced.run_s * 1e3;
  m.Add("trace.unattributed_ms",
        traced_ms - static_cast<double>(attributed_ns) / 1e6, "ms");
  m.Add("trace.overhead_ratio", traced.run_s / plain.run_s, "ratio");
  m.Add("hv.create_clone_us", hv.create_us, "us");
  m.Add("hv.destroy_vm_us", hv.destroy_us, "us");
  m.Add("event_loop.peak_pending", static_cast<double>(traced.peak_pending),
        "count");
  m.Add("event_loop.events_per_pkt", static_cast<double>(o.events) / packets,
        "ratio");
  // Share of deliveries that found a live binding (did not wait for a clone).
  // rx.hit counts every delivery, including reflected scans that never pass
  // rx.packets, so it is the base rather than rx.packets.
  const uint64_t direct_hits = o.rx_hit - std::min(o.rx_queued, o.rx_hit);
  m.Add("gateway.rx.hit_ratio",
        o.rx_hit == 0 ? 0.0
                      : static_cast<double>(direct_hits) /
                            static_cast<double>(o.rx_hit),
        "ratio");
  m.Add("alloc.per_pkt", static_cast<double>(plain.allocations) / packets,
        "count/pkt");
  m.Add("containment.reflected", static_cast<double>(o.reflected), "count");
  m.Add("gateway.handoff.out", static_cast<double>(o.handoff_out), "count");
  m.Add("hv.peak_used_frames", static_cast<double>(o.peak_frames), "frames");
  m.Add("hv.cow_copies", static_cast<double>(o.cow_copies), "count");
  m.Add("clone.completed", static_cast<double>(o.clones_completed), "count");
  m.Add("clone.failed", static_cast<double>(o.clones_failed), "count");
  m.Add("fail_ratio", static_cast<double>(o.failures()) / packets, "ratio");
  // Virtual-time latency tails; they can read 0 or repeat across seeds, so
  // they are reported here rather than as end-to-end metrics.
  m.Add("sim_datapath_p99_ms", o.datapath_p99_ms, "virtual_ms");
  m.Add("sim_clone_p99_ms", o.clone_p99_ms, "virtual_ms");
  // The typical slice's wall time swings with the host's memory contention
  // more than any other wall-clock figure, so it is reported without a bound.
  m.Add("slice_wall_ms_p50", Quantile(plain.slice_ms, 0.50), "ms");
  std::fprintf(stderr,
               "farm_bench: %s traced: %.3f s traced wall vs %.3f s untraced, "
               "%.1f%% attributed\n",
               w.name.c_str(), traced.run_s, plain.run_s,
               100.0 * static_cast<double>(attributed_ns) / 1e9 / traced.run_s);
  std::fprintf(stderr, "farm_bench: outcome %s\n", OutcomeJson(o).c_str());
  PrintResult(correct, o, m);
  return correct ? 0 : 1;
}

#ifdef FARMBENCH_TRACED
constexpr bool kTracedBinary = true;
#else
constexpr bool kTracedBinary = false;
#endif

int Main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  for (const std::string& name : flags.Names()) {
    if (name != "workload" && name != "seed" && name != "seconds") {
      std::fprintf(stderr, "farm_bench: unknown flag --%s\n", name.c_str());
      return 2;
    }
  }
  const std::string name = flags.GetString("workload", "");
  const std::optional<Workload> workload =
      MakeWorkload(name, flags.GetUint("seed", 1));
  if (!workload) {
    std::fprintf(stderr,
                 "farm_bench: --workload must be telescope_churn, hot_prefix "
                 "or worm_reflect\n");
    return 2;
  }
  // The allocation counter lives only in the traced binary, so each binary
  // serves exactly one of the two runs.
  if (kTracedBinary) {
    return RunLayered(*workload);
  }
  return RunEndToEnd(*workload, flags.GetDouble("seconds", 54.0));
}

}  // namespace
}  // namespace potemkin

int main(int argc, char** argv) { return potemkin::Main(argc, argv); }
