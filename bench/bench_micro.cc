// Micro-benchmarks (google-benchmark) of the hot paths underneath every
// experiment: packet construction/parsing/checksums, CoW fault handling, flash
// clone mechanics, flow tracking, and reflection target computation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>
#include <vector>

#include "src/base/event_loop.h"
#include "src/base/spsc_ring.h"
#include "src/gateway/binding_table.h"
#include "src/gateway/containment.h"
#include "src/hv/physical_host.h"
#include "src/net/checksum.h"
#include "src/net/flow.h"
#include "src/net/packet.h"
#include "src/net/packet_pool.h"
#include "src/obs/event_ledger.h"
#include "src/obs/observability.h"
#include "src/obs/watchdog.h"

namespace potemkin {
namespace {

const Ipv4Prefix kFarm(Ipv4Address(10, 1, 0, 0), 16);

PacketSpec SynSpec(uint32_t salt) {
  PacketSpec spec;
  spec.src_mac = MacAddress::FromId(1);
  spec.dst_mac = MacAddress::FromId(2);
  spec.src_ip = Ipv4Address(198, 51, 100, static_cast<uint8_t>(salt));
  spec.dst_ip = kFarm.AddressAt(salt % 65536);
  spec.proto = IpProto::kTcp;
  spec.src_port = static_cast<uint16_t>(1024 + salt % 60000);
  spec.dst_port = 445;
  spec.tcp_flags = TcpFlags::kSyn;
  return spec;
}

void BM_BuildPacket(benchmark::State& state) {
  uint32_t salt = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildPacket(SynSpec(++salt)));
  }
}
BENCHMARK(BM_BuildPacket);

void BM_ParsePacket(benchmark::State& state) {
  const Packet packet = BuildPacket(SynSpec(7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(PacketView::Parse(packet));
  }
}
BENCHMARK(BM_ParsePacket);

void BM_ValidateChecksums(benchmark::State& state) {
  PacketSpec spec = SynSpec(7);
  spec.payload.assign(static_cast<size_t>(state.range(0)), 0xab);
  const Packet packet = BuildPacket(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ValidateChecksums(packet));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(packet.size()));
}
BENCHMARK(BM_ValidateChecksums)->Arg(0)->Arg(512)->Arg(1400);

void BM_RewriteDst(benchmark::State& state) {
  Packet packet = BuildPacket(SynSpec(7));
  uint32_t salt = 0;
  for (auto _ : state) {
    RewriteIpv4Dst(packet, kFarm.AddressAt(++salt % 65536));
    benchmark::DoNotOptimize(packet);
  }
}
BENCHMARK(BM_RewriteDst);

// ---- CoW fault family ----
//
// Four benchmarks spanning {per-page, batched} x {kStoreBytes, kMetadataOnly}.
// The split matters because the two modes are dominated by different costs:
//
//  - kStoreBytes pays a real 4 KiB copy per CoW break. That copy is
//    memcpy-bandwidth-bound and identical for both paths, so it floods the
//    comparison: the per-page path's extra machinery (heap alloc/free, per-page
//    capacity checks and refcount settling) is only ~2x the copy itself.
//  - kMetadataOnly — the mode every large-scale farm bench runs in, including
//    the 2000-clone density storm — is pure fault machinery, which is exactly
//    what the batch API amortises: one reservation, one bookkeeping flush,
//    bulk PTE flips.
//
// BM_CowFault keeps its original shape (the committed perf-trajectory
// baseline); BM_CowFaultBatch is the flash-clone pipeline as PhysicalHost
// drives it (BindBase + FaultRange) in the density farm's metadata
// mode; the *Bytes/*Meta variants fill in the other two cells so the matrix
// is complete. items = pages for all four, so per-item times and
// items_per_second compare directly.

void BM_CowFault(benchmark::State& state) {
  // Measures a single CoW break: map shared, write one byte, unmap, repeat.
  FrameAllocator alloc(1 << 20, ContentMode::kStoreBytes);
  const FrameId shared = alloc.AllocateZeroed();
  const uint8_t data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  alloc.Write(shared, 0, std::span(data, 8));
  AddressSpace as(&alloc, 1);
  for (auto _ : state) {
    as.MapSharedCow(0, shared);
    benchmark::DoNotOptimize(as.WriteGuest(0, std::span(data, 8)));
  }
  alloc.Unref(shared);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CowFault);

void BM_CowFaultMeta(benchmark::State& state) {
  // Per-page CoW break with accounting-only frames: the per-page machinery
  // floor, with no copy and no heap traffic.
  FrameAllocator alloc(1 << 20, ContentMode::kMetadataOnly);
  const FrameId shared = alloc.AllocateZeroed();
  const uint8_t data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  AddressSpace as(&alloc, 1);
  for (auto _ : state) {
    as.MapSharedCow(0, shared);
    benchmark::DoNotOptimize(as.WriteGuest(0, std::span(data, 8)));
  }
  alloc.Unref(shared);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CowFaultMeta);

template <ContentMode kMode>
void CowFaultBatchImpl(benchmark::State& state) {
  // A run of pending CoW faults resolved through the flash-clone pipeline:
  // bind the image run with BindBase, resolve every fault with one
  // FaultRange call (one reservation, pooled buffers, bulk bookkeeping),
  // recycle with ReleaseAll.
  const uint32_t run = static_cast<uint32_t>(state.range(0));
  FrameAllocator alloc(1 << 20, kMode);
  const FrameId shared = alloc.AllocateZeroed();
  const uint8_t data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  alloc.Write(shared, 0, std::span(data, 8));
  const std::vector<FrameId> frames(run, shared);
  AddressSpace as(&alloc, run);
  for (auto _ : state) {
    as.ReleaseAll();
    as.BindBase(frames);
    benchmark::DoNotOptimize(as.FaultRange(0, run));
  }
  alloc.Unref(shared);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * run);
}

void BM_CowFaultBatch(benchmark::State& state) {
  CowFaultBatchImpl<ContentMode::kMetadataOnly>(state);
}
BENCHMARK(BM_CowFaultBatch)->Arg(16)->Arg(64)->Arg(256);

void BM_CowFaultBatchBytes(benchmark::State& state) {
  CowFaultBatchImpl<ContentMode::kStoreBytes>(state);
}
BENCHMARK(BM_CowFaultBatchBytes)->Arg(16)->Arg(64)->Arg(256);

void BM_GuestWriteNoFault(benchmark::State& state) {
  FrameAllocator alloc(1 << 16, ContentMode::kStoreBytes);
  AddressSpace as(&alloc, 16);
  const uint8_t data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  as.WriteGuest(0, std::span(data, 8));  // materialize
  for (auto _ : state) {
    benchmark::DoNotOptimize(as.WriteGuest(0, std::span(data, 8)));
  }
}
BENCHMARK(BM_GuestWriteNoFault);

// Flash-clone set-up and teardown on a metadata-only host. A clone binds its
// image generation in O(1), so both rows stay flat from 2,048 to 32,768 image
// pages (CI checks the 32,768/2,048 ratio of each within one run).
struct CloneBenchHost {
  explicit CloneBenchHost(uint32_t num_pages) : host(Config()) {
    ReferenceImageConfig image_config;
    image_config.num_pages = num_pages;
    image = host.RegisterImage(image_config);
  }
  static PhysicalHostConfig Config() {
    PhysicalHostConfig config;
    config.memory_mb = 8192;
    config.content_mode = ContentMode::kMetadataOnly;
    return config;
  }
  PhysicalHost host;
  ImageId image = 0;
};

void BM_FlashCloneMechanics(benchmark::State& state) {
  // CreateClone alone; clones are destroyed in untimed batches.
  CloneBenchHost bench(static_cast<uint32_t>(state.range(0)));
  std::vector<VmId> live;
  live.reserve(256);
  for (auto _ : state) {
    VirtualMachine* vm = bench.host.CreateClone(bench.image, CloneKind::kFlash, "b");
    benchmark::DoNotOptimize(vm);
    live.push_back(vm->id());
    if (live.size() == 256) {
      state.PauseTiming();
      for (const VmId id : live) {
        bench.host.DestroyVm(id);
      }
      live.clear();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_FlashCloneMechanics)->Arg(2048)->Arg(8192)->Arg(32768);

void BM_CloneTeardown(benchmark::State& state) {
  // One clone's whole lifetime: CreateClone + DestroyVm.
  CloneBenchHost bench(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    VirtualMachine* vm = bench.host.CreateClone(bench.image, CloneKind::kFlash, "b");
    benchmark::DoNotOptimize(vm);
    bench.host.DestroyVm(vm->id());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_CloneTeardown)->Arg(2048)->Arg(8192)->Arg(32768);

void BM_FlowTableRecord(benchmark::State& state) {
  FlowTable table(Duration::Seconds(60), 1 << 20);
  std::vector<Packet> packets;
  for (uint32_t i = 0; i < 4096; ++i) {
    packets.push_back(BuildPacket(SynSpec(i)));
  }
  std::vector<PacketView> views;
  for (const auto& p : packets) {
    views.push_back(*PacketView::Parse(p));
  }
  TimePoint now;
  size_t i = 0;
  for (auto _ : state) {
    now += Duration::Micros(1);
    benchmark::DoNotOptimize(table.Record(views[i++ % views.size()], now));
  }
}
BENCHMARK(BM_FlowTableRecord);

void BM_EventLoopScheduleRun(benchmark::State& state) {
  // Schedule-then-drain batches: the per-event cost of the simulation core.
  // The batch size is the number of events in flight; a loaded farm keeps tens
  // of thousands pending (one recycle timer per bound address).
  EventLoop loop;
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      loop.ScheduleAfter(Duration::Nanos(i), [] {});
    }
    loop.RunAll();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_EventLoopScheduleRun)->Arg(256)->Arg(4096)->Arg(16384);

void BM_EventLoopScheduleCancel(benchmark::State& state) {
  // The recycler pattern: arm far-future timers, cancel, re-arm.
  EventLoop loop;
  const int batch = static_cast<int>(state.range(0));
  std::vector<EventHandle> handles(static_cast<size_t>(batch));
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      handles[static_cast<size_t>(i)] =
          loop.ScheduleAfter(Duration::Hours(1), [] {});
    }
    for (int i = 0; i < batch; ++i) {
      loop.Cancel(handles[static_cast<size_t>(i)]);
    }
    loop.RunAll();  // drains any cancelled residue without advancing work
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_EventLoopScheduleCancel)->Arg(256)->Arg(4096)->Arg(16384);

void BM_BindingLookupHit(benchmark::State& state) {
  // The per-packet gateway lookup against a populated table. Probe addresses
  // are precomputed (the measurement is the lookup, not address arithmetic) and
  // shuffled, since packet arrivals carry no relation to binding-creation order.
  BindingTable table;
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Ipv4Address> probes;
  probes.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Ipv4Address ip = kFarm.AddressAt((i * 7) % 65536);
    table.CreatePending(ip, 0, TimePoint());
    probes.push_back(ip);
  }
  std::shuffle(probes.begin(), probes.end(), std::mt19937(12345));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Find(probes[i]));
    if (++i == n) {
      i = 0;
    }
  }
}
BENCHMARK(BM_BindingLookupHit)->Arg(4096)->Arg(65536);

void BM_BindingChurn(benchmark::State& state) {
  // Create/activate/remove lifecycle, as driven by clone + recycle.
  BindingTable table;
  std::vector<Ipv4Address> addrs;
  addrs.reserve(65536);
  for (uint32_t i = 0; i < 65536; ++i) {
    addrs.push_back(kFarm.AddressAt(i));
  }
  size_t i = 0;
  for (auto _ : state) {
    const Ipv4Address ip = addrs[i];
    if (++i == addrs.size()) {
      i = 0;
    }
    table.CreatePending(ip, 0, TimePoint());
    table.Activate(ip, 1, TimePoint());
    table.Remove(ip);
  }
}
BENCHMARK(BM_BindingChurn);

void BM_ReflectTarget(benchmark::State& state) {
  ContainmentConfig config;
  ContainmentEngine engine(config, kFarm, 42);
  uint32_t salt = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.ReflectTarget(Ipv4Address(++salt), kFarm.AddressAt(1)));
  }
}
BENCHMARK(BM_ReflectTarget);

void BM_PacketPoolAcquireRelease(benchmark::State& state) {
  // Steady-state buffer recycling: after the first iteration every Acquire is
  // a freelist hit, so this is the pooled replacement for a malloc/free pair.
  PacketPool pool;
  const size_t size = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    std::vector<uint8_t> buffer = pool.Acquire(size);
    benchmark::DoNotOptimize(buffer.data());
    pool.Release(std::move(buffer));
  }
}
BENCHMARK(BM_PacketPoolAcquireRelease)->Arg(60)->Arg(576)->Arg(1514);

void BM_HeapAcquireRelease(benchmark::State& state) {
  // The allocation pair the pool replaces, for the before/after column.
  const size_t size = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    std::vector<uint8_t> buffer(size, 0);
    benchmark::DoNotOptimize(buffer.data());
  }
}
BENCHMARK(BM_HeapAcquireRelease)->Arg(60)->Arg(576)->Arg(1514);

void BM_ChecksumUpdate32(benchmark::State& state) {
  // One RFC 1624 delta: the per-rewrite checksum cost on the reflection path.
  uint16_t sum = 0x1234;
  uint32_t salt = 0;
  for (auto _ : state) {
    ++salt;
    sum = ChecksumUpdate32(sum, salt, salt * 2654435761u);
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_ChecksumUpdate32);

// Reference full-recompute rewrite (the seed's strategy) so BM_RewriteDst has
// a visible before/after in the same report. Uses only the public checksum
// API; correctness against the incremental path is covered in packet_test.
void RewriteDstFullRecompute(Packet& packet, Ipv4Address new_dst) {
  auto& b = packet.mutable_bytes();
  b[kEthernetHeaderSize + 16] = static_cast<uint8_t>(new_dst.value() >> 24);
  b[kEthernetHeaderSize + 17] = static_cast<uint8_t>(new_dst.value() >> 16);
  b[kEthernetHeaderSize + 18] = static_cast<uint8_t>(new_dst.value() >> 8);
  b[kEthernetHeaderSize + 19] = static_cast<uint8_t>(new_dst.value());
  const size_t ihl = static_cast<size_t>(b[kEthernetHeaderSize] & 0x0f) * 4;
  b[kEthernetHeaderSize + 10] = 0;
  b[kEthernetHeaderSize + 11] = 0;
  const uint16_t ip_sum = ComputeInternetChecksum(&b[kEthernetHeaderSize], ihl);
  b[kEthernetHeaderSize + 10] = static_cast<uint8_t>(ip_sum >> 8);
  b[kEthernetHeaderSize + 11] = static_cast<uint8_t>(ip_sum);
  const size_t l4 = kEthernetHeaderSize + ihl;
  const size_t l4_len = b.size() - l4;
  b[l4 + 16] = 0;
  b[l4 + 17] = 0;
  InternetChecksum sum;
  sum.Add(&b[kEthernetHeaderSize + 12], 8);
  sum.AddU16(static_cast<uint16_t>(IpProto::kTcp));
  sum.AddU16(static_cast<uint16_t>(l4_len));
  sum.Add(&b[l4], l4_len);
  const uint16_t l4_sum = sum.Finish();
  b[l4 + 16] = static_cast<uint8_t>(l4_sum >> 8);
  b[l4 + 17] = static_cast<uint8_t>(l4_sum);
}

void BM_RewriteDstFullRecompute(benchmark::State& state) {
  Packet packet = BuildPacket(SynSpec(7));
  uint32_t salt = 0;
  for (auto _ : state) {
    RewriteDstFullRecompute(packet, kFarm.AddressAt(++salt % 65536));
    benchmark::DoNotOptimize(packet);
  }
}
BENCHMARK(BM_RewriteDstFullRecompute);

// ---- Observability hot-path primitives ----
// These are the operations the instrumented gateway pays per packet; the
// budget for the whole metrics layer is single-digit nanoseconds per packet.

void BM_ObsCounterInc(benchmark::State& state) {
  MetricRegistry registry;
  Counter counter = registry.RegisterCounter("bench.counter", "count");
  for (auto _ : state) {
    counter.Inc();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsHistogramRecord(benchmark::State& state) {
  MetricRegistry registry;
  FixedHistogram histogram = registry.RegisterHistogram(
      "bench.histogram", "bytes", LinearBuckets(64.0, 256.0, 8));
  double value = 0.0;
  for (auto _ : state) {
    value = value < 2048.0 ? value + 97.0 : 0.0;  // sweep across the buckets
    histogram.Record(value);
  }
  benchmark::DoNotOptimize(histogram.count());
}
BENCHMARK(BM_ObsHistogramRecord);

void BM_LedgerAppend(benchmark::State& state) {
  // The forensic record every delivered packet pays: one in-place ring write.
  // Runs long past capacity so the steady state measured is the wrapping
  // (evicting) ring, exactly as on a loaded farm.
  EventLedger ledger(8192);
  int64_t now = 0;
  uint32_t salt = 0;
  for (auto _ : state) {
    ++salt;
    ledger.Append(LedgerEvent::kPacketDelivered,
                  static_cast<SessionId>(1 + (salt & 0xff)), now += 50,
                  0xc6330000u + salt, 418);
  }
  benchmark::DoNotOptimize(ledger.appended());
}
BENCHMARK(BM_LedgerAppend);

// Adjacent counters in one registry, hammered from N threads (each gateway
// shard's hot counters register back to back, so this is their layout).
// With the value cells cache-line aligned, per-op cost should stay flat from
// 1 to 8 threads; false sharing would show as superlinear per-op growth.
struct AdjacentCounterBed {
  static constexpr size_t kLanes = 16;
  MetricRegistry registry;
  std::vector<Counter> counters;
  AdjacentCounterBed() {
    for (size_t i = 0; i < kLanes; ++i) {
      counters.push_back(registry.RegisterCounter(
          "bench.adjacent." + std::to_string(i), "count"));
    }
  }
  static AdjacentCounterBed& Get() {
    static AdjacentCounterBed* const bed = new AdjacentCounterBed();
    return *bed;
  }
};

void BM_MetricAdd(benchmark::State& state) {
  Counter counter =
      AdjacentCounterBed::Get().counters[static_cast<size_t>(
          state.thread_index()) % AdjacentCounterBed::kLanes];
  for (auto _ : state) {
    counter.Inc();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_MetricAdd)->Threads(1)->Threads(4)->Threads(8)->UseRealTime();

void BM_SpscRingPushPop(benchmark::State& state) {
  // Uncontended cost of one handoff-ring round trip (both sides, one thread):
  // the fixed toll a packet pays for crossing a shard boundary before any
  // cross-core traffic exists.
  SpscRing<uint64_t> ring(1024);
  uint64_t value = 0;
  uint64_t out = 0;
  for (auto _ : state) {
    uint64_t item = value++;
    ring.TryPush(std::move(item));
    benchmark::DoNotOptimize(ring.TryPop(&out));
  }
}
BENCHMARK(BM_SpscRingPushPop);

SpscRing<uint64_t>* g_transfer_ring = nullptr;

void BM_SpscRingTransfer(benchmark::State& state) {
  // True producer/consumer transfer across two cores: thread 0 pushes, thread
  // 1 pops. Measures the cached-index design's steady state, where the
  // cross-core load is amortized over a ring traversal.
  if (state.thread_index() == 0) {
    g_transfer_ring = new SpscRing<uint64_t>(4096);
  }
  if (state.thread_index() == 0) {
    uint64_t value = 0;
    for (auto _ : state) {
      uint64_t item = value++;
      while (!g_transfer_ring->TryPush(std::move(item))) {
      }
    }
  } else {
    uint64_t out = 0;
    for (auto _ : state) {
      while (!g_transfer_ring->TryPop(&out)) {
      }
      benchmark::DoNotOptimize(out);
    }
  }
  if (state.thread_index() == 0) {
    delete g_transfer_ring;
    g_transfer_ring = nullptr;
  }
}
BENCHMARK(BM_SpscRingTransfer)->Threads(2)->UseRealTime();

void BM_WatchdogEvaluate(benchmark::State& state) {
  // One full sweep of the starter rule set over a realistically sized
  // snapshot. Paid once per health sample (1 Hz virtual), not per packet —
  // this pins the trajectory of rule evaluation, which scans the metric rows
  // per rule. Values sit inside every hysteresis band so no transition (and
  // no ledger write) happens in the loop.
  Watchdog dog;
  dog.AddRules(DefaultFarmRules());
  HealthSnapshot snapshot;
  snapshot.source = "bench";
  snapshot.metrics.push_back({"clone.latency_ms_p99", 40.0, "ms"});
  snapshot.metrics.push_back({"farm.mem.frame_watermark", 0.4, "ratio"});
  snapshot.metrics.push_back({"gateway.recycle.backlog", 3.0, "count"});
  snapshot.metrics.push_back(
      {"gateway.containment.escapes_from_infected", 0.0, "count"});
  snapshot.metrics.push_back({"gateway.drops.total", 0.0, "count"});
  for (uint32_t i = 0; i < 40; ++i) {  // filler rows the rules must skip past
    snapshot.metrics.push_back(
        {"farm.filler." + std::to_string(i), static_cast<double>(i), "count"});
  }
  int64_t t = 0;
  for (auto _ : state) {
    snapshot.time_ns = t += 1000000000;
    dog.Evaluate(snapshot);
  }
  benchmark::DoNotOptimize(dog.evaluations());
}
BENCHMARK(BM_WatchdogEvaluate);

}  // namespace
}  // namespace potemkin

BENCHMARK_MAIN();
