// Sharded gateway: N per-shard datapaths behind one gateway-shaped facade.
//
// The single-core gateway tops out when one thread must parse, look up, and
// route every telescope packet. ShardedGateway breaks that ceiling by running
// `shard_count` independent Gateway instances, each owning the farm addresses
// whose low bits equal its shard id — binding table, flow table, containment
// state, scan detector and reflection NAT are all partitioned, so the hit path
// of one shard never takes a lock and never touches another shard's memory.
// Traffic that crosses the partition (reflection and farm-internal forwards
// whose rewritten destination hashes elsewhere) is enqueued on a bounded
// lock-free SPSC ring per ordered shard pair instead of routed inline.
//
// Two deployment modes:
//
//  * Shared-loop (Honeyfarm): every shard runs on the caller's EventLoop,
//    Observability, and backend — still strictly single-threaded and
//    deterministic. Handoff rings are pumped inline in shard order, so the
//    event schedule is a pure function of the input. With shard_count == 1
//    this is a byte-identical passthrough to a bare Gateway: same metric
//    names, same session ids, same stdout.
//
//  * Partitioned (benchmarks, parallel drains): each shard owns its own
//    EventLoop, Observability bundle, and PacketPool, and the caller supplies
//    one backend per shard. `RunUntilIdle` advances the shard loops in global
//    virtual-time order (barrier merge) for deterministic single-thread
//    execution; `DrainParallel` runs one real thread per shard for wall-clock
//    scaling measurements. Packets crossing shards are re-targeted at the
//    consumer's pool, so buffer recycling never races.
//
// Telemetry: counters keep their farm-wide names in both modes (same-name
// registration shares one atomic cell, so shards aggregate for free). Probes
// cannot share a name, so sharded-mode shards publish under "gateway.s<i>."
// and this facade re-registers farm-wide rollups under the original names —
// watchdog rules and health snapshots keep working unchanged.
#ifndef SRC_GATEWAY_SHARDED_GATEWAY_H_
#define SRC_GATEWAY_SHARDED_GATEWAY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/base/event_loop.h"
#include "src/base/spsc_ring.h"
#include "src/gateway/gateway.h"
#include "src/net/packet_pool.h"
#include "src/obs/observability.h"

namespace potemkin {

struct ShardedGatewayConfig {
  // Per-shard template; shard_id/shard_count (and, in partitioned mode, obs)
  // are overwritten for each instance. When shard_count > 1 the scan
  // detector's distinct_threshold is scaled down by the shard count (floor 1):
  // each shard only sees the distinct destinations it owns, so a source
  // spraying the farm accumulates ~1/N of its distinct-dst count per shard —
  // without the rescale it would be flagged ~N× later than unsharded. The
  // trade-off: a source targeting a single shard's addresses flags up to N×
  // earlier (see DESIGN.md §10).
  GatewayConfig gateway;
  // Must be a power of two (address bits partition evenly).
  uint32_t shard_count = 1;
  // Capacity of each directed (producer, consumer) handoff ring, in packets.
  size_t handoff_ring_capacity = 4096;
  // Optional: pre-size each shard's binding index for an expected load so a
  // populate burst never rehashes mid-measurement.
  size_t reserve_bindings_per_shard = 0;
};

// The shard count examples and soaks default to: the largest power of two
// <= hardware_concurrency(), capped at 8 (shard scaling flattens past the
// core count; see BENCH_gateway_shard_scaling.json). Single-core hosts get 1,
// which keeps the deterministic stdout of every example byte-identical to the
// unsharded farm.
uint32_t DefaultGatewayShards();

class ShardedGateway {
 public:
  // Shared-loop mode: all shards share `loop`, `backend`, and the template's
  // Observability. Deterministic; what the Honeyfarm embeds.
  ShardedGateway(EventLoop* loop, const ShardedGatewayConfig& config,
                 GatewayBackend* backend);
  // Partitioned mode: one backend per shard; this object owns a private
  // EventLoop, Observability, and PacketPool per shard.
  ShardedGateway(const ShardedGatewayConfig& config,
                 std::vector<GatewayBackend*> backends);
  ~ShardedGateway();
  ShardedGateway(const ShardedGateway&) = delete;
  ShardedGateway& operator=(const ShardedGateway&) = delete;

  // ---- Datapath (gateway-shaped facade) ----
  // Inbound dispatch peeks the destination straight out of the frame bytes
  // (no full parse) to pick the owning shard.
  void HandleInbound(Packet packet);
  // Burst dispatch: bins the burst by owning shard (arrival order preserved
  // within a shard), then feeds each shard's bin through its batched path.
  void HandleInboundBatch(std::span<Packet> packets);
  // Outbound traffic shards by the transmitting VM's address (the source),
  // which is where its binding lives.
  void HandleOutbound(HostId host, VmId vm, Packet packet);
  void NotifyInfected(Ipv4Address vm_ip);
  void StartRecycling();
  size_t SweepOnce();
  // Retires up to `batch` most-idle VMs farm-wide, splitting the batch evenly
  // across shards (each shard ranks idleness within its own partition).
  // Returns the number retired.
  size_t ReclaimMostIdle(size_t batch);
  // Shared-loop mode: the sink is copied to every shard and invoked inline
  // (deterministic; the Honeyfarm's seed-handshake hook depends on this).
  // Partitioned mode: each shard gets a private sink appending to a per-shard
  // egress bin — shard threads never contend on the user callback — and
  // `sink` becomes the merge facade that FlushEgress feeds in shard order.
  void set_egress_sink(Gateway::EgressSink sink);
  // Partitioned mode: bypasses the merge facade for shard `i` — egress from
  // that shard goes straight to `sink` (invoked on the shard's thread during
  // DrainParallel; the caller owns its thread-safety).
  void set_shard_egress_sink(uint32_t i, Gateway::EgressSink sink);
  // Delivers every binned egress packet to the merged sink, in shard order
  // (deterministic). Called automatically at the end of RunUntilIdle and after
  // DrainParallel's threads join; callable directly by drivers that need the
  // egress earlier. Returns packets delivered.
  size_t FlushEgress();

  // ---- Host lifecycle (control plane; fan-out over every shard) ----
  size_t CountHostBindings(HostId host);
  size_t RetireHostBindings(HostId host);
  size_t InvalidateHostBindings(HostId host);
  size_t MigrateHostBindings(HostId host, size_t max);
  // Chaos invariant: reflect-NAT entries sitting on a shard that does not own
  // their victim address, summed farm-wide (must always be 0).
  size_t CountMisplacedReflectNat() const;

  // ---- Fault injection (chaos harness; single-threaded modes only) ----
  // Cuts (or heals) the directed handoff path from shard `from` to shard
  // `to`. While cut, queued handoffs stall in the ring and pushes that find
  // the ring full are dropped (counted in partition_drops); healing lets the
  // stalled queue flow on the next pump. Not supported under DrainParallel:
  // its quiescence protocol counts stalled handoffs as in-flight and would
  // spin forever.
  void SetHandoffPartition(uint32_t from, uint32_t to, bool cut);
  uint64_t partition_drops() const {
    return partition_drops_.load(std::memory_order_relaxed);
  }

  // ---- Topology ----
  uint32_t shard_count() const { return static_cast<uint32_t>(shards_.size()); }
  uint32_t ShardOf(Ipv4Address ip) const {
    return ip.value() & (shard_count() - 1);
  }
  Gateway& shard(uint32_t i) { return *shards_[i]; }
  const Gateway& shard(uint32_t i) const { return *shards_[i]; }
  // Partitioned-mode internals (checked: shared-loop mode has none).
  EventLoop& shard_loop(uint32_t i);
  Observability& shard_obs(uint32_t i);
  PacketPool& shard_pool(uint32_t i);

  // ---- Execution ----
  // Drains every handoff ring from the calling thread (single-threaded modes
  // only), delivering in (producer, consumer) shard order until all rings are
  // empty. Returns packets delivered. Re-entrant calls no-op: the outermost
  // pump finishes the job.
  size_t PumpHandoffs();
  // Partitioned barrier merge: repeatedly steps whichever shard loop holds the
  // globally earliest event (ties broken by shard id), pumping handoffs
  // between steps, until every loop is idle and every ring is empty. One
  // thread, deterministic — the reference schedule the parallel drain is
  // checked against.
  void RunUntilIdle();

  struct DrainResult {
    uint64_t packets_fed = 0;  // workload packets consumed
    uint64_t handoffs = 0;     // packets that crossed a shard boundary
  };
  // Parallel drain (partitioned mode): one thread per shard consumes
  // (*per_shard)[s] — frames whose destination that shard owns — in
  // `burst`-sized chunks through the batched path, draining its incoming
  // handoff rings between chunks. Workload packets are re-targeted at the
  // consuming shard's pool, so recycling stays thread-local. Blocks until all
  // input is consumed and every ring is empty.
  DrainResult DrainParallel(std::vector<std::vector<Packet>>* per_shard,
                            size_t burst);

  // ---- Telemetry ----
  // Field-wise sum of every shard's GatewayStats.
  GatewayStats AggregateStats() const;
  // Field-wise sum of every shard's ContainmentStats: the farm-wide verdict.
  ContainmentStats AggregateContainmentStats() const;
  // Farm-wide live binding count (what FarmSample reports).
  size_t live_bindings() const;

 private:
  enum class Mode { kSharedLoop, kPartitioned };
  struct Handoff {
    Packet packet;
    // Routing context, including any reverse-NAT install the consuming
    // (victim-owning) shard must apply before routing.
    Gateway::HandoffContext ctx;
  };

  void BuildShards(const ShardedGatewayConfig& config, EventLoop* shared_loop,
                   GatewayBackend* shared_backend,
                   const std::vector<GatewayBackend*>& backends);
  void InstallHandoff(uint32_t from);
  // Farm-wide rollup probes under the unsharded names (shared-loop, N > 1).
  void RegisterAggregateProbes(MetricRegistry& m);
  SpscRing<Handoff>& RingTo(uint32_t from, uint32_t to) {
    return *rings_[from * shards_.size() + to];
  }
  // Pops everything queued for shard `to`, adopting each packet into the
  // shard's pool (partitioned mode) before delivery. Caller must be the only
  // consumer for `to` (its worker thread, or any single-threaded driver).
  size_t DrainIncoming(uint32_t to);

  Mode mode_;
  // Shared-loop mode only: the caller's loop (aggregate probes read its clock).
  EventLoop* shared_loop_ = nullptr;
  std::vector<std::unique_ptr<Gateway>> shards_;
  // Directed-pair rings, row-major [from][to]; the diagonal is never used
  // (ownership is checked before a handoff is produced).
  std::vector<std::unique_ptr<SpscRing<Handoff>>> rings_;
  // Partitioned-mode per-shard environments (empty in shared-loop mode).
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::unique_ptr<Observability>> obs_;
  std::vector<std::unique_ptr<PacketPool>> pools_;
  // Shared-loop mode: the registry aggregate probes were registered with.
  MetricRegistry* aggregate_registry_ = nullptr;
  // Per-consumer-shard handoff fabric distributions (N > 1 only): ring depth
  // observed when a drain finds work, and packets popped per drain pass. In
  // shared-loop mode every shard's handle aliases the same farm-wide cells
  // (same-name registration); in partitioned mode each shard's registry gets
  // its own.
  std::vector<LatencyHistogram> m_ring_occupancy_;
  std::vector<LatencyHistogram> m_ring_batch_;
  // Handoffs produced but not yet consumed; the parallel drain's termination
  // signal (a push increments before publication, a pop decrements after the
  // packet is fully processed, so 0 means globally quiescent).
  std::atomic<uint64_t> in_flight_{0};
  // True while DrainParallel workers run: switches the full-ring fallback from
  // inline delivery (single-thread) to drain-own-rings-and-retry.
  std::atomic<bool> parallel_active_{false};
  // Re-entrancy guard for PumpHandoffs (single-threaded modes only).
  bool pumping_ = false;
  // Retained scratch for HandleInboundBatch partitioning.
  std::vector<std::vector<Packet>> batch_bins_;
  // Directed-pair partition flags, row-major [from][to] like rings_; true =
  // the chaos harness cut this path. Atomic so a DrainParallel worker reading
  // a stale heal is a race only in timing, never in memory.
  std::unique_ptr<std::atomic<bool>[]> partition_;
  std::atomic<uint64_t> partition_drops_{0};
  bool PartitionCut(uint32_t from, uint32_t to) const {
    return partition_[from * shards_.size() + to].load(
        std::memory_order_relaxed);
  }
  // Partitioned-mode egress: shard s's sink appends here (bin s touched only
  // by shard s's thread); FlushEgress drains into merged_egress_ in shard
  // order.
  std::vector<std::vector<Packet>> egress_bins_;
  Gateway::EgressSink merged_egress_;
};

}  // namespace potemkin

#endif  // SRC_GATEWAY_SHARDED_GATEWAY_H_
