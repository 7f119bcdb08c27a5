// Sharded gateway: N per-shard datapaths behind one gateway-shaped facade.
//
// ShardedGateway runs `shard_count` independent Gateway instances, each owning
// the farm addresses whose low bits equal its shard id — binding table, flow
// table, containment state, scan detector and reflection NAT are all
// partitioned, so the hit path of one shard never touches another shard's
// tables. Traffic that crosses the partition (reflection and farm-internal
// forwards whose rewritten destination hashes elsewhere) is enqueued on a
// bounded SPSC ring per ordered shard pair instead of routed inline.
//
// Every shard runs on the caller's EventLoop, Observability, and backend, and
// the whole farm is single-threaded and deterministic: handoff rings are
// pumped inline in shard order, so the event schedule is a pure function of
// the input. With shard_count == 1 this is a byte-identical passthrough to a
// bare Gateway: same metric names, same session ids, same stdout.
//
// Telemetry: counters keep their farm-wide names (same-name registration
// shares one cell, so shards aggregate for free). Probes cannot share a name,
// so with N > 1 shards publish under "gateway.s<i>." and this facade
// re-registers farm-wide rollups under the original names — watchdog rules
// and health snapshots keep working unchanged.
#ifndef SRC_GATEWAY_SHARDED_GATEWAY_H_
#define SRC_GATEWAY_SHARDED_GATEWAY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/base/event_loop.h"
#include "src/base/spsc_ring.h"
#include "src/gateway/gateway.h"
#include "src/obs/observability.h"

namespace potemkin {

struct ShardedGatewayConfig {
  // Per-shard template; shard_id/shard_count are overwritten for each
  // instance. When shard_count > 1 the scan detector's distinct_threshold is
  // scaled down by the shard count (floor 1): each shard only sees the
  // distinct destinations it owns, so a source spraying the farm accumulates
  // ~1/N of its distinct-dst count per shard — without the rescale it would
  // be flagged ~N× later than unsharded. The trade-off: a source targeting a
  // single shard's addresses flags up to N× earlier (see DESIGN.md §10).
  GatewayConfig gateway;
  // Must be a power of two (address bits partition evenly).
  uint32_t shard_count = 1;
  // Capacity of each directed (producer, consumer) handoff ring, in packets.
  size_t handoff_ring_capacity = 4096;
};

class ShardedGateway {
 public:
  // All shards share `loop`, `backend`, and the template's Observability.
  ShardedGateway(EventLoop* loop, const ShardedGatewayConfig& config,
                 GatewayBackend* backend);
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
  // The sink is copied to every shard and invoked inline (deterministic; the
  // Honeyfarm's seed-handshake hook depends on this).
  void set_egress_sink(Gateway::EgressSink sink);

  // ---- Host lifecycle (control plane; fan-out over every shard) ----
  size_t CountHostBindings(HostId host);
  size_t RetireHostBindings(HostId host);
  size_t InvalidateHostBindings(HostId host);
  size_t MigrateHostBindings(HostId host, size_t max);
  // Chaos invariant: reflect-NAT entries sitting on a shard that does not own
  // their victim address, summed farm-wide (must always be 0).
  size_t CountMisplacedReflectNat() const;

  // ---- Fault injection (chaos harness) ----
  // Cuts (or heals) the directed handoff path from shard `from` to shard
  // `to`. While cut, queued handoffs stall in the ring and pushes that find
  // the ring full are dropped (counted in partition_drops); healing lets the
  // stalled queue flow on the next pump.
  void SetHandoffPartition(uint32_t from, uint32_t to, bool cut);
  uint64_t partition_drops() const { return partition_drops_; }

  // ---- Topology ----
  uint32_t shard_count() const { return static_cast<uint32_t>(shards_.size()); }
  uint32_t ShardOf(Ipv4Address ip) const {
    return ip.value() & (shard_count() - 1);
  }
  Gateway& shard(uint32_t i) { return *shards_[i]; }
  const Gateway& shard(uint32_t i) const { return *shards_[i]; }

  // ---- Execution ----
  // Drains every handoff ring, delivering in (producer, consumer) shard order
  // until all rings are empty. Returns packets delivered. Re-entrant calls
  // no-op: the outermost pump finishes the job.
  size_t PumpHandoffs();

  // ---- Telemetry ----
  // Field-wise sum of every shard's GatewayStats.
  GatewayStats AggregateStats() const;
  // Field-wise sum of every shard's ContainmentStats: the farm-wide verdict.
  ContainmentStats AggregateContainmentStats() const;
  // Farm-wide live binding count (what FarmSample reports).
  size_t live_bindings() const;
  // Sum of every shard's peak live bindings (equal to the farm-wide peak at
  // N == 1; an upper bound on it otherwise, as shards peak at different times).
  uint64_t peak_live_bindings() const;
  // Sources flagged as scanners, summed over shards: one spraying source can
  // count once per shard that crossed its scaled threshold.
  uint64_t scanners_flagged() const;

 private:
  struct Handoff {
    Packet packet;
    // Routing context, including any reverse-NAT install the consuming
    // (victim-owning) shard must apply before routing.
    Gateway::HandoffContext ctx;
  };

  void InstallHandoff(uint32_t from);
  // Farm-wide rollup probes under the unsharded names (N > 1).
  void RegisterAggregateProbes(MetricRegistry& m);
  SpscRing<Handoff>& RingTo(uint32_t from, uint32_t to) {
    return *rings_[from * shards_.size() + to];
  }
  // Pops everything queued for shard `to` over every uncut path and delivers
  // it, in producer shard order.
  size_t DrainIncoming(uint32_t to);
  bool PartitionCut(uint32_t from, uint32_t to) const {
    return partition_[from * shards_.size() + to];
  }

  // The caller's loop (aggregate probes read its clock).
  EventLoop* loop_;
  std::vector<std::unique_ptr<Gateway>> shards_;
  // Directed-pair rings, row-major [from][to]; the diagonal is never used
  // (ownership is checked before a handoff is produced).
  std::vector<std::unique_ptr<SpscRing<Handoff>>> rings_;
  // The registry aggregate probes were registered with (N > 1 only).
  MetricRegistry* aggregate_registry_ = nullptr;
  // Handoff fabric distributions (N > 1 only): ring depth observed when a
  // drain finds work, and packets popped per drain pass.
  LatencyHistogram m_ring_occupancy_;
  LatencyHistogram m_ring_batch_;
  // Re-entrancy guard for PumpHandoffs.
  bool pumping_ = false;
  // Retained scratch for HandleInboundBatch partitioning.
  std::vector<std::vector<Packet>> batch_bins_;
  // Directed-pair partition flags, row-major [from][to] like rings_; true =
  // the chaos harness cut this path.
  std::vector<bool> partition_;
  uint64_t partition_drops_ = 0;
};

}  // namespace potemkin

#endif  // SRC_GATEWAY_SHARDED_GATEWAY_H_
