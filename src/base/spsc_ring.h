// Bounded lock-free single-producer/single-consumer ring.
//
// The cross-shard handoff primitive for the sharded gateway: reflection and
// inter-backend traffic whose destination hashes to another shard is enqueued
// here instead of routed inline, so the owning shard's hit path never takes a
// lock and never touches another shard's tables. One ring per ordered
// (producer shard, consumer shard) pair keeps every ring strictly SPSC.
//
// Design is the classic cached-index SPSC queue: the producer owns `tail_`,
// the consumer owns `head_`, and each keeps a *cached* copy of the other's
// index so the steady-state push/pop touches only its own cache line — the
// cross-core load happens once per ring traversal, not once per element.
// Indices are monotonically increasing uint64s masked into the power-of-two
// slot array (no wrap ambiguity, full/empty distinguishable without a spare
// slot). All four index fields are cache-line padded so producer and consumer
// never false-share.
//
// Memory ordering: the producer's release store of `tail_` publishes the slot
// write; the consumer's acquire load of `tail_` observes it (and vice versa
// for recycled slots via `head_`). Elements are moved in and out, so move-only
// payloads (Packet) work; `T` must be default-constructible and nothrow-move.
//
// Determinism note: the gateway uses the rings from one thread — push/pop
// order is then plain FIFO program order, so a deterministic schedule stays
// deterministic. The atomics cost little there and keep the ring correct for
// a real producer/consumer pair (its TSan stress test runs one).
#ifndef SRC_BASE_SPSC_RING_H_
#define SRC_BASE_SPSC_RING_H_

#include <atomic>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace potemkin {

template <typename T>
class SpscRing {
  static_assert(std::is_nothrow_move_constructible_v<T>);
  static_assert(std::is_nothrow_move_assignable_v<T>);

 public:
  // Capacity is rounded up to a power of two (minimum 2).
  explicit SpscRing(size_t capacity) {
    size_t cap = 2;
    while (cap < capacity) {
      cap <<= 1;
    }
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  // Producer side. Returns false when the ring is full (the element is left
  // untouched so the caller can retry or divert it).
  bool TryPush(T&& value) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ == slots_.size()) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ == slots_.size()) {
        return false;
      }
    }
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Consumer side. Returns false when the ring is empty.
  bool TryPop(T* out) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) {
        return false;
      }
    }
    *out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Consumer-accurate emptiness (exact when called by the consumer; a stale
  // false-negative is possible from other threads, never a false-positive of
  // emptiness for elements the consumer already observed).
  bool Empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  // Approximate occupancy (exact only when both sides are quiescent).
  size_t SizeApprox() const {
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    const uint64_t head = head_.load(std::memory_order_acquire);
    return static_cast<size_t>(tail - head);
  }

  size_t capacity() const { return slots_.size(); }

 private:
  std::vector<T> slots_;
  size_t mask_ = 0;
  // Consumer-owned line: read cursor plus its cached view of the producer.
  alignas(64) std::atomic<uint64_t> head_{0};
  uint64_t cached_tail_ = 0;
  // Producer-owned line.
  alignas(64) std::atomic<uint64_t> tail_{0};
  uint64_t cached_head_ = 0;
  // Trailing pad so an adjacent object cannot share the producer's line.
  [[maybe_unused]] char pad_[64 - sizeof(std::atomic<uint64_t>) -
                             sizeof(uint64_t)] = {};
};

}  // namespace potemkin

#endif  // SRC_BASE_SPSC_RING_H_
