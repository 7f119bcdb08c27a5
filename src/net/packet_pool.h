// Size-classed recycling pool for packet frame buffers.
//
// The gateway hit path handles one short-lived frame per telescope packet;
// without a pool every frame costs one heap allocation at build/decap time and
// one free at delivery. PacketPool keeps retired buffers on per-size-class
// freelists so steady-state traffic recycles the same handful of buffers and
// the allocator drops out of the per-packet profile entirely.
//
// Buffers are plain `std::vector<uint8_t>` so a pooled `Packet` is layout- and
// behavior-compatible with the seed's vector-backed one: callers may resize or
// even swap out the vector through `mutable_bytes()`; Release() re-classifies
// by capacity on the way back in.
//
// Thread model: pools are not thread-safe. The farm is single-threaded, and
// every frame it builds comes from the process-wide Default() pool, so
// Acquire and Release always run on that one thread.
#ifndef SRC_NET_PACKET_POOL_H_
#define SRC_NET_PACKET_POOL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace potemkin {

class PacketPool {
 public:
  // Size classes are powers of two from 128 B to 4 KiB — every Ethernet frame
  // the farm builds (min probe ~54 B, max MTU-ish 1500 B, GRE-encapsulated a
  // bit more) lands in one. Larger requests fall through to the heap.
  static constexpr size_t kMinClassBytes = 128;
  static constexpr size_t kNumClasses = 6;
  static constexpr size_t kMaxClassBytes = kMinClassBytes << (kNumClasses - 1);
  // Per-class cache bound: beyond this, returned buffers are freed rather than
  // cached, so a burst cannot pin memory forever.
  static constexpr size_t kMaxCachedPerClass = 8192;

  struct Stats {
    uint64_t acquires = 0;     // buffers handed out
    uint64_t pool_hits = 0;    // ... of which came from a freelist
    uint64_t allocations = 0;  // ... of which hit the heap (miss or oversize)
    uint64_t releases = 0;     // buffers offered back
    uint64_t discards = 0;     // ... of which were freed (class full/undersize)
  };

  // Process-wide pool used by BuildPacket/GRE decap. Deliberately leaked so
  // packet destructors running during static teardown never race the pool's
  // own destruction (the block stays reachable, so leak checkers ignore it).
  static PacketPool& Default() {
    static PacketPool* const pool = new PacketPool();
    return *pool;
  }

  // Returns a zero-filled buffer with size() == `size`. Pool-served buffers
  // have capacity >= their size class, so growing back up to the class size
  // never reallocates (and never invalidates a PacketView).
  std::vector<uint8_t> Acquire(size_t size) {
    ++stats_.acquires;
    const size_t cls = ClassFor(size);
    if (cls < kNumClasses && !free_[cls].empty()) {
      ++stats_.pool_hits;
      std::vector<uint8_t> buffer = std::move(free_[cls].back());
      free_[cls].pop_back();
      buffer.assign(size, 0);  // within capacity: no reallocation
      return buffer;
    }
    ++stats_.allocations;
    std::vector<uint8_t> buffer;
    if (cls < kNumClasses) buffer.reserve(kMinClassBytes << cls);
    buffer.resize(size, 0);
    return buffer;
  }

  // Takes ownership of a retired buffer. Classified by capacity, so a buffer
  // that grew while in use is simply cached under its larger class.
  void Release(std::vector<uint8_t>&& buffer) {
    ++stats_.releases;
    const size_t capacity = buffer.capacity();
    if (capacity >= kMinClassBytes) {
      // Largest class the buffer can fully serve.
      size_t cls = 0;
      while (cls + 1 < kNumClasses &&
             capacity >= (kMinClassBytes << (cls + 1))) {
        ++cls;
      }
      if (free_[cls].size() < kMaxCachedPerClass) {
        free_[cls].push_back(std::move(buffer));
        return;
      }
    }
    ++stats_.discards;
    // `buffer` is freed here.
  }

  const Stats& stats() const { return stats_; }

  size_t cached_buffers() const {
    size_t total = 0;
    for (const auto& list : free_) total += list.size();
    return total;
  }

  // Drops every cached buffer (tests use this to isolate measurements).
  void Trim() {
    for (auto& list : free_) {
      list.clear();
      list.shrink_to_fit();
    }
  }

 private:
  // Smallest class whose buffer holds `size` bytes; kNumClasses if oversize.
  static size_t ClassFor(size_t size) {
    size_t cls = 0;
    size_t bytes = kMinClassBytes;
    while (cls < kNumClasses && bytes < size) {
      bytes <<= 1;
      ++cls;
    }
    return cls;
  }

  std::vector<std::vector<uint8_t>> free_[kNumClasses];
  Stats stats_;
};

}  // namespace potemkin

#endif  // SRC_NET_PACKET_POOL_H_
