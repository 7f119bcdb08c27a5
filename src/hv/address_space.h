// Guest pseudo-physical address spaces with copy-on-write mappings.
//
// This implements the paper's *delta virtualization*: a flash-cloned VM starts with
// every guest page mapped read-only to the frozen reference image's machine frames.
// The first guest write to such a page takes a CoW fault: a private frame is
// allocated, the contents copied, and the mapping flipped to writable. The set of
// private frames is the VM's "delta" — the only per-VM memory cost.
//
// The page table is two-level: a directory of 512-PTE leaves, each allocated on
// the first mutation inside its range. A flash clone *binds* its pinned image
// generation's frame list (`BindBase`) in O(1) and takes no per-frame
// reference: a page in an unmaterialised leaf reads as a CoW share of the bound
// frame. Materialising a leaf copies the frame ids in, marked *borrowed*; a
// borrowed share is backed by the generation's own reference, so breaking it
// never drops the source and teardown skips it. Clone set-up and teardown thus
// cost what the clone changed, not the size of its image. Explicit shares
// (`MapSharedCow`, dedup merges) still take a real reference each.
//
// Faults resolve one page at a time (`WriteGuest`/`TouchPages`) or as a run
// (`FaultRange`): the run path classifies the whole range in one scan, takes a
// single all-or-nothing allocator reservation for every CoW break and zero
// fill, and amortises the share/delta bookkeeping across the run. The same
// machinery serves working-set prefetch (`PrefetchRange`), which materialises
// pages *speculatively* and tags them so the first real guest write counts as
// a prediction hit.
#ifndef SRC_HV_ADDRESS_SPACE_H_
#define SRC_HV_ADDRESS_SPACE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/hv/frame_allocator.h"
#include "src/hv/types.h"

namespace potemkin {

enum class MemAccessResult {
  kOk,
  kCowBreak,        // write succeeded after breaking a CoW share
  kOutOfMemory,     // CoW break failed: host has no free frames
  kBadAddress,      // access outside the guest address space
};

struct AddressSpaceStats {
  uint64_t cow_faults = 0;         // writes that broke a share
  uint64_t zero_fills = 0;         // writes that materialized an unbacked page
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t failed_cow_breaks = 0;  // out-of-memory CoW faults
  uint64_t batch_faults = 0;       // FaultRange/PrefetchRange invocations
  uint64_t prefetched_pages = 0;   // pages materialised speculatively
  uint64_t prefetch_hits = 0;      // prefetched pages later written by the guest
};

class AddressSpace {
 public:
  // PTEs per leaf table.
  static constexpr uint32_t kLeafShift = 9;
  static constexpr uint32_t kLeafPages = 1u << kLeafShift;

  // An address space with `num_pages` guest pages, all initially unmapped (reads
  // see zeros; first write allocates a private zero frame).
  AddressSpace(FrameAllocator* allocator, uint32_t num_pages);
  ~AddressSpace();
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  uint32_t num_pages() const { return num_pages_; }
  uint64_t size_bytes() const { return static_cast<uint64_t>(num_pages()) * kPageSize; }

  // Flash-clone binding: every page becomes a borrowed CoW share of
  // frames[gpfn], in O(1) and without taking references. `frames` must cover
  // the address space, every page must be unmapped, and the frames (and the
  // span's storage) must stay live until ReleaseAll — PhysicalHost guarantees
  // both by pinning the image generation for the clone's lifetime.
  void BindBase(std::span<const FrameId> frames);
  // Maps `frame` at `gpfn` as a read-only CoW share; takes a reference.
  void MapSharedCow(Gpfn gpfn, FrameId frame);
  // Maps `frame` at `gpfn` as private/writable; takes ownership of one reference.
  void MapPrivateOwned(Gpfn gpfn, FrameId frame);
  void Unmap(Gpfn gpfn);

  // Guest memory access by byte address; may span pages.
  MemAccessResult WriteGuest(uint64_t gpaddr, std::span<const uint8_t> bytes);
  MemAccessResult ReadGuest(uint64_t gpaddr, std::span<uint8_t> out) const;

  // Touches (dirties) one word in each page of [first_gpfn, first_gpfn+count),
  // modelling a guest working set; stops early on OOM.
  MemAccessResult TouchPages(Gpfn first_gpfn, uint32_t count);

  // Batched equivalent of TouchPages: resolves every pending fault in the run
  // via FaultRange (one allocator reservation), then writes the same per-page
  // markers. All-or-nothing on OOM — either the whole run materialises or no
  // page does.
  MemAccessResult TouchPagesBatched(Gpfn first_gpfn, uint32_t count);

  // Resolves all pending faults (unmapped or CoW-shared pages) in
  // [first_gpfn, first_gpfn+count) in one pass: one scan to classify, one
  // all-or-nothing allocator reservation (batch clone + batch zero-fill), and
  // bookkeeping amortised over the run. Already-private pages are untouched.
  // On kOutOfMemory nothing in the range changed.
  MemAccessResult FaultRange(Gpfn first_gpfn, uint32_t count);

  // FaultRange for the working-set predictor: pages it materialises are tagged
  // as prefetched (counted in stats().prefetched_pages); the first real guest
  // write to such a page clears the tag and counts a prefetch hit. Pages left
  // tagged at teardown were mispredictions.
  MemAccessResult PrefetchRange(Gpfn first_gpfn, uint32_t count);

  bool IsMapped(Gpfn gpfn) const;
  bool IsCowShared(Gpfn gpfn) const;
  // True if `gpfn` is a borrowed share of the bound base (no reference held).
  bool IsBaseShare(Gpfn gpfn) const;
  FrameId FrameAt(Gpfn gpfn) const;

  // Leaf tables allocated so far (the page-table part of the clone's delta).
  uint32_t materialized_leaves() const;

  // Number of pages whose frame is private to this address space (the delta).
  uint32_t private_pages() const { return private_pages_; }
  // Number of pages still sharing the reference image's frames.
  uint32_t shared_pages() const { return shared_pages_; }
  uint64_t private_bytes() const {
    return static_cast<uint64_t>(private_pages_) * kPageSize;
  }

  const AddressSpaceStats& stats() const { return stats_; }

  // Prefetched pages the guest never wrote (so far): the predictor's misses.
  uint64_t prefetch_unused() const {
    return stats_.prefetched_pages - stats_.prefetch_hits;
  }

  // Arms first-materialisation order recording: every page that transitions to
  // private (zero fill, CoW break, single or batched) appends its gpfn to
  // touch_order(). Off by default — recording is only paid for by VMs whose
  // sessions feed a working-set profile.
  void EnableTouchOrderRecording() { record_touch_order_ = true; }
  bool touch_order_recording() const { return record_touch_order_; }
  // Gpfns in the order they first became private. Prefetched pages are
  // excluded — the profile must reflect what the guest actually touched, not
  // what a previous profile predicted, or mispredictions self-reinforce.
  const std::vector<Gpfn>& touch_order() const { return touch_order_; }

  // Iterates every private (non-CoW) mapping: fn(gpfn, frame). Used by snapshot
  // capture and the page deduplicator's full-scan mode.
  template <typename Fn>
  void ForEachPrivatePage(Fn&& fn) const {
    for (uint32_t index = 0; index < leaves_.size(); ++index) {
      const Leaf* leaf = leaves_[index].get();
      if (leaf == nullptr) {
        continue;  // only borrowed shares or unmapped pages
      }
      for (uint32_t i = 0; i < kLeafPages; ++i) {
        if (leaf->ptes[i].present && !leaf->ptes[i].cow) {
          fn((index << kLeafShift) + i, leaf->ptes[i].frame);
        }
      }
    }
  }

  // Consumes the set of private pages written since the last drain, in first-dirty
  // order: fn(gpfn, frame). Pages unmapped or converted since they were dirtied are
  // skipped. Tracking is only armed on kStoreBytes hosts (where page contents — and
  // thus content dedup — exist); on metadata-only hosts this visits nothing.
  template <typename Fn>
  void DrainDirtyPages(Fn&& fn) {
    for (const Gpfn gpfn : dirty_pages_) {
      Pte& pte = leaves_[gpfn >> kLeafShift]->ptes[gpfn & (kLeafPages - 1)];
      if (!pte.dirty) {
        continue;  // unmapped/converted since dirtied
      }
      pte.dirty = false;
      if (pte.present && !pte.cow) {
        fn(gpfn, pte.frame);
      }
    }
    dirty_pages_.clear();
  }

  // Re-marks every private page dirty (full-scan dedup mode).
  void MarkAllPrivateDirty();

  size_t dirty_page_count() const { return dirty_pages_.size(); }

  // Replaces the private mapping at `gpfn` with a CoW share of `frame` (used by
  // the deduplicator after proving contents identical). The old private frame is
  // released; `frame` gains a reference.
  void ConvertPrivateToSharedCow(Gpfn gpfn, FrameId frame);

  // Releases every mapping and unbinds the base (owned references drop;
  // private frames free immediately). Walks materialised leaves only.
  void ReleaseAll();

 private:
  // Trivial, so a fresh leaf is filled once; `Pte{}` is the unmapped entry.
  struct Pte {
    FrameId frame;  // meaningful only when present
    uint32_t present : 1;
    uint32_t cow : 1;  // present but read-only shared; write must break the share
    uint32_t borrowed : 1;  // CoW share of the bound base; holds no reference
    uint32_t dirty : 1;  // written since the last dedup drain (kStoreBytes only)
    uint32_t prefetched : 1;  // speculatively materialised, no guest write yet
  };
  static_assert(sizeof(Pte) == 8, "a PTE must stay 8 bytes");

  struct Leaf {
    Pte ptes[kLeafPages];
  };

  static Pte SharedPte(FrameId frame, bool borrowed) {
    Pte pte{};
    pte.frame = frame;
    pte.present = 1;
    pte.cow = 1;
    pte.borrowed = borrowed ? 1 : 0;
    return pte;
  }
  static Pte PrivatePte(FrameId frame) {
    Pte pte{};
    pte.frame = frame;
    pte.present = 1;
    return pte;
  }

  // The PTE for `gpfn` without materialising its leaf: an unmaterialised leaf
  // reads as the bound base's borrowed share (or unmapped when none is bound).
  Pte PteAt(Gpfn gpfn) const {
    const Leaf* leaf = leaves_[gpfn >> kLeafShift].get();
    if (leaf != nullptr) {
      return leaf->ptes[gpfn & (kLeafPages - 1)];
    }
    return base_.empty() ? Pte{} : SharedPte(base_[gpfn], /*borrowed=*/true);
  }

  // The PTE for `gpfn`, materialising its leaf first.
  Pte& MutablePte(Gpfn gpfn) {
    std::unique_ptr<Leaf>& leaf = leaves_[gpfn >> kLeafShift];
    if (leaf == nullptr) {
      MaterializeLeaf(gpfn >> kLeafShift);
    }
    return leaf->ptes[gpfn & (kLeafPages - 1)];
  }

  // Allocates leaf `index`, filled with the base's borrowed shares.
  void MaterializeLeaf(uint32_t index);

  // Ensures the page at `gpfn` is privately writable; returns its PTE, or
  // nullptr on OOM.
  Pte* MakeWritable(Gpfn gpfn, MemAccessResult* result);

  // Shared implementation of FaultRange/PrefetchRange.
  MemAccessResult FaultRangeInternal(Gpfn first_gpfn, uint32_t count,
                                     bool prefetch);

  void MarkDirty(Gpfn gpfn, Pte& pte) {
    if (!pte.dirty) {
      pte.dirty = true;
      dirty_pages_.push_back(gpfn);
    }
  }

  void RecordTouch(Gpfn gpfn) {
    if (record_touch_order_) {
      touch_order_.push_back(gpfn);
    }
  }

  FrameAllocator* allocator_;
  uint32_t num_pages_;
  // Directory of leaf tables; null until the first mutation in its range.
  std::vector<std::unique_ptr<Leaf>> leaves_;
  // Bound base frames, indexed by gpfn (empty when nothing is bound).
  std::span<const FrameId> base_;
  std::vector<Gpfn> dirty_pages_;  // queue for DrainDirtyPages; deduped via Pte::dirty
  std::vector<Gpfn> touch_order_;  // first-materialisation order (when armed)
  // Scratch for FaultRangeInternal, kept across calls so a steady stream of
  // batch faults never allocates.
  std::vector<Gpfn> scratch_cow_gpfns_;
  std::vector<FrameId> scratch_cow_src_;
  std::vector<FrameId> scratch_cow_new_;
  std::vector<Gpfn> scratch_zf_gpfns_;
  std::vector<FrameId> scratch_zf_new_;
  uint32_t private_pages_ = 0;
  uint32_t shared_pages_ = 0;
  bool track_dirty_ = false;  // only kStoreBytes hosts pay for dirty tracking
  bool record_touch_order_ = false;
  mutable AddressSpaceStats stats_;  // mutable: reads are logically const
};

}  // namespace potemkin

#endif  // SRC_HV_ADDRESS_SPACE_H_
