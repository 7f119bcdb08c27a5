#include "src/hv/address_space.h"

#include <algorithm>

#include "src/base/log.h"

namespace potemkin {

AddressSpace::AddressSpace(FrameAllocator* allocator, uint32_t num_pages)
    : allocator_(allocator),
      num_pages_(num_pages),
      leaves_((num_pages + kLeafPages - 1) / kLeafPages),
      track_dirty_(allocator->mode() == ContentMode::kStoreBytes) {}

AddressSpace::~AddressSpace() { ReleaseAll(); }

void AddressSpace::MaterializeLeaf(uint32_t index) {
  auto leaf = std::make_unique_for_overwrite<Leaf>();
  const Gpfn first = index << kLeafShift;
  const uint32_t borrowed =
      base_.empty() ? 0 : std::min(kLeafPages, num_pages_ - first);
  for (uint32_t i = 0; i < borrowed; ++i) {
    leaf->ptes[i] = SharedPte(base_[first + i], /*borrowed=*/true);
  }
  std::fill(leaf->ptes + borrowed, leaf->ptes + kLeafPages, Pte{});
  leaves_[index] = std::move(leaf);
}

void AddressSpace::BindBase(std::span<const FrameId> frames) {
  PK_CHECK(frames.size() == num_pages_) << "base must cover the address space";
  PK_CHECK(base_.empty() && shared_pages_ == 0 && private_pages_ == 0)
      << "base bind over live mappings";
  // Any leaves left are all-unmapped; drop them so every page reads the base.
  for (std::unique_ptr<Leaf>& leaf : leaves_) {
    leaf.reset();
  }
  dirty_pages_.clear();
  base_ = frames;
  shared_pages_ = num_pages_;
}

void AddressSpace::MapSharedCow(Gpfn gpfn, FrameId frame) {
  PK_CHECK(gpfn < num_pages_) << "map outside address space";
  Unmap(gpfn);
  allocator_->Ref(frame);
  MutablePte(gpfn) = SharedPte(frame, /*borrowed=*/false);
  ++shared_pages_;
}

void AddressSpace::MapPrivateOwned(Gpfn gpfn, FrameId frame) {
  PK_CHECK(gpfn < num_pages_) << "map outside address space";
  Unmap(gpfn);
  Pte& pte = MutablePte(gpfn);
  pte = PrivatePte(frame);
  ++private_pages_;
  if (track_dirty_) {
    MarkDirty(gpfn, pte);  // new private content this address space has not exposed yet
  }
}

void AddressSpace::Unmap(Gpfn gpfn) {
  PK_CHECK(gpfn < num_pages_) << "unmap outside address space";
  if (!PteAt(gpfn).present) {
    return;
  }
  Pte& pte = MutablePte(gpfn);
  if (pte.cow) {
    PK_CHECK(shared_pages_ > 0);
    --shared_pages_;
  } else {
    PK_CHECK(private_pages_ > 0);
    --private_pages_;
  }
  if (!pte.borrowed) {
    allocator_->Unref(pte.frame);
  }
  pte = Pte{};
}

AddressSpace::Pte* AddressSpace::MakeWritable(Gpfn gpfn, MemAccessResult* result) {
  Pte& pte = MutablePte(gpfn);
  if (pte.present && !pte.cow) {
    if (pte.prefetched) {
      // First real guest write to a speculatively materialised page: the
      // working-set predictor got this one right.
      pte.prefetched = false;
      ++stats_.prefetch_hits;
    }
    return &pte;
  }
  if (!pte.present) {
    // Zero-fill-on-demand private page.
    const FrameId frame = allocator_->AllocateZeroed();
    if (frame == kInvalidFrame) {
      ++stats_.failed_cow_breaks;
      *result = MemAccessResult::kOutOfMemory;
      return nullptr;
    }
    pte = PrivatePte(frame);
    ++private_pages_;
    ++stats_.zero_fills;
    RecordTouch(gpfn);
    return &pte;
  }
  // CoW break: copy the shared frame into a private one. A borrowed source is
  // held by the bound generation, not by this address space.
  const FrameId copy = allocator_->CloneFrame(pte.frame);
  if (copy == kInvalidFrame) {
    ++stats_.failed_cow_breaks;
    *result = MemAccessResult::kOutOfMemory;
    return nullptr;
  }
  if (!pte.borrowed) {
    allocator_->Unref(pte.frame);
  }
  PK_CHECK(shared_pages_ > 0);
  --shared_pages_;
  pte = PrivatePte(copy);
  ++private_pages_;
  ++stats_.cow_faults;
  RecordTouch(gpfn);
  *result = MemAccessResult::kCowBreak;
  return &pte;
}

MemAccessResult AddressSpace::FaultRangeInternal(Gpfn first_gpfn, uint32_t count,
                                                 bool prefetch) {
  if (first_gpfn + count > num_pages_) {
    return MemAccessResult::kBadAddress;
  }
  ++stats_.batch_faults;
  // Pass 1: classify the run. Already-private pages need nothing; the rest
  // split into CoW breaks (clone the shared source) and zero fills.
  scratch_cow_gpfns_.clear();
  scratch_cow_src_.clear();
  scratch_zf_gpfns_.clear();
  for (uint32_t i = 0; i < count; ++i) {
    const Pte pte = PteAt(first_gpfn + i);
    if (pte.present && !pte.cow) {
      continue;
    }
    if (pte.present) {
      scratch_cow_gpfns_.push_back(first_gpfn + i);
      scratch_cow_src_.push_back(pte.frame);
    } else {
      scratch_zf_gpfns_.push_back(first_gpfn + i);
    }
  }
  const uint32_t cow_count = static_cast<uint32_t>(scratch_cow_gpfns_.size());
  const uint32_t zf_count = static_cast<uint32_t>(scratch_zf_gpfns_.size());
  if (cow_count + zf_count == 0) {
    return MemAccessResult::kOk;
  }
  // Pass 2: one reservation for the whole run. Clone first, then zero-fill;
  // if the second leg is denied, roll the clones back so the range is
  // untouched (all-or-nothing, mirroring the allocator's batch contract).
  scratch_cow_new_.resize(cow_count);
  scratch_zf_new_.resize(zf_count);
  if (cow_count > 0 &&
      allocator_->CloneFrameBatch(scratch_cow_src_, scratch_cow_new_.data()) !=
          FrameAllocStatus::kOk) {
    ++stats_.failed_cow_breaks;
    return MemAccessResult::kOutOfMemory;
  }
  if (zf_count > 0 &&
      allocator_->AllocateBatch(zf_count, scratch_zf_new_.data()) !=
          FrameAllocStatus::kOk) {
    if (cow_count > 0) {
      allocator_->UnrefBatch(scratch_cow_new_);
    }
    ++stats_.failed_cow_breaks;
    return MemAccessResult::kOutOfMemory;
  }
  // Pass 3: flip the PTEs and settle bookkeeping once for the run. Explicitly
  // shared sources drop the reference this address space held; borrowed ones
  // stay with the bound generation.
  for (uint32_t i = 0; i < cow_count; ++i) {
    Pte& pte = MutablePte(scratch_cow_gpfns_[i]);
    if (!pte.borrowed) {
      allocator_->Unref(pte.frame);
    }
    pte.frame = scratch_cow_new_[i];
    pte.cow = false;
    pte.borrowed = false;
    pte.prefetched = prefetch;
    if (track_dirty_) {
      MarkDirty(scratch_cow_gpfns_[i], pte);
    }
    if (!prefetch) {
      RecordTouch(scratch_cow_gpfns_[i]);
    }
  }
  for (uint32_t i = 0; i < zf_count; ++i) {
    Pte& pte = MutablePte(scratch_zf_gpfns_[i]);
    pte = PrivatePte(scratch_zf_new_[i]);
    pte.prefetched = prefetch;
    if (track_dirty_) {
      MarkDirty(scratch_zf_gpfns_[i], pte);
    }
    if (!prefetch) {
      RecordTouch(scratch_zf_gpfns_[i]);
    }
  }
  PK_CHECK(shared_pages_ >= cow_count);
  shared_pages_ -= cow_count;
  private_pages_ += cow_count + zf_count;
  stats_.cow_faults += cow_count;
  stats_.zero_fills += zf_count;
  if (prefetch) {
    stats_.prefetched_pages += cow_count + zf_count;
  }
  return cow_count > 0 ? MemAccessResult::kCowBreak : MemAccessResult::kOk;
}

MemAccessResult AddressSpace::FaultRange(Gpfn first_gpfn, uint32_t count) {
  return FaultRangeInternal(first_gpfn, count, /*prefetch=*/false);
}

MemAccessResult AddressSpace::PrefetchRange(Gpfn first_gpfn, uint32_t count) {
  return FaultRangeInternal(first_gpfn, count, /*prefetch=*/true);
}

MemAccessResult AddressSpace::WriteGuest(uint64_t gpaddr,
                                         std::span<const uint8_t> bytes) {
  if (gpaddr + bytes.size() > size_bytes()) {
    return MemAccessResult::kBadAddress;
  }
  ++stats_.writes;
  MemAccessResult result = MemAccessResult::kOk;
  size_t written = 0;
  while (written < bytes.size()) {
    const uint64_t addr = gpaddr + written;
    const Gpfn gpfn = static_cast<Gpfn>(addr / kPageSize);
    const size_t offset = addr % kPageSize;
    const size_t chunk = std::min(bytes.size() - written, kPageSize - offset);
    Pte* pte = MakeWritable(gpfn, &result);
    if (pte == nullptr) {
      return result;  // kOutOfMemory
    }
    if (track_dirty_) {
      MarkDirty(gpfn, *pte);
    }
    allocator_->Write(pte->frame, offset, bytes.subspan(written, chunk));
    written += chunk;
  }
  return result;
}

MemAccessResult AddressSpace::ReadGuest(uint64_t gpaddr, std::span<uint8_t> out) const {
  if (gpaddr + out.size() > size_bytes()) {
    return MemAccessResult::kBadAddress;
  }
  ++stats_.reads;
  size_t done = 0;
  while (done < out.size()) {
    const uint64_t addr = gpaddr + done;
    const Gpfn gpfn = static_cast<Gpfn>(addr / kPageSize);
    const size_t offset = addr % kPageSize;
    const size_t chunk = std::min(out.size() - done, kPageSize - offset);
    const Pte pte = PteAt(gpfn);
    if (!pte.present) {
      std::fill_n(out.data() + done, chunk, 0);
    } else {
      allocator_->Read(pte.frame, offset, out.subspan(done, chunk));
    }
    done += chunk;
  }
  return MemAccessResult::kOk;
}

MemAccessResult AddressSpace::TouchPages(Gpfn first_gpfn, uint32_t count) {
  for (uint32_t i = 0; i < count; ++i) {
    const Gpfn gpfn = first_gpfn + i;
    if (gpfn >= num_pages_) {
      return MemAccessResult::kBadAddress;
    }
    const uint8_t marker = static_cast<uint8_t>(0xd1 + i);
    const auto result =
        WriteGuest(static_cast<uint64_t>(gpfn) * kPageSize, std::span(&marker, 1));
    if (result == MemAccessResult::kOutOfMemory) {
      return result;
    }
  }
  return MemAccessResult::kOk;
}

MemAccessResult AddressSpace::TouchPagesBatched(Gpfn first_gpfn, uint32_t count) {
  if (first_gpfn + count > num_pages_) {
    return MemAccessResult::kBadAddress;
  }
  const MemAccessResult faulted = FaultRange(first_gpfn, count);
  if (faulted == MemAccessResult::kOutOfMemory) {
    return faulted;
  }
  // Same per-page markers as TouchPages, but every page is already private so
  // the writes cannot fault.
  for (uint32_t i = 0; i < count; ++i) {
    const Gpfn gpfn = first_gpfn + i;
    const uint8_t marker = static_cast<uint8_t>(0xd1 + i);
    ++stats_.writes;
    Pte& pte = MutablePte(gpfn);
    if (pte.prefetched) {
      pte.prefetched = false;
      ++stats_.prefetch_hits;
    }
    if (track_dirty_) {
      MarkDirty(gpfn, pte);
    }
    allocator_->Write(pte.frame, 0, std::span(&marker, 1));
  }
  return faulted;
}

bool AddressSpace::IsMapped(Gpfn gpfn) const {
  return gpfn < num_pages_ && PteAt(gpfn).present;
}

bool AddressSpace::IsCowShared(Gpfn gpfn) const {
  if (gpfn >= num_pages_) {
    return false;
  }
  const Pte pte = PteAt(gpfn);
  return pte.present && pte.cow;
}

bool AddressSpace::IsBaseShare(Gpfn gpfn) const {
  return gpfn < num_pages_ && PteAt(gpfn).borrowed;
}

FrameId AddressSpace::FrameAt(Gpfn gpfn) const {
  PK_CHECK(gpfn < num_pages_) << "FrameAt outside address space";
  const Pte pte = PteAt(gpfn);
  return pte.present ? pte.frame : kInvalidFrame;
}

uint32_t AddressSpace::materialized_leaves() const {
  uint32_t count = 0;
  for (const std::unique_ptr<Leaf>& leaf : leaves_) {
    count += leaf != nullptr ? 1 : 0;
  }
  return count;
}

void AddressSpace::ConvertPrivateToSharedCow(Gpfn gpfn, FrameId frame) {
  PK_CHECK(gpfn < num_pages_ && PteAt(gpfn).present && !PteAt(gpfn).cow)
      << "convert of non-private page";
  MapSharedCow(gpfn, frame);  // Unmaps (releasing the private frame) then shares.
}

void AddressSpace::MarkAllPrivateDirty() {
  if (!track_dirty_) {
    return;
  }
  ForEachPrivatePage(
      [this](Gpfn gpfn, FrameId) { MarkDirty(gpfn, MutablePte(gpfn)); });
}

void AddressSpace::ReleaseAll() {
  // Unmaterialised leaves hold only borrowed shares: nothing to drop there.
  for (std::unique_ptr<Leaf>& leaf : leaves_) {
    if (leaf == nullptr) {
      continue;
    }
    for (const Pte& pte : leaf->ptes) {
      if (pte.present && !pte.borrowed) {
        allocator_->Unref(pte.frame);
      }
    }
    leaf.reset();
  }
  base_ = {};
  shared_pages_ = 0;
  private_pages_ = 0;
  dirty_pages_.clear();
}

}  // namespace potemkin
