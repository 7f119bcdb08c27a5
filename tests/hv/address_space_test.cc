// Delta-virtualization core invariants: CoW sharing, fault behaviour, accounting.
#include "src/hv/address_space.h"

#include <gtest/gtest.h>

#include <vector>

namespace potemkin {
namespace {

std::vector<uint8_t> ReadBytes(const AddressSpace& as, uint64_t addr, size_t n) {
  std::vector<uint8_t> buf(n);
  EXPECT_EQ(as.ReadGuest(addr, std::span(buf.data(), buf.size())),
            MemAccessResult::kOk);
  return buf;
}

TEST(AddressSpaceTest, UnmappedReadsZero) {
  FrameAllocator alloc(16, ContentMode::kStoreBytes);
  AddressSpace as(&alloc, 4);
  const auto buf = ReadBytes(as, 0, 64);
  for (uint8_t b : buf) {
    EXPECT_EQ(b, 0);
  }
  EXPECT_EQ(as.private_pages(), 0u);
}

TEST(AddressSpaceTest, FirstWriteZeroFills) {
  FrameAllocator alloc(16, ContentMode::kStoreBytes);
  AddressSpace as(&alloc, 4);
  const std::vector<uint8_t> data = {7};
  EXPECT_EQ(as.WriteGuest(100, std::span(data.data(), 1)), MemAccessResult::kOk);
  EXPECT_EQ(as.private_pages(), 1u);
  EXPECT_EQ(as.stats().zero_fills, 1u);
  EXPECT_EQ(ReadBytes(as, 100, 1)[0], 7);
}

TEST(AddressSpaceTest, CowShareReadsSourceContent) {
  FrameAllocator alloc(16, ContentMode::kStoreBytes);
  const FrameId shared = alloc.AllocateZeroed();
  const std::vector<uint8_t> content = {0xca, 0xfe};
  alloc.Write(shared, 10, std::span(content.data(), content.size()));

  AddressSpace as(&alloc, 4);
  as.MapSharedCow(0, shared);
  EXPECT_EQ(alloc.RefCount(shared), 2u);  // owner + mapping
  EXPECT_EQ(ReadBytes(as, 10, 2), content);
  EXPECT_TRUE(as.IsCowShared(0));
  EXPECT_EQ(as.shared_pages(), 1u);
  EXPECT_EQ(as.private_pages(), 0u);
  alloc.Unref(shared);
}

TEST(AddressSpaceTest, WriteBreaksCowAndPreservesRestOfPage) {
  FrameAllocator alloc(16, ContentMode::kStoreBytes);
  const FrameId shared = alloc.AllocateZeroed();
  std::vector<uint8_t> content(kPageSize);
  for (size_t i = 0; i < kPageSize; ++i) {
    content[i] = static_cast<uint8_t>(i * 13);
  }
  alloc.Write(shared, 0, std::span(content.data(), content.size()));

  AddressSpace as(&alloc, 1);
  as.MapSharedCow(0, shared);
  const std::vector<uint8_t> patch = {0xff};
  EXPECT_EQ(as.WriteGuest(1000, std::span(patch.data(), 1)),
            MemAccessResult::kCowBreak);
  EXPECT_EQ(as.stats().cow_faults, 1u);
  EXPECT_FALSE(as.IsCowShared(0));
  EXPECT_EQ(as.private_pages(), 1u);
  EXPECT_EQ(as.shared_pages(), 0u);
  // Patched byte visible, all other bytes identical to the original.
  auto after = ReadBytes(as, 0, kPageSize);
  EXPECT_EQ(after[1000], 0xff);
  after[1000] = content[1000];
  EXPECT_EQ(after, content);
  // The shared frame itself is untouched.
  std::vector<uint8_t> orig(1);
  alloc.Read(shared, 1000, std::span(orig.data(), 1));
  EXPECT_EQ(orig[0], content[1000]);
  // Refcount back to just the owner.
  EXPECT_EQ(alloc.RefCount(shared), 1u);
  alloc.Unref(shared);
}

TEST(AddressSpaceTest, SecondWriteToSamePageIsNotAFault) {
  FrameAllocator alloc(16, ContentMode::kStoreBytes);
  const FrameId shared = alloc.AllocateZeroed();
  AddressSpace as(&alloc, 1);
  as.MapSharedCow(0, shared);
  const std::vector<uint8_t> data = {1};
  EXPECT_EQ(as.WriteGuest(0, std::span(data.data(), 1)), MemAccessResult::kCowBreak);
  EXPECT_EQ(as.WriteGuest(1, std::span(data.data(), 1)), MemAccessResult::kOk);
  EXPECT_EQ(as.stats().cow_faults, 1u);
  alloc.Unref(shared);
}

TEST(AddressSpaceTest, CrossPageWriteSpansCorrectly) {
  FrameAllocator alloc(16, ContentMode::kStoreBytes);
  AddressSpace as(&alloc, 2);
  std::vector<uint8_t> data(100, 0xab);
  const uint64_t addr = kPageSize - 50;
  EXPECT_EQ(as.WriteGuest(addr, std::span(data.data(), data.size())),
            MemAccessResult::kOk);
  EXPECT_EQ(as.private_pages(), 2u);
  EXPECT_EQ(ReadBytes(as, addr, 100), data);
}

TEST(AddressSpaceTest, OutOfRangeAccessRejected) {
  FrameAllocator alloc(16, ContentMode::kStoreBytes);
  AddressSpace as(&alloc, 1);
  std::vector<uint8_t> data(10);
  EXPECT_EQ(as.WriteGuest(kPageSize - 5, std::span(data.data(), data.size())),
            MemAccessResult::kBadAddress);
  EXPECT_EQ(as.ReadGuest(kPageSize * 2, std::span(data.data(), data.size())),
            MemAccessResult::kBadAddress);
}

TEST(AddressSpaceTest, CowBreakFailsCleanlyWhenOutOfMemory) {
  FrameAllocator alloc(1, ContentMode::kStoreBytes);
  const FrameId shared = alloc.AllocateZeroed();  // consumes the only frame
  AddressSpace as(&alloc, 1);
  as.MapSharedCow(0, shared);
  const std::vector<uint8_t> data = {1};
  EXPECT_EQ(as.WriteGuest(0, std::span(data.data(), 1)),
            MemAccessResult::kOutOfMemory);
  EXPECT_EQ(as.stats().failed_cow_breaks, 1u);
  // Mapping still intact and readable.
  EXPECT_TRUE(as.IsCowShared(0));
  alloc.Unref(shared);
}

TEST(AddressSpaceTest, ReleaseAllFreesPrivateFramesAndDropsShares) {
  FrameAllocator alloc(16, ContentMode::kStoreBytes);
  const FrameId shared = alloc.AllocateZeroed();
  {
    AddressSpace as(&alloc, 4);
    as.MapSharedCow(0, shared);
    as.MapSharedCow(1, shared);
    const std::vector<uint8_t> data = {1};
    as.WriteGuest(0, std::span(data.data(), 1));            // CoW break: +1 frame
    as.WriteGuest(2 * kPageSize, std::span(data.data(), 1));  // zero fill: +1 frame
    EXPECT_EQ(alloc.used_frames(), 3u);
    EXPECT_EQ(alloc.RefCount(shared), 2u);  // owner + one remaining share
  }  // destructor releases everything
  EXPECT_EQ(alloc.used_frames(), 1u);
  EXPECT_EQ(alloc.RefCount(shared), 1u);
  alloc.Unref(shared);
  EXPECT_EQ(alloc.used_frames(), 0u);
}

TEST(AddressSpaceTest, TouchPagesDirtiesExactlyCount) {
  FrameAllocator alloc(64, ContentMode::kStoreBytes);
  AddressSpace as(&alloc, 32);
  EXPECT_EQ(as.TouchPages(4, 8), MemAccessResult::kOk);
  EXPECT_EQ(as.private_pages(), 8u);
  for (Gpfn g = 4; g < 12; ++g) {
    EXPECT_TRUE(as.IsMapped(g));
  }
  EXPECT_FALSE(as.IsMapped(3));
  EXPECT_FALSE(as.IsMapped(12));
}

TEST(AddressSpaceTest, SharedMappingRemapReleasesPrevious) {
  FrameAllocator alloc(16, ContentMode::kStoreBytes);
  const FrameId a = alloc.AllocateZeroed();
  const FrameId b = alloc.AllocateZeroed();
  AddressSpace as(&alloc, 1);
  as.MapSharedCow(0, a);
  EXPECT_EQ(alloc.RefCount(a), 2u);
  as.MapSharedCow(0, b);  // remap
  EXPECT_EQ(alloc.RefCount(a), 1u);
  EXPECT_EQ(alloc.RefCount(b), 2u);
  EXPECT_EQ(as.shared_pages(), 1u);
  alloc.Unref(a);
  alloc.Unref(b);
}

std::vector<FrameId> AllocateImage(FrameAllocator& alloc, uint32_t pages) {
  std::vector<FrameId> image;
  for (uint32_t i = 0; i < pages; ++i) {
    image.push_back(alloc.AllocateZeroed());
  }
  return image;
}

TEST(AddressSpaceTest, BindBaseBorrowsWithoutReferences) {
  FrameAllocator alloc(256, ContentMode::kStoreBytes);
  const std::vector<FrameId> image = AllocateImage(alloc, 64);
  {
    AddressSpace as(&alloc, 64);
    as.BindBase(image);
    EXPECT_EQ(as.shared_pages(), 64u);
    EXPECT_EQ(as.materialized_leaves(), 0u);
    for (Gpfn g = 0; g < 64; ++g) {
      EXPECT_TRUE(as.IsCowShared(g));
      EXPECT_TRUE(as.IsBaseShare(g));
      EXPECT_EQ(as.FrameAt(g), image[g]);
      EXPECT_EQ(alloc.RefCount(image[g]), 1u);  // the owner's only
    }
    // Breaking a borrowed share copies the page and leaves the source's
    // references alone.
    const std::vector<uint8_t> data = {9};
    EXPECT_EQ(as.WriteGuest(3 * kPageSize, std::span(data.data(), 1)),
              MemAccessResult::kCowBreak);
    EXPECT_EQ(alloc.RefCount(image[3]), 1u);
    EXPECT_FALSE(as.IsBaseShare(3));
    EXPECT_TRUE(as.IsBaseShare(4));
    EXPECT_EQ(as.private_pages(), 1u);
    EXPECT_EQ(as.shared_pages(), 63u);
    EXPECT_EQ(alloc.used_frames(), 65u);
  }
  // Teardown frees the private copy and nothing else.
  EXPECT_EQ(alloc.used_frames(), 64u);
  for (FrameId f : image) {
    EXPECT_EQ(alloc.RefCount(f), 1u);
    alloc.Unref(f);
  }
}

TEST(AddressSpaceTest, OnlyWrittenLeavesMaterialise) {
  constexpr uint32_t kPages = 8 * AddressSpace::kLeafPages;
  FrameAllocator alloc(2 * kPages, ContentMode::kMetadataOnly);
  const std::vector<FrameId> image = AllocateImage(alloc, kPages);
  AddressSpace as(&alloc, kPages);
  as.BindBase(image);
  // Reads never materialise.
  std::vector<uint8_t> buf(16);
  EXPECT_EQ(as.ReadGuest(5 * kPageSize, std::span(buf.data(), buf.size())),
            MemAccessResult::kOk);
  EXPECT_EQ(as.materialized_leaves(), 0u);
  // One write into leaf 2, two into leaf 5.
  const std::vector<uint8_t> data = {1};
  const Gpfn leaf2 = 2 * AddressSpace::kLeafPages + 17;
  const Gpfn leaf5 = 5 * AddressSpace::kLeafPages;
  as.WriteGuest(uint64_t{leaf2} * kPageSize, std::span(data.data(), 1));
  as.WriteGuest(uint64_t{leaf5} * kPageSize, std::span(data.data(), 1));
  as.WriteGuest(uint64_t{leaf5 + 1} * kPageSize, std::span(data.data(), 1));
  EXPECT_EQ(as.materialized_leaves(), 2u);
  // A batched fault straddling leaves 0 and 1 materialises exactly those.
  EXPECT_EQ(as.FaultRange(AddressSpace::kLeafPages - 2, 4),
            MemAccessResult::kCowBreak);
  EXPECT_EQ(as.materialized_leaves(), 4u);
  EXPECT_EQ(as.private_pages(), 7u);
  // Unwritten pages of a materialised leaf still borrow the base.
  EXPECT_TRUE(as.IsBaseShare(leaf2 + 1));
  EXPECT_EQ(as.FrameAt(leaf2 + 1), image[leaf2 + 1]);
  as.ReleaseAll();
  EXPECT_EQ(as.materialized_leaves(), 0u);
  EXPECT_FALSE(as.IsMapped(0));
  EXPECT_EQ(alloc.used_frames(), kPages);
  for (FrameId f : image) {
    EXPECT_EQ(alloc.RefCount(f), 1u);
    alloc.Unref(f);
  }
}

TEST(AddressSpaceTest, ExplicitShareOverBaseTakesARealReference) {
  FrameAllocator alloc(64, ContentMode::kStoreBytes);
  const std::vector<FrameId> image = AllocateImage(alloc, 4);
  const FrameId other = alloc.AllocateZeroed();
  AddressSpace as(&alloc, 4);
  as.BindBase(image);
  as.MapSharedCow(1, other);  // replaces a borrowed share: nothing to drop
  EXPECT_EQ(alloc.RefCount(image[1]), 1u);
  EXPECT_EQ(alloc.RefCount(other), 2u);
  EXPECT_TRUE(as.IsCowShared(1));
  EXPECT_FALSE(as.IsBaseShare(1));
  EXPECT_EQ(as.shared_pages(), 4u);
  as.Unmap(2);  // borrowed: no reference to drop
  EXPECT_EQ(alloc.RefCount(image[2]), 1u);
  EXPECT_EQ(as.shared_pages(), 3u);
  EXPECT_FALSE(as.IsMapped(2));
  as.ReleaseAll();
  EXPECT_EQ(alloc.RefCount(other), 1u);
  for (FrameId f : image) {
    EXPECT_EQ(alloc.RefCount(f), 1u);
  }
}

// Property sweep: for any mix of zero-fill and CoW pages, the allocator's used
// count equals image frames + private frames, and shared+private == mapped pages.
class AddressSpaceAccountingTest : public ::testing::TestWithParam<int> {};

TEST_P(AddressSpaceAccountingTest, AccountingInvariants) {
  const int writes = GetParam();
  FrameAllocator alloc(4096, ContentMode::kStoreBytes);
  constexpr uint32_t kPages = 64;
  std::vector<FrameId> image;
  for (uint32_t i = 0; i < kPages; ++i) {
    image.push_back(alloc.AllocateZeroed());
  }
  AddressSpace as(&alloc, kPages);
  for (uint32_t i = 0; i < kPages; ++i) {
    as.MapSharedCow(i, image[i]);
  }
  const uint64_t base_frames = alloc.used_frames();
  EXPECT_EQ(base_frames, kPages);

  // Dirty `writes` distinct pages.
  for (int w = 0; w < writes; ++w) {
    const std::vector<uint8_t> data = {static_cast<uint8_t>(w)};
    as.WriteGuest(static_cast<uint64_t>(w) * kPageSize * 2 % (kPages * kPageSize),
                  std::span(data.data(), 1));
  }
  EXPECT_EQ(as.shared_pages() + as.private_pages(), kPages);
  EXPECT_EQ(alloc.used_frames(), kPages + as.private_pages());
  for (FrameId f : image) {
    alloc.Unref(f);
  }
}

INSTANTIATE_TEST_SUITE_P(WriteCounts, AddressSpaceAccountingTest,
                         ::testing::Values(0, 1, 5, 17, 32));

}  // namespace
}  // namespace potemkin
