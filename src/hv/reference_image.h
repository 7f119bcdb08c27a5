// Reference images: frozen snapshots of a booted guest that flash clones map
// copy-on-write. The paper boots a VM once per host, snapshots it, and serves all
// clones from that snapshot; we synthesize the snapshot's memory contents
// deterministically from a seed (a mix of zero pages, code-like pages and data-like
// pages, with realistic proportions) so tests can verify clones observe exactly the
// image's bytes.
//
// Images are *versioned*: `Refresh` derives a new generation by patching a
// handful of pages (a rebooted/updated snapshot) while structurally sharing
// every unpatched frame with the previous generation via refcounts. New clones
// bind the newest generation; a live clone pins the generation it booted from,
// so the farm never drains to take an image update — an old generation's
// residual frames are released when its last clone is recycled.
//
// Images also carry the per-attack-class working-set profiles ([[working_set.h]])
// recorded from completed sessions, since the profile describes *this image's*
// page layout and travels with it.
#ifndef SRC_HV_REFERENCE_IMAGE_H_
#define SRC_HV_REFERENCE_IMAGE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "src/hv/frame_allocator.h"
#include "src/hv/types.h"
#include "src/hv/working_set.h"

namespace potemkin {

struct ReferenceImageConfig {
  std::string name = "linux-reference";
  uint32_t num_pages = 8192;  // 32 MiB guest by default
  uint64_t content_seed = 1;
  // Fraction of pages that are zero in the booted snapshot (free memory). Zero
  // pages still get distinct frames so that sharing accounting is conservative.
  double zero_page_fraction = 0.4;
  // Profile shape for the working sets recorded against this image.
  WorkingSetProfileConfig working_set;
};

// Snapshot of non-memory state that flash cloning must also copy (tiny).
struct DeviceSnapshot {
  uint64_t vcpu_context_words = 64;
  uint64_t nic_state_bytes = 256;
  uint64_t block_state_bytes = 512;
};

// One page replaced by an image refresh; `bytes` (≤ kPageSize) land at the
// start of the page, the remainder zero-fills.
struct ImagePatch {
  Gpfn gpfn = 0;
  std::vector<uint8_t> bytes;
};

// Identifies an image generation; 0 is the boot-time snapshot.
using ImageGeneration = uint32_t;

class ReferenceImage {
 public:
  // Builds generation 0 by "booting": allocates one frame per guest page from
  // `allocator` and fills deterministic contents. Each live generation holds one
  // reference to each of its frames.
  ReferenceImage(FrameAllocator* allocator, const ReferenceImageConfig& config);
  ~ReferenceImage();
  ReferenceImage(const ReferenceImage&) = delete;
  ReferenceImage& operator=(const ReferenceImage&) = delete;

  const std::string& name() const { return config_.name; }
  uint32_t num_pages() const { return config_.num_pages; }
  uint64_t size_bytes() const {
    return static_cast<uint64_t>(config_.num_pages) * kPageSize;
  }
  // Frame backing `gpfn` in the newest generation (the binding every new clone
  // gets).
  FrameId FrameForPage(Gpfn gpfn) const;
  // Frame backing `gpfn` in a specific (still-live) generation.
  FrameId FrameForPage(ImageGeneration generation, Gpfn gpfn) const;
  // All frames of a live generation, indexed by gpfn — what a flash clone
  // binds with AddressSpace::BindBase. The span stays valid while the
  // generation is live (pinned or newest), across later Refresh calls.
  std::span<const FrameId> GenerationFrames(ImageGeneration generation) const;

  const DeviceSnapshot& devices() const { return devices_; }
  FrameAllocator* allocator() const { return allocator_; }

  // ---- Generations ----

  ImageGeneration current_generation() const {
    return static_cast<ImageGeneration>(generations_.size() - 1);
  }
  // Generations still holding frames (the newest plus any pinned ancestors).
  size_t live_generations() const;
  // True if `generation` still holds its frames (not retired).
  bool generation_live(ImageGeneration generation) const {
    return generation < generations_.size() && !generations_[generation].retired;
  }

  // Derives a new generation from the newest one: unpatched pages share the
  // parent's frames (one extra reference each, no copy), patched pages get
  // fresh frames with the given bytes. Returns false (image unchanged) if the
  // host cannot back the patched pages. A parent generation with no pinned
  // clones releases its frames immediately; refcounts keep shared frames live.
  bool Refresh(std::span<const ImagePatch> patches);

  // Clone lifetime pinning. A clone pins the generation it binds at creation
  // and unpins at recycle; a non-newest generation with zero pins releases its
  // frame references (shared frames survive through newer generations' refs).
  void PinGeneration(ImageGeneration generation);
  void UnpinGeneration(ImageGeneration generation);
  uint32_t pins(ImageGeneration generation) const;

  // ---- Working-set profiles ----

  // The profile for an attack class (creating it on first use, shaped by
  // config().working_set). Sessions record into and predictions read from the
  // same object, keyed by whatever taxonomy the farm uses (image profile
  // index, worm strain id, ...).
  WorkingSetProfile& ProfileForClass(uint32_t attack_class);
  const WorkingSetProfile* FindProfile(uint32_t attack_class) const;
  size_t profile_count() const { return profiles_.size(); }

  // Regenerates the expected content of one generation-0 page (for
  // verification in tests).
  static std::vector<uint8_t> ExpectedPageContent(const ReferenceImageConfig& config,
                                                  Gpfn gpfn);

  bool ok() const { return ok_; }

 private:
  struct Generation {
    std::vector<FrameId> frames;  // empty once retired
    uint32_t pin_count = 0;
    bool retired = false;  // frames released (never the newest generation)
  };
  // Flash clones borrow `frames.data()` while pinned; growing `generations_`
  // must move each frame list, never copy it.
  static_assert(std::is_nothrow_move_constructible_v<Generation>);

  // Releases `gen`'s frame references if it is non-newest and unpinned.
  void MaybeRetire(ImageGeneration gen);
  const Generation& LiveGeneration(ImageGeneration gen) const;

  FrameAllocator* allocator_;
  ReferenceImageConfig config_;
  DeviceSnapshot devices_;
  std::vector<Generation> generations_;
  std::map<uint32_t, WorkingSetProfile> profiles_;
  bool ok_ = false;
};

}  // namespace potemkin

#endif  // SRC_HV_REFERENCE_IMAGE_H_
