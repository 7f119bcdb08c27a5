#include "src/hv/physical_host.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/base/strings.h"

namespace potemkin {

const char* CloneKindName(CloneKind kind) {
  switch (kind) {
    case CloneKind::kFlash:
      return "flash";
    case CloneKind::kFullCopy:
      return "full-copy";
    case CloneKind::kColdBoot:
      return "cold-boot";
  }
  return "?";
}

PhysicalHost::PhysicalHost(const PhysicalHostConfig& config)
    : config_(config),
      allocator_(config.memory_mb * (1 << 20) / kPageSize, config.content_mode) {
  if (config.content_mode == ContentMode::kStoreBytes) {
    allocator_.set_dedup_index(&dedup_index_);
  }
  if (config_.pressure_high_watermark > 0.0 &&
      config_.pressure_low_watermark <= 0.0) {
    config_.pressure_low_watermark = config_.pressure_high_watermark;
  }
}

PhysicalHost::~PhysicalHost() {
  if (export_registry_ != nullptr) {
    export_registry_->RemoveProbes(this);
  }
}

void PhysicalHost::ExportMetrics(MetricRegistry* registry,
                                 const std::string& prefix) {
  if (export_registry_ != nullptr) {
    export_registry_->RemoveProbes(this);
  }
  export_registry_ = registry;
  allocator_.ExportMetrics(registry, prefix + ".mem");
  if (registry == nullptr) {
    return;
  }
  registry->RegisterProbe(this, prefix + ".vms.live", "vms", [this] {
    return static_cast<double>(vms_.size());
  });
  registry->RegisterProbe(this, prefix + ".vms.peak", "vms", [this] {
    return static_cast<double>(peak_live_vms_);
  });
  registry->RegisterProbe(this, prefix + ".pages.private", "pages", [this] {
    return static_cast<double>(TotalPrivatePages());
  });
  registry->RegisterProbe(this, prefix + ".dedup.passes", "count", [this] {
    return static_cast<double>(dedup_totals_.passes);
  });
  registry->RegisterProbe(this, prefix + ".dedup.pages_merged", "pages", [this] {
    return static_cast<double>(dedup_totals_.pages_merged);
  });
  registry->RegisterProbe(this, prefix + ".dedup.frames_freed", "frames", [this] {
    return static_cast<double>(dedup_totals_.frames_freed);
  });
  registry->RegisterProbe(this, prefix + ".dedup.hit_rate", "ratio",
                          [this] { return dedup_totals_.HitRate(); });
  registry->RegisterProbe(this, prefix + ".prefetch.pages", "pages", [this] {
    return static_cast<double>(prefetch_totals().prefetched_pages);
  });
  registry->RegisterProbe(this, prefix + ".prefetch.hits", "pages", [this] {
    return static_cast<double>(prefetch_totals().hits);
  });
  registry->RegisterProbe(this, prefix + ".prefetch.hit_rate", "ratio",
                          [this] { return prefetch_totals().HitRate(); });
  registry->RegisterProbe(this, prefix + ".pressure.active", "bool", [this] {
    return UnderMemoryPressure() ? 1.0 : 0.0;
  });
}

ImageId PhysicalHost::RegisterImage(const ReferenceImageConfig& config,
                                    uint64_t disk_blocks) {
  auto image = std::make_unique<ReferenceImage>(&allocator_, config);
  PK_CHECK(image->ok()) << "host " << config_.name << " cannot boot reference image";
  images_.push_back(std::move(image));
  disks_.push_back(std::make_unique<ReferenceDisk>(disk_blocks, config.content_seed));
  return static_cast<ImageId>(images_.size() - 1);
}

const ReferenceImage* PhysicalHost::image(ImageId id) const {
  return id < images_.size() ? images_[id].get() : nullptr;
}

ReferenceImage* PhysicalHost::mutable_image(ImageId id) {
  return id < images_.size() ? images_[id].get() : nullptr;
}

bool PhysicalHost::CanAdmit(ImageId image_id, CloneKind kind) const {
  if (image_id >= images_.size()) {
    return false;
  }
  uint64_t needed = config_.domain_overhead_frames + config_.admission_reserve_frames;
  if (kind != CloneKind::kFlash) {
    needed += images_[image_id]->num_pages();
  }
  return allocator_.CanAllocate(needed);
}

VirtualMachine* PhysicalHost::CreateClone(ImageId image_id, CloneKind kind,
                                          const std::string& name) {
  return CreateClone(image_id, kind, name, CloneOptions{});
}

VirtualMachine* PhysicalHost::CreateClone(ImageId image_id, CloneKind kind,
                                          const std::string& name,
                                          const CloneOptions& options) {
  if (!CanAdmit(image_id, kind)) {
    ++total_failures_;
    return nullptr;
  }
  ReferenceImage& img = *images_[image_id];
  const ReferenceDisk* disk = disks_[image_id].get();
  const ImageGeneration generation = img.current_generation();

  VmRecord record;
  record.image = image_id;
  record.generation = generation;
  record.attack_class = options.attack_class;
  record.record_working_set = options.record_working_set;
  const VmId id = (static_cast<VmId>(config_.id) << 32) | next_vm_seq_++;
  record.vm = std::make_unique<VirtualMachine>(id, name, &allocator_, img.num_pages(),
                                               disk);

  // Fixed domain overhead.
  record.overhead_frames.reserve(config_.domain_overhead_frames);
  for (uint64_t i = 0; i < config_.domain_overhead_frames; ++i) {
    const FrameId frame = allocator_.AllocateZeroed();
    if (frame == kInvalidFrame) {
      for (FrameId f : record.overhead_frames) {
        allocator_.Unref(f);
      }
      ++total_failures_;
      return nullptr;
    }
    record.overhead_frames.push_back(frame);
  }

  AddressSpace& mem = record.vm->memory();
  if (options.record_working_set) {
    mem.EnableTouchOrderRecording();
  }
  bool oom = false;
  switch (kind) {
    case CloneKind::kFlash:
      // Delta virtualization: borrow the generation's frame list in O(1). The
      // generation's own references keep the frames live; the pin taken below
      // keeps the list itself live until DestroyVm releases the address space.
      mem.BindBase(img.GenerationFrames(generation));
      break;
    case CloneKind::kFullCopy:
    case CloneKind::kColdBoot: {
      for (Gpfn gpfn = 0; gpfn < img.num_pages() && !oom; ++gpfn) {
        const FrameId copy = allocator_.CloneFrame(img.FrameForPage(generation, gpfn));
        if (copy == kInvalidFrame) {
          oom = true;
          break;
        }
        mem.MapPrivateOwned(gpfn, copy);
      }
      break;
    }
  }
  if (oom) {
    mem.ReleaseAll();
    for (FrameId f : record.overhead_frames) {
      allocator_.Unref(f);
    }
    ++total_failures_;
    return nullptr;
  }

  if (options.use_working_set) {
    ++retired_prefetch_.sessions;
    if (const WorkingSetProfile* profile = img.FindProfile(options.attack_class)) {
      // Coalesce the prediction into contiguous runs and materialise each with
      // one batched fault. Prefetch is opportunistic: a denied run simply
      // leaves the remaining pages to demand faulting.
      std::vector<Gpfn> predicted = profile->PredictFirst(options.prefetch_pages);
      std::sort(predicted.begin(), predicted.end());
      size_t i = 0;
      while (i < predicted.size()) {
        size_t j = i + 1;
        while (j < predicted.size() && predicted[j] == predicted[j - 1] + 1) {
          ++j;
        }
        const auto run_len = static_cast<uint32_t>(j - i);
        if (mem.PrefetchRange(predicted[i], run_len) ==
            MemAccessResult::kOutOfMemory) {
          break;
        }
        i = j;
      }
    }
  }

  img.PinGeneration(generation);
  VirtualMachine* vm = record.vm.get();
  vms_.emplace(id, std::move(record));
  ++total_created_;
  peak_live_vms_ = std::max<uint64_t>(peak_live_vms_, vms_.size());
  return vm;
}

bool PhysicalHost::DestroyVm(VmId id) {
  auto it = vms_.find(id);
  if (it == vms_.end()) {
    return false;
  }
  VmRecord& record = it->second;
  const AddressSpaceStats& stats = record.vm->memory().stats();
  retired_prefetch_.prefetched_pages += stats.prefetched_pages;
  retired_prefetch_.hits += stats.prefetch_hits;
  if (record.record_working_set) {
    const std::vector<Gpfn>& order = record.vm->memory().touch_order();
    if (!order.empty() && record.image < images_.size()) {
      images_[record.image]
          ->ProfileForClass(record.attack_class)
          .RecordSession(std::span(order.data(), order.size()));
    }
  }
  record.vm->set_state(VmState::kRetired);
  record.vm->memory().ReleaseAll();
  for (FrameId f : record.overhead_frames) {
    allocator_.Unref(f);
  }
  if (record.image < images_.size()) {
    images_[record.image]->UnpinGeneration(record.generation);
  }
  vms_.erase(it);
  ++total_destroyed_;
  return true;
}

VirtualMachine* PhysicalHost::FindVm(VmId id) {
  auto it = vms_.find(id);
  return it == vms_.end() ? nullptr : it->second.vm.get();
}

ImageGeneration PhysicalHost::VmGeneration(VmId id) const {
  auto it = vms_.find(id);
  return it == vms_.end() ? 0 : it->second.generation;
}

uint64_t PhysicalHost::TotalPrivatePages() const {
  uint64_t total = 0;
  for (const auto& [id, record] : vms_) {
    total += record.vm->memory().private_pages();
  }
  return total;
}

PrefetchTotals PhysicalHost::prefetch_totals() const {
  PrefetchTotals totals = retired_prefetch_;
  for (const auto& [id, record] : vms_) {
    const AddressSpaceStats& stats = record.vm->memory().stats();
    totals.prefetched_pages += stats.prefetched_pages;
    totals.hits += stats.prefetch_hits;
  }
  return totals;
}

bool PhysicalHost::UnderMemoryPressure() const {
  if (config_.pressure_high_watermark <= 0.0) {
    return false;
  }
  const auto threshold = static_cast<uint64_t>(
      config_.pressure_high_watermark *
      static_cast<double>(allocator_.capacity_frames()));
  return allocator_.used_frames() > threshold;
}

uint64_t PhysicalHost::FramesAboveLowWatermark() const {
  if (!UnderMemoryPressure()) {
    return 0;
  }
  const auto floor = static_cast<uint64_t>(
      config_.pressure_low_watermark *
      static_cast<double>(allocator_.capacity_frames()));
  const uint64_t used = allocator_.used_frames();
  return used > floor ? used - floor : 0;
}

std::vector<VmId> PhysicalHost::PressureVictims(size_t max) const {
  std::vector<std::pair<int64_t, VmId>> candidates;
  candidates.reserve(vms_.size());
  for (const auto& [id, record] : vms_) {
    if (record.vm->state() != VmState::kRunning) {
      continue;  // never reclaim a clone still materialising or already quiescing
    }
    candidates.emplace_back(record.vm->last_activity().nanos(), id);
  }
  std::sort(candidates.begin(), candidates.end());
  if (candidates.size() > max) {
    candidates.resize(max);
  }
  std::vector<VmId> victims;
  victims.reserve(candidates.size());
  for (const auto& [activity, id] : candidates) {
    victims.push_back(id);
  }
  return victims;
}

}  // namespace potemkin
