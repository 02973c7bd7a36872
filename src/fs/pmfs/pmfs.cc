#include "src/fs/pmfs/pmfs.h"

#include "src/common/units.h"

namespace pmfs {

using common::ExecContext;
using common::kBlockSize;
using common::Result;
using common::Status;
using fscore::AllocIntent;
using fscore::Extent;
using fscore::Inode;

namespace {
// Journal format ("PJ"): metadata undo only, so no blobs.
constexpr fscore::UndoFormat kJournalFormat{.magic = 0x4a50};
}  // namespace

Pmfs::Pmfs(pmem::PmemDevice* device, PmfsOptions options)
    : GenericFs(device, options.base), popts_(options) {}

void Pmfs::InitAllocator(uint64_t data_start, uint64_t nblocks) {
  free_ = fscore::FreeSpaceMap();
  free_.Release(data_start, nblocks);
  PlaceJournal();
  tx_depth_ = 0;
  delayed_dirty_.clear();
}

void Pmfs::RebuildAllocator(ExecContext& ctx, fscore::FreeSpaceMap&& free_map) {
  (void)ctx;
  free_ = std::move(free_map);
  tx_depth_ = 0;
  delayed_dirty_.clear();
}

Result<std::vector<Extent>> Pmfs::AllocBlocks(ExecContext& ctx, Inode& inode, uint64_t nblocks,
                                              AllocIntent intent) {
  (void)inode;
  (void)intent;
  ctx.counters.alloc_requests++;
  // PMFS scans free lists on PM; charge a modest sequential probe.
  ctx.clock.Advance(120);
  std::vector<Extent> result;
  uint64_t remaining = nblocks;
  while (remaining > 0) {
    auto ext = free_.AllocFirstFit(remaining, 0);
    if (!ext.has_value()) {
      const uint64_t largest = free_.LargestRun();
      if (largest == 0) {
        FreeBlocks(ctx, result);
        return common::ErrorCode::kNoSpace;
      }
      ext = free_.AllocFirstFit(largest, 0);
    }
    result.push_back(*ext);
    remaining -= ext->num_blocks;
    if (ext->IsAligned()) {
      ctx.counters.aligned_allocs++;
    }
  }
  return result;
}

void Pmfs::FreeBlocks(ExecContext& ctx, const std::vector<Extent>& extents) {
  ctx.clock.Advance(60);
  for (const Extent& ext : extents) {
    free_.Release(ext.phys_block, ext.num_blocks);
  }
}

void Pmfs::PlaceJournal() {
  journal_.Place(device_, kJournalFormat, journal_start_block_ * kBlockSize,
                 options_.journal_blocks * kBlockSize);
}

void Pmfs::TxBegin(ExecContext& ctx) {
  if (popts_.delayed_metadata) {
    return;  // no journal: the vulnerability window the campaign must catch
  }
  tx_depth_++;
  if (tx_depth_ > 1) {
    return;
  }
  tx_id_ = next_txn_id_++;
  journal_.Begin(ctx, tx_id_);
}

void Pmfs::TxMetaWrite(ExecContext& ctx, vfs::InodeNum owner, uint64_t pm_offset,
                       const void* data, uint64_t len) {
  (void)owner;
  if (popts_.delayed_metadata) {
    // Plain store, no undo, no flush, no fence: persists whenever the
    // hardware evicts the line (or at the next fsync/unmount drain). Dirents
    // can hit media before their inode — the dangling-entry window.
    device_->Store(ctx, pm_offset, data, len);
    delayed_dirty_.emplace_back(pm_offset, len);
    return;
  }
  const bool self_contained = tx_depth_ == 0;
  if (self_contained) {
    TxBegin(ctx);
  }
  journal_.Undo(ctx, tx_id_, pm_offset, len);
  device_->Store(ctx, pm_offset, data, len);
  device_->Clwb(ctx, pm_offset, len);
  device_->Fence(ctx);
  if (self_contained) {
    TxCommit(ctx);
  }
}

void Pmfs::TxCommit(ExecContext& ctx) {
  if (popts_.delayed_metadata) {
    return;
  }
  tx_depth_--;
  if (tx_depth_ > 0) {
    return;
  }
  journal_.Commit(ctx, tx_id_);
}

void Pmfs::DrainDelayed(ExecContext& ctx) {
  if (delayed_dirty_.empty()) {
    return;
  }
  for (const auto& [off, len] : delayed_dirty_) {
    device_->Clwb(ctx, off, len);
  }
  device_->Fence(ctx);
  delayed_dirty_.clear();
}

Status Pmfs::FsyncImpl(ExecContext& ctx, Inode& inode) {
  (void)inode;
  if (popts_.delayed_metadata) {
    DrainDelayed(ctx);
  }
  // Journaled metadata is synchronous; fsync only drains (done by the caller).
  return common::OkStatus();
}

Status Pmfs::Unmount(ExecContext& ctx) {
  if (popts_.delayed_metadata) {
    // Persist straggling metadata before the base writes the clean flag —
    // a clean image must not depend on unflushed lines.
    DrainDelayed(ctx);
  }
  return GenericFs::Unmount(ctx);
}

Status Pmfs::RecoverJournal(ExecContext& ctx) {
  PlaceJournal();
  fscore::UndoRing* rings[] = {&journal_};
  return fscore::UndoRing::Recover(ctx, *device_, journal_start_block_ * kBlockSize,
                                   options_.journal_blocks * kBlockSize, mount_found_clean_,
                                   fscore::UndoReplay::kDirtyMountOnly, rings);
}

void Pmfs::ChargeDirLookup(ExecContext& ctx, const Inode& dir) {
  // Sequential scan of on-PM dirents (64 B each); this is what makes PMFS
  // slow on metadata-heavy workloads like varmail (§5.5).
  const uint64_t lines = dir.dirents.size() + dir.free_dirent_slots.size();
  ctx.clock.Advance((lines / 2 + 1) * device_->cost().pm_load_seq_ns);
  ctx.counters.pm_read_bytes += (lines / 2 + 1) * 64;
}

vfs::FreeSpaceInfo Pmfs::FreeSpace() {
  vfs::FreeSpaceInfo info;
  info.total_blocks = data_blocks_;
  info.free_blocks = free_.free_blocks();
  info.free_aligned_extents = free_.CountAlignedFreeRegions();
  info.largest_free_extent_blocks = free_.LargestRun();
  return info;
}

void Pmfs::SampleGauges(obs::GaugeSample& out) {
  GenericFs::SampleGauges(out);
  std::lock_guard<fscore::DomainMutex> guard(dram_mu_);
  SetRunHistogramGauges(free_.RunHistogram(), out);
  const uint64_t written = journal_.written();
  const uint64_t capacity = journal_.capacity();
  out.Set("journal_entries_written", static_cast<double>(written));
  out.Set("journal_ring_fill", capacity == 0 ? 0.0
                                             : static_cast<double>(written % capacity) /
                                                   static_cast<double>(capacity));
  if (popts_.delayed_metadata) {
    out.Set("delayed_dirty_ranges", static_cast<double>(delayed_dirty_.size()));
  }
}

}  // namespace pmfs
