#include "src/fs/ext4dax/ext4dax.h"

#include <algorithm>

#include "src/common/prof_zone.h"
#include "src/common/units.h"
#include "src/vfs/op_batch.h"

namespace ext4dax {

using common::ExecContext;
using common::kBlockSize;
using common::Result;
using common::Status;
using fscore::AllocIntent;
using fscore::Extent;
using fscore::Inode;

namespace {
// DRAM buffered-metadata update (journaled later at commit).
constexpr uint64_t kBufferedMetaNs = 25;
// mballoc search work per request.
constexpr uint64_t kAllocSearchNs = 150;
// Fixed JBD2 commit cost: descriptor/commit block handling and the
// kjournald handoff + ordering waits that dominate small commits.
constexpr uint64_t kJbd2CommitOverheadNs = 12000;
}  // namespace

Ext4Dax::Ext4Dax(pmem::PmemDevice* device, Ext4Options options)
    : GenericFs(device, options.base), eopts_(options) {}

void Ext4Dax::InitAllocator(uint64_t data_start, uint64_t nblocks) {
  free_ = fscore::FreeSpaceMap();
  free_.Release(data_start, nblocks);
  goals_.clear();
  dirty_meta_blocks_.clear();
  journal_cursor_ = 0;
}

void Ext4Dax::RebuildAllocator(ExecContext& ctx, fscore::FreeSpaceMap&& free_map) {
  (void)ctx;
  free_ = std::move(free_map);
  goals_.clear();
  dirty_meta_blocks_.clear();
  journal_cursor_ = 0;
}

Result<std::vector<Extent>> Ext4Dax::AllocBlocks(ExecContext& ctx, Inode& inode,
                                                 uint64_t nblocks, AllocIntent intent) {

  ctx.counters.alloc_requests++;
  ctx.clock.Advance(kAllocSearchNs);
  std::vector<Extent> result;
  uint64_t remaining = nblocks;
  uint64_t goal = 0;
  if (eopts_.policy == AllocPolicy::kGoalFirstFit) {
    auto it = goals_.find(inode.ino);
    if (it != goals_.end()) {
      goal = it->second;
    }
  }
  // ext4's mballoc normalizes large requests: if the locality-chosen run can
  // host a 2 MiB-aligned start it is taken, but alignment is never hunted for
  // (§2.5: ext4-DAX leaves most available aligned extents unused when aged).
  const bool prefer_aligned = eopts_.policy == AllocPolicy::kGoalFirstFit &&
                              nblocks >= common::kBlocksPerHugepage &&
                              intent == AllocIntent::kFileData;
  while (remaining > 0) {
    std::optional<Extent> ext;
    if (eopts_.policy == AllocPolicy::kAlignedHunting &&
        remaining >= common::kBlocksPerHugepage && intent == AllocIntent::kFileData) {
      // Hunt the whole free map for an aligned extent; the search cost grows
      // with fragmentation — the §4 failure mode of the hugepage-aware ext4.
      ctx.clock.Advance(20 * free_.runs().size());
      ext = free_.AllocAligned(common::kBlocksPerHugepage);
      if (!ext.has_value()) {
        ext = free_.AllocFirstFit(remaining, goal);
      }
    } else if (eopts_.policy == AllocPolicy::kBySizeBestFit) {
      ext = free_.AllocBestFit(remaining);
    } else if (prefer_aligned && remaining >= common::kBlocksPerHugepage) {
      ext = free_.AllocFirstFitPreferAligned(remaining, goal);
    } else {
      ext = free_.AllocFirstFit(remaining, goal);
    }
    if (!ext.has_value()) {
      // No single run fits: take the largest available and continue.
      const uint64_t largest = free_.LargestRun();
      if (largest == 0) {
        FreeBlocks(ctx, result);
        return common::ErrorCode::kNoSpace;
      }
      if (prefer_aligned && largest >= common::kBlocksPerHugepage) {
        ext = free_.AllocFirstFitPreferAligned(largest, goal);
      } else {
        ext = eopts_.policy == AllocPolicy::kBySizeBestFit
                  ? free_.AllocBestFit(largest)
                  : free_.AllocFirstFit(largest, goal);
      }
    }
    result.push_back(*ext);
    remaining -= ext->num_blocks;
    goal = ext->end();
    if (ext->IsAligned()) {
      ctx.counters.aligned_allocs++;
    }
  }
  goals_[inode.ino] = goal;
  return result;
}

void Ext4Dax::FreeBlocks(ExecContext& ctx, const std::vector<Extent>& extents) {
  ctx.clock.Advance(kAllocSearchNs / 2);
  for (const Extent& ext : extents) {
    free_.Release(ext.phys_block, ext.num_blocks);
  }
}

void Ext4Dax::TxMetaWrite(ExecContext& ctx, vfs::InodeNum owner, uint64_t pm_offset,
                          const void* data, uint64_t len) {
  (void)owner;
  // Buffered metadata: the real bytes land in place (uncharged stand-in for
  // the page-cache buffer + later checkpoint); the block joins the running
  // JBD2 transaction and is charged at commit.
  device_->StoreUncharged(pm_offset, data, len);
  const uint64_t first = pm_offset / kBlockSize;
  const uint64_t last = (pm_offset + len - 1) / kBlockSize;
  for (uint64_t b = first; b <= last; b++) {
    dirty_meta_blocks_.insert(b);
  }
  ctx.clock.Advance(kBufferedMetaNs);
}

void Ext4Dax::Jbd2Commit(ExecContext& ctx) {
  if (dirty_meta_blocks_.empty()) {
    return;
  }
  common::ProfileZone zone(ctx, common::ProfLayer::kJournal);
  // Stop-the-world: every concurrent fsync serializes on the journal.
  common::SimMutex::Guard guard(jbd2_lock_, ctx);
  ctx.clock.Advance(kJbd2CommitOverheadNs);
  for (uint64_t block : dirty_meta_blocks_) {
    const uint64_t journal_off =
        (journal_start_block_ + journal_cursor_ % options_.journal_blocks) * kBlockSize;
    device_->NtStore(ctx, journal_off, device_->raw_span(block * kBlockSize, kBlockSize),
                     kBlockSize);
    journal_cursor_++;
    ctx.counters.journal_bytes += kBlockSize;
  }
  // Descriptor + commit records.
  const uint64_t commit_off =
      (journal_start_block_ + journal_cursor_ % options_.journal_blocks) * kBlockSize;
  uint64_t commit_record[8] = {0xc03b3998ull};
  device_->NtStore(ctx, commit_off, commit_record, sizeof(commit_record));
  journal_cursor_++;
  device_->Fence(ctx);
  dirty_meta_blocks_.clear();
}

Status Ext4Dax::FsyncImpl(ExecContext& ctx, Inode& inode) {
  (void)inode;
  Jbd2Commit(ctx);
  return common::OkStatus();
}

void Ext4Dax::ExecuteBatch(ExecContext& ctx, const vfs::OpBatch& batch,
                           std::vector<vfs::OpResult>& results) {
  ExecuteBatchNative(ctx, batch, results);
}

vfs::FreeSpaceInfo Ext4Dax::FreeSpace() {
  vfs::FreeSpaceInfo info;
  info.total_blocks = data_blocks_;
  info.free_blocks = free_.free_blocks();
  info.free_aligned_extents = free_.CountAlignedFreeRegions();
  info.largest_free_extent_blocks = free_.LargestRun();
  return info;
}

void Ext4Dax::SampleGauges(obs::GaugeSample& out) {
  GenericFs::SampleGauges(out);
  std::lock_guard<fscore::DomainMutex> guard(dram_mu_);
  SetRunHistogramGauges(free_.RunHistogram(), out);
  out.Set("journal_dirty_blocks", static_cast<double>(dirty_meta_blocks_.size()));
  out.Set("journal_cursor_blocks", static_cast<double>(journal_cursor_));
}

}  // namespace ext4dax
