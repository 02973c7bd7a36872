#include "src/fs/pmfs/pmfs.h"

#include <algorithm>
#include <cstring>

#include "src/common/prof_zone.h"
#include "src/common/units.h"

namespace pmfs {

using common::ExecContext;
using common::kBlockSize;
using common::Result;
using common::Status;
using fscore::AllocIntent;
using fscore::Extent;
using fscore::Inode;

Pmfs::Pmfs(pmem::PmemDevice* device, PmfsOptions options)
    : GenericFs(device, options.base), popts_(options) {}

void Pmfs::InitAllocator(uint64_t data_start, uint64_t nblocks) {
  free_ = fscore::FreeSpaceMap();
  free_.Release(data_start, nblocks);
  journal_cursor_entries_ = 0;
  journal_head_ = 0;
  journal_wrap_ = 0;
  tx_depth_ = 0;
  delayed_dirty_.clear();
}

void Pmfs::RebuildAllocator(ExecContext& ctx, fscore::FreeSpaceMap&& free_map) {
  (void)ctx;
  free_ = std::move(free_map);
  journal_cursor_entries_ = 0;
  journal_head_ = 0;
  journal_wrap_ = 0;
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

uint64_t Pmfs::JournalCapacityEntries() const {
  return options_.journal_blocks * kBlockSize / sizeof(JournalEntry);
}

void Pmfs::AppendEntry(ExecContext& ctx, JournalEntry entry) {
  // ONE journal: short critical section, but every thread funnels through it.
  common::SimMutex::Guard guard(journal_lock_, ctx);
  entry.magic = JournalEntry::kMagic;
  entry.wrap = journal_wrap_;
  entry.csum = entry.ComputeCsum();
  const uint64_t slot = journal_head_;
  journal_head_++;
  if (journal_head_ >= JournalCapacityEntries()) {
    journal_head_ = 0;
    journal_wrap_++;
  }
  const uint64_t off = journal_start_block_ * kBlockSize + slot * sizeof(JournalEntry);
  device_->Store(ctx, off, &entry, sizeof(entry));
  device_->Clwb(ctx, off, sizeof(entry));
  journal_cursor_entries_++;
  ctx.counters.journal_bytes += sizeof(entry);
}

void Pmfs::TxBegin(ExecContext& ctx) {
  if (popts_.delayed_metadata) {
    return;  // no journal: the vulnerability window the campaign must catch
  }
  tx_depth_++;
  if (tx_depth_ > 1) {
    return;
  }
  common::ProfileZone zone(ctx, common::ProfLayer::kJournal);
  tx_id_ = next_txn_id_++;
  JournalEntry entry;
  entry.txn_id = tx_id_;
  entry.type = JournalEntry::kStart;
  AppendEntry(ctx, entry);
  device_->Fence(ctx);
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
  {
    // Fine-grained undo journaling: copy the old image into cacheline-sized
    // entries, fence, and only then overwrite in place.
    common::ProfileZone zone(ctx, common::ProfLayer::kJournal);
    uint64_t done = 0;
    while (done < len) {
      const uint64_t chunk = std::min<uint64_t>(len - done, 32);
      JournalEntry entry;
      entry.txn_id = tx_id_;
      entry.type = JournalEntry::kUndo;
      entry.payload_len = static_cast<uint8_t>(chunk);
      entry.target_offset = pm_offset + done;
      // A poisoned old image journals as zeros; the in-place overwrite below
      // clears the poison, and a rollback restores zeros — never stale bytes.
      (void)device_->Load(ctx, pm_offset + done, entry.payload, chunk);
      AppendEntry(ctx, entry);
      done += chunk;
    }
    device_->Fence(ctx);
  }
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
  common::ProfileZone zone(ctx, common::ProfLayer::kJournal);
  JournalEntry entry;
  entry.txn_id = tx_id_;
  entry.type = JournalEntry::kCommit;
  AppendEntry(ctx, entry);
  device_->Fence(ctx);
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
  const uint64_t journal_off = journal_start_block_ * kBlockSize;
  const uint64_t journal_bytes = options_.journal_blocks * kBlockSize;
  // The probe is cost-free, so an unfaulted mount keeps its timings.
  if (!device_->ReadStatus(journal_off, journal_bytes).ok()) {
    if (!mount_found_clean_) {
      // An undo image for an interrupted transaction may hide behind the
      // media error; refuse rather than guess at the pre-crash state.
      return Status(common::ErrorCode::kIoError);
    }
    // Clean unmount: the journal carries no undo state worth keeping. The
    // full-block rewrite re-ECCs the media and clears the poison.
    device_->Zero(ctx, journal_off, journal_bytes);
    device_->Fence(ctx);
    journal_cursor_entries_ = 0;
    journal_head_ = 0;
    journal_wrap_ = 0;
    return common::OkStatus();
  }

  if (!mount_found_clean_) {
    const uint64_t capacity = JournalCapacityEntries();
    std::vector<JournalEntry> slots(capacity);
    RETURN_IF_ERROR(
        device_->Load(ctx, journal_off, slots.data(), capacity * sizeof(JournalEntry)));
    // Newest wrap generation present, then entries in append order: wrap
    // max-1 slots after the newest wrap's frontier, then wrap max from 0.
    uint32_t max_wrap = 0;
    bool any = false;
    for (const JournalEntry& e : slots) {
      if (e.IsValidHeader()) {
        max_wrap = std::max(max_wrap, e.wrap);
        any = true;
      }
    }
    if (any) {
      struct Scanned {
        JournalEntry entry;
        uint64_t seq = 0;
      };
      std::vector<Scanned> ordered;
      for (uint64_t s = 0; s < slots.size(); s++) {
        const JournalEntry& e = slots[s];
        if (!e.IsValidHeader()) {
          continue;
        }
        if (e.wrap == max_wrap) {
          ordered.push_back(Scanned{e, max_wrap * capacity + s});
        } else if (e.wrap + 1 == max_wrap) {
          ordered.push_back(Scanned{e, e.wrap * capacity + s});
        }
      }
      std::sort(ordered.begin(), ordered.end(),
                [](const Scanned& a, const Scanned& b) { return a.seq < b.seq; });
      if (!ordered.empty()) {
        // The only possibly-incomplete transaction owns the tail entries
        // (operations are synchronous; space reclaimed at commit).
        const uint64_t tail_txn = ordered.back().entry.txn_id;
        bool committed = false;
        for (const Scanned& e : ordered) {
          if (e.entry.txn_id == tail_txn && e.entry.type == JournalEntry::kCommit) {
            committed = true;
          }
        }
        if (!committed) {
          // Roll back, applying undo images newest-first.
          for (auto it = ordered.rbegin(); it != ordered.rend(); ++it) {
            if (it->entry.txn_id == tail_txn && it->entry.type == JournalEntry::kUndo) {
              device_->Store(ctx, it->entry.target_offset, it->entry.payload,
                             it->entry.payload_len);
              device_->Clwb(ctx, it->entry.target_offset, it->entry.payload_len);
            }
          }
          device_->Fence(ctx);
        }
      }
    }
  }

  // Reset the journal to a clean state (stale committed entries must never
  // survive into the next mount's transaction-ID space).
  device_->Zero(ctx, journal_off, journal_bytes);
  device_->Fence(ctx);
  journal_cursor_entries_ = 0;
  journal_head_ = 0;
  journal_wrap_ = 0;
  return common::OkStatus();
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
  const uint64_t capacity = JournalCapacityEntries();
  out.Set("journal_entries_written", static_cast<double>(journal_cursor_entries_));
  out.Set("journal_ring_fill",
          capacity == 0 ? 0.0
                        : static_cast<double>(journal_cursor_entries_ % capacity) /
                              static_cast<double>(capacity));
  if (popts_.delayed_metadata) {
    out.Set("delayed_dirty_ranges", static_cast<double>(delayed_dirty_.size()));
  }
}

}  // namespace pmfs
