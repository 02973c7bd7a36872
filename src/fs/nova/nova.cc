#include "src/fs/nova/nova.h"

#include "src/common/prof_zone.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/common/units.h"

namespace nova {

using common::ExecContext;
using common::kBlockSize;
using common::kBlocksPerHugepage;
using common::Result;
using common::Status;
using fscore::AllocIntent;
using fscore::Extent;
using fscore::Inode;

namespace {
constexpr uint64_t kLogEntryBytes = 64;
constexpr uint64_t kEntriesPerLogPage = common::kBlockSize / kLogEntryBytes;
constexpr uint64_t kAllocWorkNs = 100;
}  // namespace

Nova::Nova(pmem::PmemDevice* device, NovaOptions options)
    : GenericFs(device, options.base), nopts_(options) {}

void Nova::InitAllocator(uint64_t data_start, uint64_t nblocks) {
  cpu_free_.clear();
  const uint32_t ncpu = std::max<uint32_t>(1, options_.num_cpus);
  tx_slots_.assign(ncpu, TxSlot{});
  const uint64_t per_cpu = nblocks / ncpu;
  for (uint32_t cpu = 0; cpu < ncpu; cpu++) {
    auto f = std::make_unique<CpuFree>();
    f->start_block = data_start + cpu * per_cpu;
    f->num_blocks = cpu == ncpu - 1 ? nblocks - cpu * per_cpu : per_cpu;
    f->map.Release(f->start_block, f->num_blocks);
    f->SyncCount();
    cpu_free_.push_back(std::move(f));
  }
}

void Nova::RebuildAllocator(ExecContext& ctx, fscore::FreeSpaceMap&& free_map) {
  (void)ctx;
  InitAllocator(data_start_block_, data_blocks_);
  for (auto& f : cpu_free_) {
    f->map = fscore::FreeSpaceMap();
  }
  for (const auto& [start, len] : free_map.runs()) {
    uint64_t cursor = start;
    uint64_t remaining = len;
    while (remaining > 0) {
      CpuFree& f = *cpu_free_[CpuOfBlock(cursor)];
      const uint64_t span = std::min(remaining, f.start_block + f.num_blocks - cursor);
      f.map.Release(cursor, span);
      cursor += span;
      remaining -= span;
    }
  }
  for (auto& f : cpu_free_) {
    f->SyncCount();
  }
  // Per-inode log page ownership is not recorded in the generic on-PM inode;
  // after a remount, logs restart lazily on the next operation. (The real
  // NOVA rebuilds its logs by scanning them; the net free-space state is the
  // same because stale log pages were freed with the scan.)
}

size_t Nova::CpuOfBlock(uint64_t block) const {
  const uint64_t per_cpu = data_blocks_ / cpu_free_.size();
  if (per_cpu == 0) {
    return 0;
  }
  return std::min((block - data_start_block_) / per_cpu, cpu_free_.size() - 1);
}

Result<std::vector<Extent>> Nova::AllocBlocks(ExecContext& ctx, Inode& inode, uint64_t nblocks,
                                              AllocIntent intent) {
  (void)inode;
  ctx.counters.alloc_requests++;
  ctx.clock.Advance(kAllocWorkNs);
  const uint32_t cpu = ctx.cpu % cpu_free_.size();
  std::vector<Extent> result;
  uint64_t remaining = nblocks;

  auto take = [&](CpuFree& f, uint64_t want) -> std::optional<Extent> {
    common::SimMutex::Guard guard(f.lock, ctx);
    std::optional<Extent> got;
    // NOVA tries aligned extents only for exact 2 MiB-multiple data requests.
    if (intent == AllocIntent::kFileData && nblocks % kBlocksPerHugepage == 0 &&
        want >= kBlocksPerHugepage) {
      got = f.map.AllocAligned(kBlocksPerHugepage);
    }
    // Per-inode log pages and dirent blocks reuse the smallest free holes
    // (recycled log space). They live as long as their file, pinning scattered
    // holes open — the fragmentation WineFS's contained-metadata layout avoids
    // (§2.6, §3.4 "NOVA has a per-file log that causes fragmentation").
    if (!got && (intent == AllocIntent::kLogPage || intent == AllocIntent::kDirData ||
                 intent == AllocIntent::kMeta)) {
      got = f.map.AllocBestFit(want);
    }
    if (!got) {
      got = f.map.AllocFirstFit(want, 0);
    }
    if (!got) {
      const uint64_t largest = f.map.LargestRun();
      if (largest > 0) {
        got = f.map.AllocFirstFit(std::min(want, largest), 0);
      }
    }
    if (got) {
      f.SyncCount();
    }
    return got;
  };

  while (remaining > 0) {
    std::optional<Extent> ext = take(*cpu_free_[cpu], remaining);
    if (!ext.has_value()) {
      // Steal from the CPU with the most free space. The scan reads the
      // relaxed mirrors (stale-but-safe under host-parallel shards);
      // cross-shard stealing is a shard-purity hazard, so note it.
      if (ctx.hazards != nullptr) {
        ctx.hazards->Note("nova.steal");
      }
      size_t best = cpu;
      uint64_t best_free = 0;
      for (size_t i = 0; i < cpu_free_.size(); i++) {
        const uint64_t fr = cpu_free_[i]->free_count.load(std::memory_order_relaxed);
        if (fr > best_free) {
          best = i;
          best_free = fr;
        }
      }
      if (best_free == 0) {
        FreeBlocks(ctx, result);
        return common::ErrorCode::kNoSpace;
      }
      ext = take(*cpu_free_[best], remaining);
      if (!ext.has_value()) {
        FreeBlocks(ctx, result);
        return common::ErrorCode::kNoSpace;
      }
    }
    if (ext->IsAligned()) {
      ctx.counters.aligned_allocs++;
    }
    result.push_back(*ext);
    remaining -= ext->num_blocks;
  }
  return result;
}

void Nova::FreeBlocks(ExecContext& ctx, const std::vector<Extent>& extents) {
  TxSlot& tx = Tx(ctx);
  if (tx.depth > 0) {
    // Epoch-based reclamation: inside a transaction the blocks may still be
    // referenced by the pre-crash metadata image (e.g. the data blocks of a
    // rename-overwritten target). Handing them to the allocator now would let
    // a log-page allocation later in the same operation scribble over them —
    // a crash between those two points then recovers the old inode pointing
    // at reused blocks. Real NOVA frees only after the transaction commits.
    tx.deferred_frees.insert(tx.deferred_frees.end(), extents.begin(), extents.end());
    return;
  }
  ReleaseBlocks(ctx, extents);
}

void Nova::TxBegin(ExecContext& ctx) {
  Tx(ctx).depth++;
}

void Nova::TxCommit(ExecContext& ctx) {
  TxSlot& tx = Tx(ctx);
  if (tx.depth > 0 && --tx.depth == 0 && !tx.deferred_frees.empty()) {
    std::vector<Extent> frees;
    frees.swap(tx.deferred_frees);
    ReleaseBlocks(ctx, frees);
  }
}

void Nova::ReleaseBlocks(ExecContext& ctx, const std::vector<Extent>& extents) {
  ctx.clock.Advance(kAllocWorkNs / 2);
  for (const Extent& ext : extents) {
    uint64_t cursor = ext.phys_block;
    uint64_t remaining = ext.num_blocks;
    while (remaining > 0) {
      CpuFree& f = *cpu_free_[CpuOfBlock(cursor)];
      const uint64_t span = std::min(remaining, f.start_block + f.num_blocks - cursor);
      common::SimMutex::Guard guard(f.lock, ctx);
      f.map.Release(cursor, span);
      f.SyncCount();
      cursor += span;
      remaining -= span;
    }
  }
}

void Nova::AllocLogPage(ExecContext& ctx, Inode& inode) {
  // One 4 KiB page carved out of the data area: this is the per-file
  // metadata that fragments free space and consumes aligned extents.
  auto alloc = AllocBlocks(ctx, inode, 1, AllocIntent::kLogPage);
  if (!alloc.ok()) {
    return;  // log appends degrade to in-place (ENOSPC pressure)
  }
  inode.log_pages.push_back((*alloc)[0]);
  inode.log_entries_in_tail = 0;
  device_->Zero(ctx, (*alloc)[0].phys_block * kBlockSize, kBlockSize);
}

void Nova::AppendLogEntry(ExecContext& ctx, Inode& inode) {
  common::ProfileZone zone(ctx, common::ProfLayer::kJournal);
  if (inode.log_pages.empty() || inode.log_entries_in_tail >= kEntriesPerLogPage) {
    AllocLogPage(ctx, inode);
    if (inode.log_pages.empty()) {
      return;
    }
  }
  const Extent& tail = inode.log_pages.back();
  const uint64_t off =
      tail.phys_block * kBlockSize + inode.log_entries_in_tail * kLogEntryBytes;
  uint8_t entry[kLogEntryBytes] = {};
  entry[0] = 1;  // valid
  device_->Store(ctx, off, entry, sizeof(entry));
  device_->Clwb(ctx, off, sizeof(entry));
  device_->Fence(ctx);
  inode.log_entries_in_tail++;
  ctx.counters.journal_bytes += kLogEntryBytes;
  // §5.3: NOVA also invalidates the superseded log entry and updates its
  // DRAM indexes to point at the new one.
  if (inode.log_entries_in_tail > 1) {
    const uint64_t prev = off - kLogEntryBytes;
    uint8_t dead = 0;
    device_->Store(ctx, prev, &dead, 1);
    device_->Clwb(ctx, prev, 1);
  }
  ctx.clock.Advance(100);  // DRAM index update
  MaybeGarbageCollect(ctx, inode);
}

void Nova::MaybeGarbageCollect(ExecContext& ctx, Inode& inode) {
  if (inode.log_pages.size() <= nopts_.gc_log_pages) {
    return;
  }
  // Compact: copy live entries into fresh pages, free the old ones. Modeled
  // as copying half the log; this is NOVA's GC interference (§2.6/§6).
  gc_runs_.fetch_add(1, std::memory_order_relaxed);
  const size_t keep = nopts_.gc_log_pages / 2;
  std::vector<Extent> dead(inode.log_pages.begin(),
                           inode.log_pages.end() - static_cast<long>(keep));
  inode.log_pages.erase(inode.log_pages.begin(),
                        inode.log_pages.end() - static_cast<long>(keep));
  const uint64_t copied = dead.size() * kBlockSize / 2;
  ctx.clock.Advance(device_->cost().SeqReadBytes(copied) +
                    device_->cost().SeqWriteBytes(copied));
  ctx.counters.cow_bytes += copied;
  FreeBlocks(ctx, dead);
}

void Nova::TxMetaWrite(ExecContext& ctx, vfs::InodeNum owner, uint64_t pm_offset,
                       const void* data, uint64_t len) {
  // Log-structured metadata: a single 64 B log append per update. The
  // in-place shadow write keeps the generic on-PM image current for the
  // mount-time rebuild; real NOVA keeps this in its logs + DRAM indexes, so
  // the shadow is uncharged (see PmemDevice::StoreUncharged).
  Inode* inode = GetInode(owner);
  if (inode != nullptr) {
    AppendLogEntry(ctx, *inode);
  } else {
    ctx.clock.Advance(device_->cost().pm_store_ns);
  }
  device_->StoreUncharged(pm_offset, data, len);
}

Result<uint64_t> Nova::WriteDataAtomic(ExecContext& ctx, Inode& inode, const void* src,
                                       uint64_t len, uint64_t offset) {
  // Copy-on-write at 4 KiB granularity: every touched block that already has
  // data is relocated; partially covered blocks copy the old bytes first
  // (write amplification for unaligned appends, §5.5 WiredTiger).
  const uint64_t first = offset / kBlockSize;
  const uint64_t last = (offset + len - 1) / kBlockSize;
  const uint64_t nblocks = last - first + 1;

  std::vector<uint8_t> bounce(nblocks * kBlockSize, 0);
  uint64_t cow_copied = 0;
  for (uint64_t b = 0; b < nblocks; b++) {
    const uint64_t block = first + b;
    const uint64_t block_start = block * kBlockSize;
    const bool fully_covered =
        offset <= block_start && offset + len >= block_start + kBlockSize;
    auto old_map = inode.extents.Lookup(block);
    if (!fully_covered && old_map.has_value()) {
      // Poisoned old data: fail the write instead of silently relocating
      // zeros over bytes whose reads still (correctly) return EIO.
      RETURN_IF_ERROR(device_->Load(ctx, old_map->phys_block * kBlockSize,
                                    bounce.data() + b * kBlockSize, kBlockSize));
      cow_copied += kBlockSize;
    }
  }
  std::memcpy(bounce.data() + (offset - first * kBlockSize), src, len);

  auto alloc = AllocBlocks(ctx, inode, nblocks, AllocIntent::kFileData);
  if (!alloc.ok()) {
    return alloc.status();
  }
  std::vector<Extent> old = inode.extents.Remove(first, nblocks);
  uint64_t logical = first;
  uint64_t written = 0;
  for (const Extent& ext : *alloc) {
    device_->NtStore(ctx, ext.phys_block * kBlockSize, bounce.data() + written,
                     ext.num_blocks * kBlockSize);
    inode.extents.Insert(logical, ext.phys_block, ext.num_blocks);
    logical += ext.num_blocks;
    written += ext.num_blocks * kBlockSize;
  }
  device_->Fence(ctx);
  ctx.counters.cow_bytes += cow_copied;

  if (offset + len > inode.size) {
    inode.size = offset + len;
  }
  // Commit: one log entry points at the new blocks; old blocks return to the
  // free list afterwards.
  PersistInode(ctx, inode);
  FreeBlocks(ctx, old);
  return len;
}

Status Nova::FsyncImpl(ExecContext& ctx, Inode& inode) {
  // Log appends are synchronous; nothing to flush beyond the caller's drain.
  (void)ctx;
  (void)inode;
  return common::OkStatus();
}

Status Nova::RecoverJournal(ExecContext& ctx) {
  // Cost-free probe: an unfaulted mount keeps its timings. The region holds
  // per-inode log pages that recovery rebuilds from the inode table anyway,
  // so a media error here is always repairable: the full-block rewrite
  // re-ECCs the poisoned blocks.
  const uint64_t journal_bytes = options_.journal_blocks * kBlockSize;
  if (!device_->ReadStatus(journal_start_block_ * kBlockSize, journal_bytes).ok()) {
    device_->Zero(ctx, journal_start_block_ * kBlockSize, journal_bytes);
    device_->Fence(ctx);
  }
  return common::OkStatus();
}

void Nova::OnInodeCreated(ExecContext& ctx, Inode& inode) { AllocLogPage(ctx, inode); }

void Nova::OnInodeDeleted(ExecContext& ctx, Inode& inode) {
  if (!inode.log_pages.empty()) {
    FreeBlocks(ctx, inode.log_pages);
    inode.log_pages.clear();
  }
}

vfs::FreeSpaceInfo Nova::FreeSpace() {
  vfs::FreeSpaceInfo info;
  info.total_blocks = data_blocks_;
  for (const auto& f : cpu_free_) {
    info.free_blocks += f->map.free_blocks();
    info.free_aligned_extents += f->map.CountAlignedFreeRegions();
    info.largest_free_extent_blocks =
        std::max(info.largest_free_extent_blocks, f->map.LargestRun());
  }
  return info;
}

void Nova::SampleGauges(obs::GaugeSample& out) {
  GenericFs::SampleGauges(out);
  std::lock_guard<fscore::DomainMutex> guard(dram_mu_);
  fscore::FreeSpaceMap::RunLengthHistogram hist;
  uint64_t min_free = UINT64_MAX;
  uint64_t max_free = 0;
  for (const auto& f : cpu_free_) {
    hist += f->map.RunHistogram();
    min_free = std::min(min_free, f->map.free_blocks());
    max_free = std::max(max_free, f->map.free_blocks());
  }
  SetRunHistogramGauges(hist, out);
  out.Set("cpu_free_min_blocks",
          static_cast<double>(min_free == UINT64_MAX ? 0 : min_free));
  out.Set("cpu_free_max_blocks", static_cast<double>(max_free));
  uint64_t log_pages = 0;
  ForEachInode([&log_pages](const Inode& inode) {
    for (const Extent& ext : inode.log_pages) {
      log_pages += ext.num_blocks;
    }
  });
  out.Set("log_pages_live", static_cast<double>(log_pages));
  out.Set("gc_runs", static_cast<double>(gc_runs_));
}

}  // namespace nova
