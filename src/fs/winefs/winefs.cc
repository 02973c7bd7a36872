#include "src/fs/winefs/winefs.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <map>

#include "src/common/units.h"
#include "src/vfs/op_batch.h"

namespace winefs {

using common::ErrorCode;
using common::ExecContext;
using common::kBlockSize;
using common::kBlocksPerHugepage;
using common::Result;
using common::Status;
using fscore::AllocIntent;
using fscore::Extent;
using fscore::Inode;

namespace {
// DRAM index operation cost (rb-tree / list manipulation).
constexpr uint64_t kAllocWorkNs = 90;
// Journal format ("JE"): data journaling of an aligned region packs undo
// images of 1 KiB and up into blobs.
constexpr fscore::UndoFormat kJournalFormat{.magic = 0x4a45, .blob_min_bytes = 1024};
// Data-journaling segment: the unit WriteDataAtomic journals or, when its
// undo would not fit the ring, copies on write.
constexpr uint64_t kMaxJournalSegBytes = 64 * 1024;
// Ring slots the closing inode persist spends per block a write copies on
// write or allocates: at worst one split leaves three changed extent
// records, two indirect-block headers and a chain link.
constexpr uint64_t kSlotsPerRelocatedBlock = 6;

// Ring slots a data-journaled write's transaction needs after its current
// segment: the closing inode persist (the inode header, the xattr area when
// present, and the extent records of `relocated_blocks` blocks copied on
// write or allocated) and the commit.
uint64_t TxTailSlots(const fscore::UndoRing& ring, const Inode& inode,
                     uint64_t relocated_blocks) {
  return ring.UndoSlots(offsetof(fscore::PmInode, inline_extents)) +
         (inode.xattr.empty() ? 0 : ring.UndoSlots(fscore::kInodeXattrBytes)) +
         kSlotsPerRelocatedBlock * relocated_blocks + 1;
}
}  // namespace

WineFs::WineFs(pmem::PmemDevice* device, WineFsOptions options)
    : GenericFs(device, options.base), wopts_(options) {}

// --- Pool setup ---------------------------------------------------------------

void WineFs::SetupPoolGeometry(uint64_t data_start, uint64_t nblocks) {
  pools_.clear();
  const uint32_t ncpu = std::max<uint32_t>(1, options_.num_cpus);
  const uint64_t per_cpu = nblocks / ncpu;
  const uint64_t journal_per_cpu =
      wopts_.per_cpu_journals ? options_.journal_blocks / ncpu : options_.journal_blocks;
  for (uint32_t cpu = 0; cpu < ncpu; cpu++) {
    auto pool = std::make_unique<CpuPool>();
    pool->lock.set_site("winefs.pool.cpu" + std::to_string(cpu));
    pool->journal.set_site(wopts_.per_cpu_journals ? "winefs.journal.cpu" + std::to_string(cpu)
                                                   : "winefs.journal.global");
    pool->start_block = data_start + cpu * per_cpu;
    pool->num_blocks = cpu == ncpu - 1 ? nblocks - cpu * per_cpu : per_cpu;
    pool->numa_node = device_->NumaNodeOf(pool->start_block * kBlockSize);
    if (wopts_.per_cpu_journals || cpu == 0) {
      pool->journal.Place(device_, kJournalFormat,
                          (journal_start_block_ + cpu * journal_per_cpu) * kBlockSize,
                          journal_per_cpu * kBlockSize);
    }
    pools_.push_back(std::move(pool));
  }
  // One tx slot per CPU: a CPU's ops are serialized by its dram stripe, so a
  // slot never sees concurrent begin..commit interleaving.
  tx_slots_.assign(pools_.size(), TxSlot{});
}

void WineFs::InitAllocator(uint64_t data_start, uint64_t nblocks) {
  SetupPoolGeometry(data_start, nblocks);
  for (auto& pool_ptr : pools_) {
    CpuPool* pool = pool_ptr.get();
    // Carve the pool into aligned extents + edge holes.
    const uint64_t end = pool->start_block + pool->num_blocks;
    if (wopts_.alignment_aware) {
      const uint64_t first_aligned = common::RoundUp(pool->start_block, kBlocksPerHugepage);
      const uint64_t last_aligned = common::RoundDown(end, kBlocksPerHugepage);
      if (first_aligned > pool->start_block) {
        pool->holes.Release(pool->start_block,
                            std::min(first_aligned, end) - pool->start_block);
      }
      for (uint64_t chunk = first_aligned; chunk + kBlocksPerHugepage <= last_aligned;
           chunk += kBlocksPerHugepage) {
        pool->aligned.push_back(chunk);
      }
      if (last_aligned > first_aligned && last_aligned < end) {
        pool->holes.Release(last_aligned, end - last_aligned);
      }
    } else {
      pool->holes.Release(pool->start_block, pool->num_blocks);
    }
    pool->SyncCounts();
  }
  // Fresh journals.
  std::memset(device_->raw_span(journal_start_block_ * kBlockSize,
                                options_.journal_blocks * kBlockSize),
              0, options_.journal_blocks * kBlockSize);
}

void WineFs::RebuildAllocator(ExecContext& ctx, fscore::FreeSpaceMap&& free_map) {
  (void)ctx;
  // Recreate pool geometry, then distribute the scanned free space.
  SetupPoolGeometry(data_start_block_, data_blocks_);
  for (const auto& [start, len] : free_map.runs()) {
    uint64_t cursor = start;
    uint64_t remaining = len;
    while (remaining > 0) {
      CpuPool& pool = *pools_[PoolOfBlock(cursor)];
      const uint64_t pool_end = pool.start_block + pool.num_blocks;
      const uint64_t span = std::min(remaining, pool_end - cursor);
      if (wopts_.alignment_aware) {
        const uint64_t first_aligned = common::RoundUp(cursor, kBlocksPerHugepage);
        const uint64_t last_aligned = common::RoundDown(cursor + span, kBlocksPerHugepage);
        if (first_aligned + kBlocksPerHugepage <= last_aligned) {
          if (first_aligned > cursor) {
            pool.holes.Release(cursor, first_aligned - cursor);
          }
          for (uint64_t chunk = first_aligned; chunk + kBlocksPerHugepage <= last_aligned;
               chunk += kBlocksPerHugepage) {
            pool.aligned.push_back(chunk);
          }
          if (last_aligned < cursor + span) {
            pool.holes.Release(last_aligned, cursor + span - last_aligned);
          }
        } else {
          pool.holes.Release(cursor, span);
        }
      } else {
        pool.holes.Release(cursor, span);
      }
      cursor += span;
      remaining -= span;
    }
  }
  for (auto& pool : pools_) {
    pool->SyncCounts();
  }
}

uint32_t WineFs::PoolIndexFor(ExecContext& ctx) {
  const uint32_t base = ctx.cpu % pools_.size();
  if (!wopts_.numa_aware || device_->numa_nodes() <= 1) {
    return base;
  }
  const uint32_t home = HomeNodeFor(ctx);
  if (pools_[base]->numa_node == home) {
    numa_local_allocs_++;
    return base;
  }
  // Route the write to a pool on the process's home node (§3.6 Writes).
  for (uint32_t i = 0; i < pools_.size(); i++) {
    const uint32_t idx = (base + i) % pools_.size();
    if (pools_[idx]->numa_node == home) {
      numa_local_allocs_++;
      return idx;
    }
  }
  numa_remote_allocs_++;
  return base;
}

uint32_t WineFs::HomeNodeFor(ExecContext& ctx) {
  {
    std::lock_guard<common::SpinMutex> guard(home_mu_);
    auto it = home_node_.find(ctx.pid);
    if (it != home_node_.end()) {
      return it->second;
    }
  }
  // First create/write: pick the NUMA node with the most free space. Reads
  // the relaxed free-space mirrors so a concurrent shard's allocation only
  // makes the placement heuristic stale, never racy.
  std::map<uint32_t, uint64_t> free_per_node;
  for (const auto& pool : pools_) {
    free_per_node[pool->numa_node] +=
        pool->hole_free_count.load(std::memory_order_relaxed) +
        pool->aligned_count.load(std::memory_order_relaxed) * kBlocksPerHugepage;
  }
  uint32_t best = 0;
  uint64_t best_free = 0;
  for (const auto& [node, free] : free_per_node) {
    if (free >= best_free) {
      best = node;
      best_free = free;
    }
  }
  if (ctx.hazards != nullptr) {
    ctx.hazards->Note("winefs.numa_home");
  }
  std::lock_guard<common::SpinMutex> guard(home_mu_);
  home_node_[ctx.pid] = best;
  return best;
}

size_t WineFs::PoolOfBlock(uint64_t block) const {
  const uint64_t per_cpu = data_blocks_ / pools_.size();
  if (per_cpu == 0) {
    return 0;
  }
  const uint64_t rel = block - data_start_block_;
  return std::min(rel / per_cpu, pools_.size() - 1);
}

// --- Allocation ---------------------------------------------------------------

std::optional<uint64_t> WineFs::TakeAlignedChunk(ExecContext& ctx, uint32_t cpu) {
  ctx.clock.Advance(kAllocWorkNs);
  {
    CpuPool& local = *pools_[cpu];
    common::SimMutex::Guard guard(local.lock, ctx);
    if (!local.aligned.empty()) {
      const uint64_t chunk = local.aligned.front();
      local.aligned.pop_front();
      local.SyncCounts();
      return chunk;
    }
  }
  // Local pool dry: steal from the CPU with the most free aligned extents.
  // The scan reads the relaxed mirrors (stale-but-safe under host-parallel
  // shards); cross-shard stealing is a shard-purity hazard, so note it.
  if (ctx.hazards != nullptr) {
    ctx.hazards->Note("winefs.steal_aligned");
  }
  size_t best = pools_.size();
  size_t best_count = 0;
  for (size_t i = 0; i < pools_.size(); i++) {
    const size_t count = pools_[i]->aligned_count.load(std::memory_order_relaxed);
    if (count > best_count) {
      best = i;
      best_count = count;
    }
  }
  if (best == pools_.size()) {
    return std::nullopt;
  }
  CpuPool& victim = *pools_[best];
  common::SimMutex::Guard guard(victim.lock, ctx);
  if (victim.aligned.empty()) {
    return std::nullopt;
  }
  const uint64_t chunk = victim.aligned.front();
  victim.aligned.pop_front();
  victim.SyncCounts();
  return chunk;
}

std::optional<Extent> WineFs::TakeHoleBlocks(ExecContext& ctx, uint32_t cpu, uint64_t want) {
  ctx.clock.Advance(kAllocWorkNs);
  auto take_from = [&](CpuPool& pool) -> std::optional<Extent> {
    common::SimMutex::Guard guard(pool.lock, ctx);
    if (pool.holes.free_blocks() == 0) {
      return std::nullopt;
    }
    // First-fit by offset (§3.6): first run, clipped to `want`. Copy the run
    // bounds before ReserveRange invalidates the map node.
    const auto it = pool.holes.runs().begin();
    if (it == pool.holes.runs().end()) {
      return std::nullopt;
    }
    const uint64_t start = it->first;
    const uint64_t take = std::min(it->second, want);
    pool.holes.ReserveRange(start, take);
    pool.SyncCounts();
    return Extent{start, take};
  };

  if (auto ext = take_from(*pools_[cpu])) {
    return ext;
  }
  // Steal from the pool with the most free hole space (relaxed mirrors;
  // cross-shard steal is a shard-purity hazard).
  if (ctx.hazards != nullptr) {
    ctx.hazards->Note("winefs.steal_holes");
  }
  size_t best = cpu;
  uint64_t best_free = 0;
  for (size_t i = 0; i < pools_.size(); i++) {
    const uint64_t f = pools_[i]->hole_free_count.load(std::memory_order_relaxed);
    if (f > best_free) {
      best = i;
      best_free = f;
    }
  }
  if (best_free > 0) {
    if (auto ext = take_from(*pools_[best])) {
      return ext;
    }
  }
  // Every hole pool is dry: break one aligned extent into holes.
  if (auto chunk = TakeAlignedChunk(ctx, cpu)) {
    CpuPool& pool = *pools_[PoolOfBlock(*chunk)];
    {
      common::SimMutex::Guard guard(pool.lock, ctx);
      pool.holes.Release(*chunk, kBlocksPerHugepage);
      pool.SyncCounts();
    }
    return take_from(pool);
  }
  return std::nullopt;
}

Result<std::vector<Extent>> WineFs::AllocBlocks(ExecContext& ctx, Inode& inode,
                                                uint64_t nblocks, AllocIntent intent) {
  (void)inode;
  ctx.counters.alloc_requests++;
  const uint32_t cpu = PoolIndexFor(ctx);
  std::vector<Extent> result;
  uint64_t remaining = nblocks;

  // Hugepage-sized sub-requests are served from the aligned pool; metadata
  // and small requests always come from holes (contained fragmentation).
  const bool data_intent = intent == AllocIntent::kFileData;
  if (wopts_.alignment_aware && data_intent) {
    while (remaining >= kBlocksPerHugepage) {
      auto chunk = TakeAlignedChunk(ctx, cpu);
      if (!chunk.has_value()) {
        break;
      }
      result.push_back(Extent{*chunk, kBlocksPerHugepage});
      ctx.counters.aligned_allocs++;
      remaining -= kBlocksPerHugepage;
    }
  }
  while (remaining > 0) {
    auto ext = TakeHoleBlocks(ctx, cpu, remaining);
    if (!ext.has_value()) {
      // Roll back partial allocation.
      FreeBlocks(ctx, result);
      return ErrorCode::kNoSpace;
    }
    result.push_back(*ext);
    remaining -= ext->num_blocks;
  }
  return result;
}

void WineFs::ExtractAlignedFromHoles(CpuPool& pool, uint64_t around_block) {
  // After a merge, promote any fully-free aligned chunks back into the
  // aligned pool (§3.4: freed extents merge and convert to aligned extents).
  auto it = pool.holes.runs().upper_bound(around_block);
  if (it != pool.holes.runs().begin()) {
    --it;
  }
  if (it == pool.holes.runs().end()) {
    return;
  }
  const uint64_t run_start = it->first;
  const uint64_t run_len = it->second;
  const uint64_t first_aligned = common::RoundUp(run_start, kBlocksPerHugepage);
  const uint64_t last_aligned = common::RoundDown(run_start + run_len, kBlocksPerHugepage);
  for (uint64_t chunk = first_aligned; chunk + kBlocksPerHugepage <= last_aligned;
       chunk += kBlocksPerHugepage) {
    pool.holes.ReserveRange(chunk, kBlocksPerHugepage);
    pool.aligned.push_back(chunk);
  }
}

void WineFs::ReleaseToPool(ExecContext& ctx, const Extent& extent) {
  CpuPool& pool = *pools_[PoolOfBlock(extent.phys_block)];
  common::SimMutex::Guard guard(pool.lock, ctx);
  pool.holes.Release(extent.phys_block, extent.num_blocks);
  if (wopts_.alignment_aware) {
    ExtractAlignedFromHoles(pool, extent.phys_block);
  }
  pool.SyncCounts();
}

void WineFs::FreeBlocks(ExecContext& ctx, const std::vector<Extent>& extents) {
  for (const Extent& ext : extents) {
    ctx.clock.Advance(kAllocWorkNs);
    // An extent never spans pools (allocations are pool-local), but be
    // defensive about pool boundaries when rebuilding.
    uint64_t cursor = ext.phys_block;
    uint64_t remaining = ext.num_blocks;
    while (remaining > 0) {
      CpuPool& pool = *pools_[PoolOfBlock(cursor)];
      const uint64_t pool_end = pool.start_block + pool.num_blocks;
      const uint64_t span = std::min(remaining, pool_end - cursor);
      ReleaseToPool(ctx, Extent{cursor, span});
      cursor += span;
      remaining -= span;
    }
  }
}

// --- Journaling ----------------------------------------------------------------

void WineFs::TxBegin(ExecContext& ctx) {
  TxSlot& tx = Tx(ctx);
  tx.depth++;
  if (tx.depth > 1) {
    return;
  }
  // Shared atomic transaction counter: IDs are unique across per-CPU journals.
  tx.id = next_txn_id_.fetch_add(1);
  tx.ring = &JournalFor(ctx);
  tx.start = tx.ring->Begin(ctx, tx.id);
}

void WineFs::TxMetaWrite(ExecContext& ctx, vfs::InodeNum owner, uint64_t pm_offset,
                         const void* data, uint64_t len) {
  (void)owner;
  const bool self_contained = Tx(ctx).depth == 0;
  if (self_contained) {
    TxBegin(ctx);
  }
  const TxSlot& tx = Tx(ctx);
  tx.ring->Undo(ctx, tx.id, pm_offset, len);
  // In-place update, immediately persistent (all metadata ops synchronous).
  device_->Store(ctx, pm_offset, data, len);
  device_->Clwb(ctx, pm_offset, len);
  device_->Fence(ctx);
  if (self_contained) {
    TxCommit(ctx);
  }
}

void WineFs::TxCommit(ExecContext& ctx) {
  TxSlot& tx = Tx(ctx);
  assert(tx.depth > 0);
  tx.depth--;
  if (tx.depth > 0) {
    return;
  }
  // Space occupied by this committed transaction is immediately reclaimable
  // (§3.6); the ring simply advances.
  tx.ring->Commit(ctx, tx.id);
}

Status WineFs::RecoverJournal(ExecContext& ctx) {
  // Pool/journal geometry may not exist yet on a fresh Mount; it is derivable
  // from the superblock fields GenericFs::Mount restored. SetupPoolGeometry
  // does not touch the device, so the journals are intact for scanning.
  SetupPoolGeometry(data_start_block_, data_blocks_);
  std::vector<fscore::UndoRing*> rings;
  for (size_t j = 0; j < (wopts_.per_cpu_journals ? pools_.size() : 1); j++) {
    rings.push_back(&pools_[j]->journal);
  }
  return fscore::UndoRing::Recover(ctx, *device_, journal_start_block_ * kBlockSize,
                                   options_.journal_blocks * kBlockSize, mount_found_clean_,
                                   fscore::UndoReplay::kEveryMount, rings);
}

// --- Hybrid data atomicity (§3.4) ------------------------------------------------

Result<uint64_t> WineFs::WriteDataAtomic(ExecContext& ctx, Inode& inode, const void* src,
                                         uint64_t len, uint64_t offset) {
  if (inode.aligned_hint) {
    // Alignment xattr hint (§3.6): pre-allocate whole aligned chunks so even
    // rsync-style small appends land on hugepage-capable extents. The freshly
    // zeroed blocks are then updated via the aligned-region journaling path.
    auto ensured = EnsureBlocks(ctx, inode, offset, len, AllocIntent::kFileData);
    if (!ensured.ok()) {
      return ensured.status();
    }
  }
  const uint8_t* cursor = static_cast<const uint8_t*>(src);
  uint64_t pos = offset;
  uint64_t remaining = len;
  const uint64_t old_size = inode.size;
  uint64_t relocated_blocks = 0;  // copied on write or allocated so far
  std::vector<Extent> to_free;

  TxBegin(ctx);
  while (remaining > 0) {
    const uint64_t block = pos / kBlockSize;
    const uint64_t in_block = pos % kBlockSize;
    auto mapping = inode.extents.Lookup(block);
    if (mapping.has_value()) {
      const uint64_t run_bytes = mapping->contiguous_blocks * kBlockSize - in_block;
      uint64_t chunk = std::min(remaining, run_bytes);
      if (pos >= old_size) {
        // Append into already-allocated space beyond EOF (the partially full
        // tail block): there is no old data to protect, so write in place —
        // the journaled size update is the atomic commit point. This is why
        // WineFS beats NOVA on WiredTiger's unaligned appends (§5.5).
        const uint64_t phys_off = mapping->phys_block * kBlockSize + in_block;
        device_->NtStore(ctx, phys_off, cursor, chunk);
        cursor += chunk;
        pos += chunk;
        remaining -= chunk;
        continue;
      }
      // Protect only bytes that exist; the tail beyond EOF is fresh.
      chunk = std::min(chunk, old_size - pos);
      // Is this part of an aligned (hugepage-capable) region of the file?
      const uint64_t chunk_block = common::RoundDown(block, kBlocksPerHugepage);
      auto region = inode.extents.Lookup(chunk_block);
      const bool aligned_region =
          region.has_value() && region->contiguous_blocks >= kBlocksPerHugepage &&
          common::IsAligned(region->phys_block, kBlocksPerHugepage);
      const TxSlot& tx = Tx(ctx);
      bool journal = aligned_region && wopts_.hybrid_atomicity;
      if (journal) {
        // Data journaling: preserves the aligned layout at the cost of
        // writing the data twice. It goes segment by segment, and a segment
        // whose undo would not fit what the transaction has left of its ring
        // is copied on write instead: overrunning the ring would overwrite
        // the transaction's own kStart and first undo images.
        chunk = std::min(chunk, kMaxJournalSegBytes);
        journal = tx.ring->UndoSlots(chunk) +
                      TxTailSlots(*tx.ring, inode,
                                  relocated_blocks + common::BytesToBlocks(remaining - chunk)) <=
                  tx.ring->Room(tx.start);
      }
      if (journal) {
        const uint64_t phys_off = mapping->phys_block * kBlockSize + in_block;
        tx.ring->Undo(ctx, tx.id, phys_off, chunk);
        device_->NtStore(ctx, phys_off, cursor, chunk);
        device_->Fence(ctx);
      } else {
        // Copy-on-write into fresh holes: an unaligned region's layout does
        // not matter, so relocation is free of hugepage consequences (an
        // aligned segment lands here only when the ring has no room for it).
        const uint64_t first = block;
        const uint64_t last = (pos + chunk - 1) / kBlockSize;
        const uint64_t nblocks = last - first + 1;
        uint64_t copied = 0;
        std::vector<Extent> fresh;
        uint64_t need = nblocks;
        while (need > 0) {
          auto ext = TakeHoleBlocks(ctx, PoolIndexFor(ctx), need);
          if (!ext.has_value()) {
            FreeBlocks(ctx, fresh);
            TxCommit(ctx);
            return ErrorCode::kNoSpace;
          }
          fresh.push_back(*ext);
          need -= ext->num_blocks;
        }
        // Assemble the new contents block range in a bounce buffer:
        // old edges + new data.
        std::vector<uint8_t> bounce(nblocks * kBlockSize);
        for (uint64_t b = 0; b < nblocks; b++) {
          auto old_map = inode.extents.Lookup(first + b);
          assert(old_map.has_value());
          auto loaded = device_->Load(ctx, old_map->phys_block * kBlockSize,
                                      bounce.data() + b * kBlockSize, kBlockSize);
          if (!loaded.ok()) {
            // Poisoned old data: refuse the CoW rather than relocate zeros
            // over the reader-visible (still EIO-returning) blocks.
            FreeBlocks(ctx, fresh);
            TxCommit(ctx);
            return loaded;
          }
          copied += kBlockSize;
        }
        std::memcpy(bounce.data() + in_block, cursor, chunk);
        uint64_t logical = first;
        uint64_t written = 0;
        std::vector<Extent> old = inode.extents.Remove(first, nblocks);
        for (const Extent& ext : fresh) {
          device_->NtStore(ctx, ext.phys_block * kBlockSize, bounce.data() + written,
                           ext.num_blocks * kBlockSize);
          inode.extents.Insert(logical, ext.phys_block, ext.num_blocks);
          logical += ext.num_blocks;
          written += ext.num_blocks * kBlockSize;
        }
        device_->Fence(ctx);
        ctx.counters.cow_bytes += copied;
        relocated_blocks += nblocks;
        for (const Extent& ext : old) {
          to_free.push_back(ext);
        }
      }
      cursor += chunk;
      pos += chunk;
      remaining -= chunk;
    } else {
      // Unallocated range: fresh blocks, no old data to protect. The extent
      // insert below only becomes visible at the journaled inode commit.
      uint64_t hole_end_block = block + 1;
      const uint64_t want_end = (pos + remaining - 1) / kBlockSize;
      while (hole_end_block <= want_end &&
             !inode.extents.Lookup(hole_end_block).has_value()) {
        hole_end_block++;
      }
      const uint64_t nblocks = hole_end_block - block;
      relocated_blocks += nblocks;
      auto alloc = AllocBlocks(ctx, inode, nblocks, AllocIntent::kFileData);
      if (!alloc.ok()) {
        TxCommit(ctx);
        return alloc.status();
      }
      uint64_t logical = block;
      for (const Extent& ext : *alloc) {
        device_->Zero(ctx, ext.phys_block * kBlockSize, ext.num_blocks * kBlockSize);
        inode.extents.Insert(logical, ext.phys_block, ext.num_blocks);
        logical += ext.num_blocks;
      }
      const uint64_t chunk = std::min(remaining, nblocks * kBlockSize - in_block);
      // Write the fresh data run by run.
      uint64_t done = 0;
      while (done < chunk) {
        const uint64_t p = pos + done;
        auto m = inode.extents.Lookup(p / kBlockSize);
        const uint64_t run = m->contiguous_blocks * kBlockSize - p % kBlockSize;
        const uint64_t piece = std::min(chunk - done, run);
        device_->NtStore(ctx, m->phys_block * kBlockSize + p % kBlockSize, cursor + done,
                         piece);
        done += piece;
      }
      device_->Fence(ctx);
      cursor += chunk;
      pos += chunk;
      remaining -= chunk;
    }
  }
  if (offset + len > inode.size) {
    inode.size = offset + len;
  }
  PersistInode(ctx, inode);
  TxCommit(ctx);
  if (!to_free.empty()) {
    FreeBlocks(ctx, to_free);
  }
  return len;
}

Status WineFs::FsyncImpl(ExecContext& ctx, Inode& inode) {
  // All WineFS operations are synchronous and immediately durable; fsync only
  // needs the drain the caller (GenericFs::Fsync) issues.
  (void)ctx;
  (void)inode;
  return common::OkStatus();
}

void WineFs::ExecuteBatch(ExecContext& ctx, const vfs::OpBatch& batch,
                          std::vector<vfs::OpResult>& results) {
  ExecuteBatchNative(ctx, batch, results);
}

// --- Introspection / reactive rewriting ---------------------------------------------

vfs::FreeSpaceInfo WineFs::FreeSpace() {
  vfs::FreeSpaceInfo info;
  info.total_blocks = data_blocks_;
  for (const auto& pool : pools_) {
    info.free_blocks += pool->holes.free_blocks() + pool->aligned.size() * kBlocksPerHugepage;
    info.free_aligned_extents +=
        pool->aligned.size() + pool->holes.CountAlignedFreeRegions();
    info.largest_free_extent_blocks =
        std::max({info.largest_free_extent_blocks, pool->holes.LargestRun(),
                  pool->aligned.empty() ? 0 : kBlocksPerHugepage});
  }
  return info;
}

uint64_t WineFs::FreeAlignedExtents() const {
  uint64_t count = 0;
  for (const auto& pool : pools_) {
    count += pool->aligned.size();
  }
  return count;
}

void WineFs::SampleGauges(obs::GaugeSample& out) {
  GenericFs::SampleGauges(out);
  std::lock_guard<fscore::DomainMutex> guard(dram_mu_);
  fscore::FreeSpaceMap::RunLengthHistogram hist;
  uint64_t aligned_min = UINT64_MAX;
  uint64_t aligned_max = 0;
  uint64_t free_min = UINT64_MAX;
  uint64_t free_max = 0;
  uint64_t journal_entries = 0;
  uint64_t journal_wraps = 0;
  for (const auto& pool : pools_) {
    hist += pool->holes.RunHistogram();
    const uint64_t aligned = pool->aligned.size();
    aligned_min = std::min(aligned_min, aligned);
    aligned_max = std::max(aligned_max, aligned);
    const uint64_t free =
        pool->holes.free_blocks() + aligned * kBlocksPerHugepage;
    free_min = std::min(free_min, free);
    free_max = std::max(free_max, free);
    journal_entries += pool->journal.written();
    journal_wraps += pool->journal.wraps();
  }
  SetRunHistogramGauges(hist, out);
  out.Set("pool_aligned_min", static_cast<double>(pools_.empty() ? 0 : aligned_min));
  out.Set("pool_aligned_max", static_cast<double>(aligned_max));
  out.Set("pool_free_min_blocks", static_cast<double>(pools_.empty() ? 0 : free_min));
  out.Set("pool_free_max_blocks", static_cast<double>(free_max));
  out.Set("journal_entries_written", static_cast<double>(journal_entries));
  out.Set("journal_wraps", static_cast<double>(journal_wraps));
}

bool WineFs::NeedsRewrite(const std::string& path) {
  common::ExecContext probe;
  std::lock_guard<fscore::DomainMutex> guard(dram_mu_);
  auto st = Stat(probe, path);
  if (!st.ok() || st->is_dir || st->size < common::kHugepageSize) {
    return false;
  }
  const Inode* inode = FindInode(st->ino);
  if (inode == nullptr) {
    return false;
  }
  const uint64_t chunks = st->size / common::kHugepageSize;
  uint64_t huge_capable = 0;
  for (uint64_t c = 0; c < chunks; c++) {
    auto m = inode->extents.Lookup(c * kBlocksPerHugepage);
    if (m.has_value() && m->contiguous_blocks >= kBlocksPerHugepage &&
        common::IsAligned(m->phys_block, kBlocksPerHugepage)) {
      huge_capable++;
    }
  }
  return huge_capable < chunks;
}

Status WineFs::ReactiveRewrite(ExecContext& ctx, const std::string& path) {
  std::lock_guard<fscore::DomainMutex> guard(dram_mu_);
  if (!NeedsRewrite(path)) {
    return common::OkStatus();
  }
  auto st = Stat(ctx, path);
  if (!st.ok()) {
    return st.status();
  }
  Inode* inode = const_cast<Inode*>(FindInode(st->ino));
  common::SimMutex::Guard file_guard(inode_locks_.LockFor(inode->ino), ctx);

  // Read the fragmented file...
  const uint64_t nblocks = common::BytesToBlocks(inode->size);
  std::vector<uint8_t> data(nblocks * kBlockSize);
  for (uint64_t b = 0; b < nblocks;) {
    auto m = inode->extents.Lookup(b);
    if (m.has_value()) {
      const uint64_t run = std::min(m->contiguous_blocks, nblocks - b);
      // Poisoned file data: leave the fragmented layout alone rather than
      // rewrite zeros over blocks whose reads still (correctly) return EIO.
      RETURN_IF_ERROR(device_->Load(ctx, m->phys_block * kBlockSize,
                                    data.data() + b * kBlockSize, run * kBlockSize));
      b += run;
    } else {
      b++;
    }
  }
  // ... allocate big, write, and atomically swap the extent list.
  auto alloc = AllocBlocks(ctx, *inode, nblocks, AllocIntent::kFileData);
  if (!alloc.ok()) {
    return alloc.status();
  }
  uint64_t written = 0;
  for (const Extent& ext : *alloc) {
    device_->NtStore(ctx, ext.phys_block * kBlockSize, data.data() + written,
                     ext.num_blocks * kBlockSize);
    written += ext.num_blocks * kBlockSize;
  }
  device_->Fence(ctx);
  TxBegin(ctx);
  std::vector<Extent> old = inode->extents.Remove(0, nblocks);
  uint64_t logical = 0;
  for (const Extent& ext : *alloc) {
    inode->extents.Insert(logical, ext.phys_block, ext.num_blocks);
    logical += ext.num_blocks;
  }
  PersistInode(ctx, *inode);
  TxCommit(ctx);
  FreeBlocks(ctx, old);
  return common::OkStatus();
}

}  // namespace winefs
