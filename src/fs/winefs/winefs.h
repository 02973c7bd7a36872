// WineFS: the hugepage-aware PM filesystem (paper §3).
//
// Distinguishing design decisions, each implemented here:
//  * Alignment-aware allocation: per-CPU pools split into a list of free
//    2 MiB-aligned extents and an offset-keyed tree of unaligned holes.
//    Hugepage-sized requests take aligned extents; small requests take holes;
//    metadata always comes from holes (contained fragmentation).
//  * Per-CPU fine-grained undo journals (fscore::UndoRing, 64 B cacheline
//    entries); all metadata operations are synchronous, so journal space is
//    reclaimed at commit. Transactions stay on the journal where they began,
//    and one shared transaction-ID counter orders rollback across journals.
//  * Hybrid data atomicity (strict mode): data journaling for aligned extents
//    (preserves layout), copy-on-write into fresh holes for unaligned ones.
//  * Hugepage-allocating page faults: a write fault on a hole asks the
//    allocator for the whole aligned 2 MiB chunk.
//  * DRAM metadata indexes, xattr-carried alignment hints, reactive rewriting
//    of fragmented memory-mapped files, and a NUMA home-node write policy.
#ifndef SRC_FS_WINEFS_WINEFS_H_
#define SRC_FS_WINEFS_WINEFS_H_

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/fs/fscore/generic_fs.h"
#include "src/fs/fscore/undo_journal.h"

namespace winefs {

struct WineFsOptions {
  fscore::FsOptions base{
      .journal_blocks = 1024,
      .num_cpus = 4,
      .mode = vfs::GuaranteeMode::kStrict,
  };
  bool numa_aware = false;
  // Ablation switches (bench/ablation_design_choices):
  bool alignment_aware = true;   // off: plain first-fit allocation
  bool per_cpu_journals = true;  // off: one global journal
  bool hybrid_atomicity = true;  // off: CoW for everything in strict mode
};

class WineFs : public fscore::GenericFs {
 public:
  WineFs(pmem::PmemDevice* device, WineFsOptions options);

  std::string_view Name() const override { return "winefs"; }
  // Per-CPU journals + per-CPU allocator pools + per-CPU tx slots: host
  // workers driving disjoint CPU shards contend real per-CPU structures
  // instead of taking turns (see DESIGN.md shard-purity contract).
  vfs::ParallelPolicy parallel_policy() const override {
    return vfs::ParallelPolicy::kSharded;
  }
  vfs::FreeSpaceInfo FreeSpace() override;

  // Adds per-CPU pool balance (aligned extents and free blocks min/max across
  // pools), the summed hole-run histogram, and per-CPU journal ring state
  // (entries appended, wrap generations) to the base gauges.
  void SampleGauges(obs::GaugeSample& out) override;

  // Reactive rewriting (§3.6): if the file is fragmented, reads it and
  // rewrites it with big (aligned) allocations inside one journal
  // transaction. In the kernel a background thread does this after mmap;
  // benches drive it explicitly from a background ExecContext.
  common::Status ReactiveRewrite(common::ExecContext& ctx, const std::string& path);
  // True if mmap-ing this file would schedule a rewrite (fragmented layout).
  bool NeedsRewrite(const std::string& path);

  // NUMA introspection for the NUMA-policy experiments.
  uint64_t numa_local_allocs() const { return numa_local_allocs_.load(std::memory_order_relaxed); }
  uint64_t numa_remote_allocs() const { return numa_remote_allocs_.load(std::memory_order_relaxed); }

  // Aggregate count of free aligned extents across per-CPU pools.
  uint64_t FreeAlignedExtents() const;

  // Native batched execution: the fscore engine. Batched ops write the
  // journal through the same rings as scalar calls.
  void ExecuteBatch(common::ExecContext& ctx, const vfs::OpBatch& batch,
                    std::vector<vfs::OpResult>& results) override;

 protected:
  common::Result<std::vector<fscore::Extent>> AllocBlocks(common::ExecContext& ctx,
                                                          fscore::Inode& inode,
                                                          uint64_t nblocks,
                                                          fscore::AllocIntent intent) override;
  void FreeBlocks(common::ExecContext& ctx,
                  const std::vector<fscore::Extent>& extents) override;

  void TxBegin(common::ExecContext& ctx) override;
  void TxMetaWrite(common::ExecContext& ctx, vfs::InodeNum owner, uint64_t pm_offset,
                   const void* data, uint64_t len) override;
  void TxCommit(common::ExecContext& ctx) override;
  common::Status RecoverJournal(common::ExecContext& ctx) override;

  common::Result<uint64_t> WriteDataAtomic(common::ExecContext& ctx, fscore::Inode& inode,
                                           const void* src, uint64_t len,
                                           uint64_t offset) override;

  common::Status FsyncImpl(common::ExecContext& ctx, fscore::Inode& inode) override;

  bool AllocatesHugeOnFault() const override { return true; }
  bool ZeroOnFault() const override { return false; }  // zeroed at allocation

  void InitAllocator(uint64_t data_start, uint64_t nblocks) override;
  void RebuildAllocator(common::ExecContext& ctx, fscore::FreeSpaceMap&& free_map) override;
  uint32_t RecoveryParallelism() const override { return wopts_.base.num_cpus; }

 private:
  struct CpuPool {
    uint64_t start_block = 0;
    uint64_t num_blocks = 0;
    uint32_t numa_node = 0;
    // Free aligned extents: chunk start blocks, FIFO (head alloc, tail free).
    std::deque<uint64_t> aligned;
    // Unaligned holes, keyed by block offset (kernel rbtree in the paper).
    fscore::FreeSpaceMap holes;
    common::SimMutex lock;
    // Relaxed mirrors of aligned.size() and holes.free_blocks(), refreshed
    // (via SyncCounts) whenever the structures change under `lock`. The
    // cross-pool steal scans read these instead of the containers so a scan
    // racing another pool's owner is a stale-but-safe read, not a data race.
    std::atomic<uint64_t> aligned_count{0};
    std::atomic<uint64_t> hole_free_count{0};

    void SyncCounts() {
      aligned_count.store(aligned.size(), std::memory_order_relaxed);
      hole_free_count.store(holes.free_blocks(), std::memory_order_relaxed);
    }

    // Per-CPU journal ring; placed only on pool 0 without per_cpu_journals.
    fscore::UndoRing journal;
  };

  uint32_t PoolIndexFor(common::ExecContext& ctx);
  size_t PoolOfBlock(uint64_t block) const;

  // Creates pools_ with data-range and journal geometry; touches no PM.
  void SetupPoolGeometry(uint64_t data_start, uint64_t nblocks);

  // Takes one aligned extent, preferring `cpu`, falling back to the pool
  // with the most free aligned extents (§3.4 allocation policy).
  std::optional<uint64_t> TakeAlignedChunk(common::ExecContext& ctx, uint32_t cpu);
  // Takes up to `want` blocks from hole pools; breaks an aligned extent into
  // holes when every hole pool is dry.
  std::optional<fscore::Extent> TakeHoleBlocks(common::ExecContext& ctx, uint32_t cpu,
                                               uint64_t want);
  void ReleaseToPool(common::ExecContext& ctx, const fscore::Extent& extent);
  void ExtractAlignedFromHoles(CpuPool& pool, uint64_t around_block);

  // The ring a transaction begun on ctx.cpu appends to.
  fscore::UndoRing& JournalFor(const common::ExecContext& ctx) {
    return pools_[wopts_.per_cpu_journals ? ctx.cpu % pools_.size() : 0]->journal;
  }

  // NUMA policy (§3.6): home node per process, writes routed there.
  uint32_t HomeNodeFor(common::ExecContext& ctx);

  WineFsOptions wopts_;
  std::vector<std::unique_ptr<CpuPool>> pools_;
  // Bumped by every transaction on every CPU, so it gets a cache line of its
  // own: sharing one with the table headers around it, which every op reads,
  // would turn each bump into a miss for every other host worker.
  alignas(64) std::atomic<uint64_t> next_txn_id_{1};

  // Active transaction, one slot per CPU: operations on one CPU are
  // serialized by that CPU's dram stripe (an op runs begin..commit without
  // interleaving), while ops on other CPUs run their own transactions
  // concurrently against their own journals. Nesting uses the depth counter.
  struct alignas(64) TxSlot {  // a line per CPU: host workers write their own
    int depth = 0;
    uint64_t id = 0;
    uint64_t start = 0;  // ring position of the kStart entry
    fscore::UndoRing* ring = nullptr;
  };
  alignas(64) std::vector<TxSlot> tx_slots_{1};
  TxSlot& Tx(const common::ExecContext& ctx) {
    return tx_slots_[ctx.cpu % tx_slots_.size()];
  }

  std::unordered_map<uint32_t, uint32_t> home_node_;  // pid -> NUMA node
  common::SpinMutex home_mu_;                         // guards home_node_
  std::atomic<uint64_t> numa_local_allocs_{0};
  std::atomic<uint64_t> numa_remote_allocs_{0};
};

}  // namespace winefs

#endif  // SRC_FS_WINEFS_WINEFS_H_
