// WineFS: the hugepage-aware PM filesystem (paper §3).
//
// Distinguishing design decisions, each implemented here:
//  * Alignment-aware allocation: per-CPU pools split into a list of free
//    2 MiB-aligned extents and an offset-keyed tree of unaligned holes.
//    Hugepage-sized requests take aligned extents; small requests take holes;
//    metadata always comes from holes (contained fragmentation).
//  * Per-CPU fine-grained undo journals with 64 B cacheline entries; all
//    metadata operations are synchronous, so journal space is reclaimed at
//    commit. Transactions stay on the journal where they began.
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

// One 64-byte undo-journal entry (§3.6 "each log entry is only a cache line").
// Large undo images (data journaling of aligned extents) use one kUndoBlob
// header followed by ceil(len/64) raw cachelines of old data — compact, so
// data journaling writes the data ~twice, not four times.
//
// x86 persists only 8 bytes atomically, so a crash mid-flush can tear the
// entry at 8-byte-lane granularity. `csum` (FNV-1a over the other 56 bytes)
// makes torn entries detectable: recovery skips them, which is safe because
// every undo entry is fenced BEFORE its in-place overwrite begins — a torn
// entry implies the target was never touched. Blob headers additionally carry
// an FNV-1a checksum of the old image in payload[8..16] so torn raw blob
// cachelines are caught the same way.
struct JournalEntry {
  uint64_t txn_id = 0;
  uint32_t wrap = 0;
  uint8_t type = 0;  // 0 invalid
  uint8_t payload_len = 0;
  uint16_t magic = 0;  // kMagic distinguishes headers from raw blob lines
  uint64_t target_offset = 0;
  uint8_t payload[32] = {};
  uint64_t csum = 0;  // FNV-1a over the first 56 bytes

  static constexpr uint16_t kMagic = 0x4a45;
  static constexpr uint8_t kInvalid = 0;
  static constexpr uint8_t kStart = 1;
  static constexpr uint8_t kCommit = 2;
  static constexpr uint8_t kUndoData = 3;
  static constexpr uint8_t kUndoBlob = 4;

  uint64_t ComputeCsum() const {
    return Fnv1a(reinterpret_cast<const uint8_t*>(this), sizeof(JournalEntry) - sizeof(csum));
  }
  bool CsumOk() const { return csum == ComputeCsum(); }

  bool IsValidHeader() const {
    return magic == kMagic && type >= kStart && type <= kUndoBlob && CsumOk();
  }

  static uint64_t Fnv1a(const uint8_t* data, uint64_t len) {
    uint64_t hash = 0xcbf29ce484222325ull;
    for (uint64_t i = 0; i < len; i++) {
      hash = (hash ^ data[i]) * 0x100000001b3ull;
    }
    return hash;
  }
};
static_assert(sizeof(JournalEntry) == 64);

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
  // journal through the same AppendEntry/AppendRawSlots code as scalar calls.
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

    // Per-CPU journal ring.
    uint64_t journal_pm_offset = 0;
    uint64_t capacity_entries = 0;
    uint64_t head = 0;  // next slot
    uint32_t wrap = 0;
    common::SimMutex journal_lock;
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

  // Journal mechanics.
  CpuPool& JournalFor(uint32_t cpu) {
    return wopts_.per_cpu_journals ? *pools_[cpu] : *pools_[0];
  }
  // Stores one entry into the next slot and flushes it (Store + Clwb); the
  // caller fences.
  void AppendEntry(common::ExecContext& ctx, CpuPool& pool, const JournalEntry& entry);
  // Writes `len` bytes of old-image data as raw journal cachelines.
  void AppendRawSlots(common::ExecContext& ctx, CpuPool& pool, const uint8_t* data,
                      uint64_t len);
  void JournalUndo(common::ExecContext& ctx, CpuPool& pool, uint64_t target_offset,
                   uint64_t len);

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
    uint32_t cpu = 0;
    uint64_t id = 0;
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
