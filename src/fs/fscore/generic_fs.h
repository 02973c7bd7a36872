// GenericFs: the shared filesystem chassis.
//
// Implements the POSIX surface (namespace, fds, data path, mmap faults,
// mount/recovery scan) once, with virtual hooks for the decisions the paper
// contrasts across filesystems:
//   - block allocation policy (alignment-aware vs contiguity-first vs ...)
//   - metadata consistency (per-CPU undo journal, JBD2, per-inode log, ...)
//   - data atomicity (in-place, CoW, data journal, hybrid)
//   - fault policy (hugepage-allocating faults, zero-on-fault vs zero-on-alloc)
//   - directory access cost (DRAM index vs linear PM scan)
//
// All metadata lives on PM in the formats of pm_format.h and is rebuilt by a
// mount-time scan, so recovery and crash tests operate on real bytes.
#ifndef SRC_FS_FSCORE_GENERIC_FS_H_
#define SRC_FS_FSCORE_GENERIC_FS_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/fs/fscore/extent.h"
#include "src/fs/fscore/free_space_map.h"
#include "src/fs/fscore/pm_format.h"
#include "src/pmem/device.h"
#include "src/vfs/file_system.h"
#include "src/vfs/vfs_locks.h"

namespace fscore {

struct FsOptions {
  uint64_t max_inodes = 64 * 1024;
  uint64_t journal_blocks = 512;  // total; per-CPU filesystems subdivide
  uint32_t num_cpus = 4;
  vfs::GuaranteeMode mode = vfs::GuaranteeMode::kRelaxed;
  // First data block offset within the data area; non-zero values emulate
  // allocators whose bookkeeping headers shift all data off 2 MiB alignment
  // (xfs-DAX / PMFS, paper footnote 1).
  uint64_t data_phase_blocks = 0;
  // Host-parallel lock domains for the VFS front end: the DRAM-structure
  // mutex and the shared VFS syscall path are striped this many ways, keyed
  // by ExecContext::cpu. 1 (the default) preserves the historical
  // single-domain behavior — including the global per-syscall cap that
  // creates the Fig 10 plateau — bit-for-bit. Parallel geometries set it to
  // num_cpus so host workers driving disjoint CPU shards stop serializing on
  // one mutex. Only meaningful with >1 when the workload honors the
  // shard-purity contract (DESIGN.md).
  uint32_t lock_domains = 1;
};

// Striped host lock for the DRAM metadata structures. Operations that carry
// an ExecContext lock only their CPU's stripe (Stripe(ctx.cpu)); cross-domain
// paths — mount/unmount, StatFs, gauge probes — lock every stripe via the
// BasicLockable surface. Deadlock-free: lock() acquires stripes in ascending
// index order, and a single-stripe holder never blocks on a second stripe
// (same-CPU recursion re-enters its own recursive_mutex). With one domain the
// two forms collapse to the pre-striping single recursive mutex.
class DomainMutex {
 public:
  explicit DomainMutex(uint32_t domains = 1) {
    if (domains == 0) {
      domains = 1;
    }
    stripes_.reserve(domains);
    for (uint32_t d = 0; d < domains; d++) {
      stripes_.push_back(std::make_unique<std::recursive_mutex>());
    }
  }

  void lock() const {
    for (auto& stripe : stripes_) {
      stripe->lock();
    }
  }
  void unlock() const {
    for (auto it = stripes_.rbegin(); it != stripes_.rend(); ++it) {
      (*it)->unlock();
    }
  }

  std::recursive_mutex& Stripe(uint32_t cpu) const {
    return *stripes_[cpu % stripes_.size()];
  }
  uint32_t domains() const { return static_cast<uint32_t>(stripes_.size()); }

 private:
  std::vector<std::unique_ptr<std::recursive_mutex>> stripes_;
};

// Why a block allocation is happening; policies treat these differently.
enum class AllocIntent {
  kFileData,   // regular file contents
  kDirData,    // directory entry blocks (small, metadata-like)
  kMeta,       // indirect extent blocks and similar
  kLogPage,    // per-inode log pages (NOVA)
};

// Transparent string hash so directory lookups can run on string_view path
// components without materializing a std::string per component (the path
// walker's hot path). Hashes through std::hash<string_view>, which matches
// std::hash<string> byte-for-byte, so bucket iteration order — and therefore
// ReadDir output order — is unchanged.
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
};

// DRAM inode. PM truth is the PmInode + indirect chain; this mirror is
// rebuilt on mount.
struct Inode {
  vfs::InodeNum ino = 0;
  uint32_t shard = 0;  // the GenericFs inode-table shard that owns it
  bool is_dir = false;
  bool aligned_hint = false;
  uint64_t size = 0;
  uint32_t nlink = 0;
  ExtentMap extents;
  std::string xattr;

  // Directory state. `inode` is the child's DRAM inode, so a path walk
  // follows pointers instead of probing the inode table per component. It is
  // set when the dirent is added (AddDirent) or rebuilt at mount
  // (RebuildFromPm) and dies with the dirent; nullptr only when the image
  // holds a dirent whose inode is gone (the walk reports kCorrupt).
  struct DirentRef {
    vfs::InodeNum ino = 0;
    bool is_dir = false;
    uint64_t slot = 0;  // index into the dir's dirent array
    Inode* inode = nullptr;
  };
  std::unordered_map<std::string, DirentRef, TransparentStringHash, std::equal_to<>> dirents;
  std::vector<uint64_t> free_dirent_slots;
  uint64_t dirent_capacity = 0;  // total slots backed by allocated blocks

  // Per-inode log bookkeeping (NOVA-style filesystems).
  std::vector<Extent> log_pages;
  uint32_t log_entries_in_tail = 0;

  // Mirror of the on-PM extent records. Records are SLOTTED: each one is
  // independent ({logical, packed}; packed==0 marks a free slot), so any
  // single extent change — append, split, CoW replacement — costs O(changed
  // records), like a real extent B-tree, instead of rewriting a positional
  // array. pm_slots maps logical start -> (slot index, packed value);
  // pm_chain holds the indirect-block chain addresses.
  std::unordered_map<uint64_t, std::pair<uint32_t, uint64_t>> pm_slots;
  std::vector<uint32_t> pm_free_slots;
  uint32_t pm_slot_highwater = 0;  // slots ever used; extent_count on PM
  std::vector<uint64_t> pm_chain;

  // Chunks whose fault-time zeroing cost has been charged (ext4-style
  // zero-on-fault of unwritten extents; cost accounting only).
  std::unordered_set<uint64_t> zeroed_chunks;
};

class GenericFs : public vfs::FileSystem {
 public:
  GenericFs(pmem::PmemDevice* device, FsOptions options);
  ~GenericFs() override;

  // --- vfs::FileSystem ----------------------------------------------------
  vfs::GuaranteeMode guarantee_mode() const override { return options_.mode; }
  common::Status Mkfs(common::ExecContext& ctx) override;
  common::Status Mount(common::ExecContext& ctx) override;
  common::Status Unmount(common::ExecContext& ctx) override;

  common::Result<int> Open(common::ExecContext& ctx, const std::string& path,
                           vfs::OpenFlags flags) override;
  common::Status Close(common::ExecContext& ctx, int fd) override;
  common::Status Mkdir(common::ExecContext& ctx, const std::string& path) override;
  common::Status Rmdir(common::ExecContext& ctx, const std::string& path) override;
  common::Status Unlink(common::ExecContext& ctx, const std::string& path) override;
  common::Status Rename(common::ExecContext& ctx, const std::string& from,
                        const std::string& to) override;
  common::Result<vfs::StatInfo> Stat(common::ExecContext& ctx,
                                     const std::string& path) override;
  common::Result<std::vector<vfs::DirEntry>> ReadDir(common::ExecContext& ctx,
                                                     const std::string& path) override;

  vfs::IoResult Pread(common::ExecContext& ctx, int fd, void* dst, uint64_t len,
                      uint64_t offset) override;
  vfs::IoResult Pwrite(common::ExecContext& ctx, int fd, const void* src, uint64_t len,
                       uint64_t offset) override;
  vfs::IoResult Append(common::ExecContext& ctx, int fd, const void* src,
                       uint64_t len) override;
  common::Status Fsync(common::ExecContext& ctx, int fd) override;
  common::Status Fallocate(common::ExecContext& ctx, int fd, uint64_t offset,
                           uint64_t len) override;
  common::Status Ftruncate(common::ExecContext& ctx, int fd, uint64_t size) override;

  common::Status SetXattr(common::ExecContext& ctx, const std::string& path,
                          const std::string& name, const std::string& value) override;
  common::Result<std::string> GetXattr(common::ExecContext& ctx, const std::string& path,
                                       const std::string& name) override;

  common::Result<vfs::InodeNum> InodeOf(common::ExecContext& ctx, int fd) override;
  common::Result<uint64_t> SizeOf(common::ExecContext& ctx, int fd) override;

  common::Result<FaultMapping> HandleFault(common::ExecContext& ctx, uint64_t ino,
                                           uint64_t page_offset, bool write) override;

  // statfs(2) entry point: charges syscall + op metrics, fails on an
  // unmounted filesystem, then delegates to the FreeSpace() policy hook —
  // the allocator policy owns free space.
  common::Result<vfs::FreeSpaceInfo> StatFs(common::ExecContext& ctx) override;

  // Gauge probe shared by every filesystem: free-space fragmentation from the
  // FreeSpace() policy hook plus DRAM index footprint. Subclasses extend with
  // allocator/journal internals and call this base version first.
  void SampleGauges(obs::GaugeSample& out) override;

  // --- Introspection used by benches/tests --------------------------------
  uint64_t data_start_block() const { return data_start_block_; }
  uint64_t data_blocks() const { return data_blocks_; }
  // Metadata-region layout (campaign poison plans target the journal region;
  // the scrub daemon walks superblock + journal + inode table).
  uint64_t total_blocks() const { return total_blocks_; }
  uint64_t journal_start_block() const { return journal_start_block_; }
  uint64_t inode_table_block() const { return inode_table_block_; }
  pmem::PmemDevice& device() { return *device_; }
  const FsOptions& options() const { return options_; }
  // DRAM consumed by directory indexes + extent mirrors (§5.7), approximate.
  uint64_t DramIndexBytes() const;
  // Simulated duration of the last Mount() call (recovery time, §5.2).
  uint64_t last_mount_ns() const { return last_mount_ns_; }
  // Looks up an inode's extent map (tests).
  const Inode* FindInode(vfs::InodeNum ino) const;

 protected:
  // ==== Policy hooks =======================================================

  // Allocates `nblocks` for `inode` (may return multiple extents). The
  // policy charges its own search cost to ctx.clock.
  virtual common::Result<std::vector<Extent>> AllocBlocks(common::ExecContext& ctx,
                                                          Inode& inode, uint64_t nblocks,
                                                          AllocIntent intent) = 0;
  virtual void FreeBlocks(common::ExecContext& ctx, const std::vector<Extent>& extents) = 0;

  // Free-space snapshot backing StatFs(); called with dram_mu_ held.
  virtual vfs::FreeSpaceInfo FreeSpace() = 0;

  // Consistency engine. TxBegin/TxCommit bracket one atomic metadata
  // operation; TxMetaWrite persists `len` bytes at `pm_offset` according to
  // the filesystem's journaling discipline. `owner` is the inode the update
  // belongs to (per-inode-log filesystems need it).
  virtual void TxBegin(common::ExecContext& ctx) { (void)ctx; }
  virtual void TxMetaWrite(common::ExecContext& ctx, vfs::InodeNum owner, uint64_t pm_offset,
                           const void* data, uint64_t len) = 0;
  virtual void TxCommit(common::ExecContext& ctx) { (void)ctx; }
  // Journal recovery during Mount() on an unclean filesystem.
  virtual common::Status RecoverJournal(common::ExecContext& ctx) {
    (void)ctx;
    return common::OkStatus();
  }

  // Strict-mode data path: must make [offset, offset+len) atomic+durable.
  // Default implementation is the relaxed in-place path (used when
  // options_.mode == kRelaxed); strict filesystems override.
  virtual common::Result<uint64_t> WriteDataAtomic(common::ExecContext& ctx, Inode& inode,
                                                   const void* src, uint64_t len,
                                                   uint64_t offset);

  // fsync semantics (JBD2 commit, log flush, or no-op for always-durable FSs).
  virtual common::Status FsyncImpl(common::ExecContext& ctx, Inode& inode) = 0;

  // Fault policy.
  virtual bool AllocatesHugeOnFault() const { return false; }
  virtual bool ZeroOnFault() const { return true; }  // else zero at allocation

  // Directory access cost (PMFS overrides with a linear PM scan).
  //
  // Contract (relied on by ExecuteBatchNative's path memo): the charges
  // must be a pure function of the directory's state — relative
  // clock.Advance() plus counter increments only, no absolute-time waits
  // (ResourceClock/SharedResource) and no dependence on anything a
  // non-namespace-mutating op could change. The batch engine memoizes a
  // resolve's charge footprint and replays it for repeated paths; any
  // dirent mutation clears the memo.
  virtual void ChargeDirLookup(common::ExecContext& ctx, const Inode& dir);

  // Notifications for per-inode-log bookkeeping.
  virtual void OnInodeCreated(common::ExecContext& ctx, Inode& inode) {
    (void)ctx;
    (void)inode;
  }
  virtual void OnInodeDeleted(common::ExecContext& ctx, Inode& inode) {
    (void)ctx;
    (void)inode;
  }

  // Allocator lifecycle: initial hand-over at mkfs, and rebuild after a
  // mount-time scan (free = data area minus `used`).
  virtual void InitAllocator(uint64_t data_start, uint64_t nblocks) = 0;
  virtual void RebuildAllocator(common::ExecContext& ctx, FreeSpaceMap&& free_map) = 0;

  // Extra used extents outside inode extent lists (per-inode log pages).
  virtual void CollectExtraUsed(common::ExecContext& ctx, std::vector<Extent>& used) {
    (void)ctx;
    (void)used;
  }

  // Mount-time scan parallelism (WineFS scans per-CPU inode tables in
  // parallel, §5.2); the measured scan time is divided by this factor.
  virtual uint32_t RecoveryParallelism() const { return 1; }

  // ==== Services provided to subclasses ====================================

  // AllocBlocks policy call wrapped in an allocator profile zone; every
  // internal allocation goes through this.
  common::Result<std::vector<Extent>> AllocBlocksProfiled(common::ExecContext& ctx,
                                                          Inode& inode, uint64_t nblocks,
                                                          AllocIntent intent);

  // In-place relaxed write (allocates holes, streams data). Shared by
  // relaxed mode and by strict implementations for freshly allocated blocks.
  common::Result<uint64_t> WriteDataInPlace(common::ExecContext& ctx, Inode& inode,
                                            const void* src, uint64_t len, uint64_t offset,
                                            bool persist_data);

  // Allocates any unmapped blocks in [offset, offset+len) and persists the
  // extent-list growth. Returns the number of newly allocated blocks.
  common::Result<uint64_t> EnsureBlocks(common::ExecContext& ctx, Inode& inode,
                                        uint64_t offset, uint64_t len, AllocIntent intent,
                                        bool persist_inode = true);

  // Serializes inode metadata (and its extent list) to PM via TxMetaWrite,
  // writing only the extent records that changed since the last persist.
  void PersistInode(common::ExecContext& ctx, Inode& inode);

  // PM offset of the inode's k-th extent record, growing the indirect chain
  // on demand; 0 on ENOSPC.
  uint64_t ExtentRecordOffset(common::ExecContext& ctx, Inode& inode, size_t k);

  // Updates inode size + extents after a data operation, inside a Tx.
  void CommitInodeUpdate(common::ExecContext& ctx, Inode& inode);

  uint64_t InodePmOffset(vfs::InodeNum ino) const;

  Inode* GetInode(vfs::InodeNum ino);
  Inode* GetInodeByFd(int fd);

  // Charges the syscall entry cost (trap + shared VFS path).
  void ChargeSyscall(common::ExecContext& ctx);

  // Native batched-execution engine (generic_fs_batch.cc): holds the caller's
  // dram_mu_ stripe once for the whole batch, runs stat and plain open
  // through a path memo over the shared Resolve walker, calls the scalar
  // bodies for close/pread/fsync, and falls back to DispatchScalarOp for
  // everything else — charge-for-charge identical to the scalar loop.
  // Subclasses opt in by overriding ExecuteBatch to call this.
  void ExecuteBatchNative(common::ExecContext& ctx, const vfs::OpBatch& batch,
                          std::vector<vfs::OpResult>& results);

  // Builds a FreeSpaceMap of the whole data area (helper for rebuilds).
  FreeSpaceMap FullDataArea() const;

  // Calls fn(const Inode&) for every inode of the DRAM table, for gauge
  // probes (per-inode log occupancy and similar aggregates). Hold dram_mu_.
  template <typename Fn>
  void ForEachInode(Fn&& fn) const {
    for (const InodeShard& shard : inode_shards_) {
      for (const auto& entry : shard.inodes) {
        fn(*entry.second);
      }
    }
  }

  // Emits a FreeSpaceMap run-length histogram as the four standard
  // free_runs_* gauges (shared by the per-filesystem SampleGauges overrides).
  static void SetRunHistogramGauges(const FreeSpaceMap::RunLengthHistogram& hist,
                                    obs::GaugeSample& out);

  pmem::PmemDevice* device_;
  FsOptions options_;
  vfs::InodeLockTable inode_locks_;
  vfs::VfsSharedPath vfs_shared_;

  // Whether the superblock said clean_unmount when Mount() read it; journal
  // recovery hooks consult this to decide repair-vs-refuse on poisoned
  // journal regions (a clean journal carries no undo state worth keeping).
  bool mount_found_clean_ = false;

  // Region layout (blocks).
  uint64_t total_blocks_ = 0;
  uint64_t journal_start_block_ = 0;
  uint64_t inode_table_block_ = 0;
  uint64_t data_start_block_ = 0;
  uint64_t data_blocks_ = 0;

  // Real-time lock for DRAM structures, striped by FsOptions::lock_domains.
  // Simulated-time contention is modeled separately (SimMutex /
  // ResourceClock); this mutex only provides host-thread safety. Per-op code
  // paths hold Stripe(ctx.cpu); cross-domain paths lock all stripes.
  mutable DomainMutex dram_mu_;

  // Guard for per-op single-stripe locking: the overwhelmingly common form
  // `std::lock_guard<std::recursive_mutex> guard(dram_mu_.Stripe(ctx.cpu))`
  // spelled as one token for the op surface.
  using DramStripeGuard = std::lock_guard<std::recursive_mutex>;

 private:
  struct FdEntry {
    vfs::InodeNum ino = 0;
    bool write = false;
    bool in_use = false;
  };

  struct ResolveResult {
    Inode* parent = nullptr;
    Inode* node = nullptr;  // nullptr if final component missing
    std::string_view leaf;  // views the resolved path
  };

  // The one path walker: validates and counts the components, charges the
  // per-component VFS cost, then follows DirentRef::inode links from the
  // root, charging ChargeDirLookup per directory searched. Allocation-free
  // and takes no inode-table lock.
  common::Result<ResolveResult> Resolve(common::ExecContext& ctx, std::string_view path,
                                        bool want_parent);

  // The work of Close, Pread and Fsync, shared with ExecuteBatchNative: the
  // caller has charged the syscall, opened the op scope and holds
  // dram_mu_.Stripe(ctx.cpu). The public calls open the scope before they
  // take the stripe, as every scalar call does, so a closing scope that
  // samples gauges (the sampler locks its mutex, then every stripe) never
  // runs under a stripe.
  common::Status CloseHeld(int fd);
  vfs::IoResult PreadHeld(common::ExecContext& ctx, int fd, void* dst, uint64_t len,
                          uint64_t offset);
  common::Status FsyncHeld(common::ExecContext& ctx, int fd);
  // The StatInfo of a resolved node, and the fd-table claim that ends every
  // successful open (kNoSpace when the table is full); shared with the
  // engine's stat and plain-open arms.
  static vfs::StatInfo StatOf(const Inode& node);
  common::Result<int> ClaimFd(vfs::InodeNum ino, bool write);

  common::Result<Inode*> CreateNode(common::ExecContext& ctx, Inode& parent,
                                    std::string_view name, bool is_dir);
  common::Status RemoveNode(common::ExecContext& ctx, Inode& parent, std::string_view name,
                            bool expect_dir);
  common::Status AddDirent(common::ExecContext& ctx, Inode& dir, std::string_view name,
                           Inode& child);
  common::Status RemoveDirent(common::ExecContext& ctx, Inode& dir, std::string_view name);
  uint64_t DirentPmOffset(Inode& dir, uint64_t slot) const;

  // The DRAM inode table is inode_shards_ (which own the inodes) plus
  // inode_index_ (the same Inode* by inode number, so GetInode and
  // GetInodeByFd read it with an acquire load and take no lock). The two
  // change only together, here: InsertInode (into shard 0) and ClearInodes
  // run alone (mkfs, mount, unmount). AdoptInode gives `inode` a free inode
  // number and puts it in the shard of `cpu`'s lock domain (kNoSpace when no
  // number is left); DropInode erases `ino` from its shard, returns its
  // number to `cpu`'s shard and destroys the Inode after releasing the lock.
  // A shard's CPUs reuse the numbers they freed before taking any other, the
  // last freed first, so host workers on different CPUs neither share a lock
  // nor bounce an inode's lines between them; with one lock domain this is
  // the single last-freed-first stack it always was.
  Inode* InsertInode(vfs::InodeNum ino, std::unique_ptr<Inode> inode);
  void ClearInodes();
  common::Result<Inode*> AdoptInode(std::unique_ptr<Inode> inode, uint32_t cpu);
  void DropInode(vfs::InodeNum ino, uint32_t cpu);
  // A free inode number not held by `home`'s shard: the never-used stack
  // first, then the other shards' freed numbers. 0 when none is left.
  vfs::InodeNum TakeFreeIno(uint32_t home);

  void FreeFileBlocks(common::ExecContext& ctx, Inode& inode, uint64_t from_block);

  common::Status RebuildFromPm(common::ExecContext& ctx);
  common::Status LoadInodeFromPm(common::ExecContext& ctx, const PmInode& pm, Inode& inode);

  // Memo of one ExecuteBatchNative call's successful resolves, keyed by the
  // batch's path strings: each row holds the leaf inode and the resolve's
  // whole charge footprint (clock advance plus sparse counter deltas), which
  // the engine replays on a repeat of the path. One per dram_mu_ stripe,
  // used only under that stripe's lock, so its storage is reused from call
  // to call; Clear() is O(1) (an epoch bump invalidates every slot).
  class alignas(64) PathMemo {  // own cache lines: host workers use adjacent memos
   public:
    struct Row {
      std::string_view path;
      uint64_t hash = 0;
      Inode* node = nullptr;
      uint64_t charge_ns = 0;
      uint32_t delta_begin = 0;  // range in deltas
      uint32_t delta_count = 0;
    };
    struct Delta {
      uint8_t field = 0;  // kCounterFields index
      uint64_t value = 0;
    };

    // The row memoized for `path`, or nullptr; `hash` must be Hash(path).
    const Row* Find(std::string_view path, uint64_t hash) const;
    // Appends a row (its deltas already pushed) and indexes it.
    void Insert(const Row& row);
    void Clear();
    static uint64_t Hash(std::string_view path);

    std::vector<Delta> deltas;

   private:
    struct Slot {
      uint32_t epoch = 0;  // live iff == epoch_
      uint32_t row = 0;
    };
    void Rehash(size_t slot_count);
    void Place(uint32_t row);  // into the first free slot of its probe run

    std::vector<Row> rows_;
    std::vector<Slot> slots_;  // open addressing, power-of-two size
    uint32_t epoch_ = 1;
  };

  // One shard of the inode table per lock domain (indexed like dram_mu_
  // stripes). Its spin lock guards both containers for their
  // (host-nanosecond) critical sections, since stripes make dram_mu_ no
  // longer mutually exclusive across CPUs; unordered_map node stability
  // keeps handed-out Inode* valid afterwards. A line of its own per shard:
  // host workers use adjacent shards.
  struct alignas(64) InodeShard {
    common::SpinMutex mu;
    // The inodes adopted on this shard's CPUs (Inode::shard names it).
    std::unordered_map<vfs::InodeNum, std::unique_ptr<Inode>> inodes;
    // Numbers freed on this shard's CPUs, reused last freed first.
    std::vector<vfs::InodeNum> freed;
  };

  Inode* root_ = nullptr;  // inode_index_[kRootIno] while mounted
  std::vector<PathMemo> path_memos_;  // indexed like dram_mu_ stripes
  std::vector<std::atomic<Inode*>> inode_index_;  // max_inodes entries
  std::vector<InodeShard> inode_shards_;
  // Structural guard for the two shared tables below when lock domains > 1:
  // the never-used inode numbers and fd slot claim/release take this spin
  // lock for their (host-nanosecond) critical sections. Never held while
  // calling anything that could re-enter it. It starts a cache line shared
  // only with the tables it guards, so its traffic does not evict the
  // read-mostly members above from other host workers' caches.
  alignas(64) mutable common::SpinMutex table_mu_;
  std::vector<vfs::InodeNum> free_inos_;  // never used since mkfs/mount
  std::vector<FdEntry> fds_;
  bool mounted_ = false;
  uint64_t last_mount_ns_ = 0;
};

}  // namespace fscore

#endif  // SRC_FS_FSCORE_GENERIC_FS_H_
