// PMFS model: fine-grained single undo journal (64 B entries), metadata kept
// entirely on PM with linear directory scans (no DRAM indexes, §3.5/§5.5),
// allocator with no alignment awareness. Data layout is phase-shifted so no
// hugepages appear even on a clean filesystem (§5.4: "PMFS does not get
// hugepages even in a clean file system setup"). Relaxed guarantees.
//
// The journal is transactional: every syscall's metadata updates run inside
// one undo transaction (kStart … undo entries … kCommit through the single
// fscore::UndoRing), and mount-time recovery rolls back the uncommitted tail
// transaction so multi-write operations (rename over an existing target,
// cross-directory moves) are crash-atomic.
#ifndef SRC_FS_PMFS_PMFS_H_
#define SRC_FS_PMFS_PMFS_H_

#include <utility>
#include <vector>

#include "src/fs/fscore/generic_fs.h"
#include "src/fs/fscore/undo_journal.h"

namespace pmfs {

struct PmfsOptions {
  fscore::FsOptions base{
      .journal_blocks = 1024,
      .num_cpus = 1,
      .mode = vfs::GuaranteeMode::kRelaxed,
      .data_phase_blocks = 1,
  };
  // Injected vulnerability for the crash campaign (HUNTER's stress case):
  // metadata stores skip the journal AND their flush/fence, persisting lazily
  // at fsync/unmount. This widens the crash vulnerability window from "inside
  // one journaled syscall" to "everything since the last sync" — dirents can
  // persist before the inodes they point to, and nothing rolls back.
  bool delayed_metadata = false;
};

class Pmfs : public fscore::GenericFs {
 public:
  Pmfs(pmem::PmemDevice* device, PmfsOptions options = {});

  std::string_view Name() const override { return "pmfs"; }
  vfs::FreeSpaceInfo FreeSpace() override;

  // Delayed-metadata mode persists stragglers before the clean flag lands.
  common::Status Unmount(common::ExecContext& ctx) override;

  // Adds the free-run-length histogram and single-journal ring occupancy
  // (entries written, ring capacity) to the base gauges.
  void SampleGauges(obs::GaugeSample& out) override;

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

  common::Status FsyncImpl(common::ExecContext& ctx, fscore::Inode& inode) override;

  // Poisoned journal verdict (zero-repair after a clean unmount, refuse with
  // EIO when dirty), then rollback of the uncommitted tail transaction.
  common::Status RecoverJournal(common::ExecContext& ctx) override;

  // No DRAM indexes: directory lookups scan PM dirent lines sequentially.
  void ChargeDirLookup(common::ExecContext& ctx, const fscore::Inode& dir) override;

  bool ZeroOnFault() const override { return false; }

  void InitAllocator(uint64_t data_start, uint64_t nblocks) override;
  void RebuildAllocator(common::ExecContext& ctx, fscore::FreeSpaceMap&& free_map) override;

 private:
  // Lays the ring over the whole journal region and empties it.
  void PlaceJournal();
  // Delayed-metadata mode: flush + fence everything written since last sync.
  void DrainDelayed(common::ExecContext& ctx);

  PmfsOptions popts_;
  fscore::FreeSpaceMap free_;
  fscore::UndoRing journal_{"pmfs.journal"};  // single journal: the multi-thread bottleneck
  uint64_t next_txn_id_ = 1;
  uint64_t tx_id_ = 0;
  int tx_depth_ = 0;
  std::vector<std::pair<uint64_t, uint64_t>> delayed_dirty_;  // offset, len
};

}  // namespace pmfs

#endif  // SRC_FS_PMFS_PMFS_H_
