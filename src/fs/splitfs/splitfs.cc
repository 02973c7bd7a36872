#include "src/fs/splitfs/splitfs.h"

#include "src/common/prof_zone.h"
#include "src/common/units.h"

namespace splitfs {

using common::ExecContext;
using common::Result;
using common::Status;
using fscore::Inode;

namespace {
// User-level dispatch (no trap, no VFS): a library call plus bookkeeping.
constexpr uint64_t kUserPathNs = 180;
}  // namespace

vfs::IoResult SplitFs::Append(ExecContext& ctx, int fd, const void* src, uint64_t len) {
  ctx.clock.Advance(kUserPathNs);
  std::lock_guard<fscore::DomainMutex> guard(dram_mu_);
  Inode* inode = GetInodeByFd(fd);
  if (inode == nullptr) {
    return common::ErrorCode::kBadFd;
  }
  common::SimMutex::Guard file_guard(inode_locks_.LockFor(inode->ino), ctx);
  const uint64_t offset = inode->size;
  // Staged append: data lands durably in pre-allocated blocks; the size/extent
  // metadata is relinked at the next fsync.
  relink_mode_ = true;
  auto written = WriteDataInPlace(ctx, *inode, src, len, offset, /*persist_data=*/true);
  relink_mode_ = false;
  if (!written.ok()) {
    return written.status();
  }
  relink_pending_ = true;
  return offset;
}

vfs::IoResult SplitFs::Pwrite(ExecContext& ctx, int fd, const void* src, uint64_t len,
                              uint64_t offset) {
  ctx.clock.Advance(kUserPathNs);
  std::lock_guard<fscore::DomainMutex> guard(dram_mu_);
  Inode* inode = GetInodeByFd(fd);
  if (inode == nullptr) {
    return common::ErrorCode::kBadFd;
  }
  common::SimMutex::Guard file_guard(inode_locks_.LockFor(inode->ino), ctx);
  relink_mode_ = true;
  auto written = WriteDataInPlace(ctx, *inode, src, len, offset, /*persist_data=*/true);
  relink_mode_ = false;
  if (!written.ok()) {
    return written.status();
  }
  relink_pending_ = true;
  return *written;
}

void SplitFs::TxMetaWrite(ExecContext& ctx, vfs::InodeNum owner, uint64_t pm_offset,
                          const void* data, uint64_t len) {
  if (relink_mode_) {
    // User-level relink journal: a couple of cacheline writes, no JBD2.
    common::ProfileZone zone(ctx, common::ProfLayer::kJournal);
    device_->Store(ctx, pm_offset, data, len);
    device_->Clwb(ctx, pm_offset, len);
    device_->Fence(ctx);
    ctx.counters.journal_bytes += 128;
    ctx.clock.Advance(2 * device_->cost().pm_store_ns);
    return;
  }
  Ext4Dax::TxMetaWrite(ctx, owner, pm_offset, data, len);
}

Status SplitFs::FsyncImpl(ExecContext& ctx, Inode& inode) {
  if (relink_pending_) {
    relink_pending_ = false;
    // Relink: user-level journaled pointer swap, cheap and per-file.
    ctx.counters.journal_bytes += 192;
    ctx.clock.Advance(3 * device_->cost().pm_store_ns + device_->cost().sfence_ns);
  }
  // Namespace metadata (creates/unlinks) still rides ext4's JBD2.
  return Ext4Dax::FsyncImpl(ctx, inode);
}

}  // namespace splitfs
