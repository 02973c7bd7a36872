#include "src/fs/fscore/generic_fs.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

#include "src/common/prof_zone.h"
#include "src/obs/op_scope.h"

namespace fscore {

using common::ErrorCode;
using common::ExecContext;
using common::kBlockSize;
using common::kBlocksPerHugepage;
using common::Result;
using common::Status;
using vfs::InodeNum;
using vfs::kRootIno;

namespace {

// Yields the non-empty components of an absolute path ("/a//b/" -> a, b)
// as views into it.
class PathComponents {
 public:
  explicit PathComponents(std::string_view path) : path_(path) {}

  bool Next(std::string_view* part) {
    while (pos_ < path_.size()) {
      const size_t start = pos_;
      const size_t end = std::min(path_.find('/', start), path_.size());
      pos_ = end + 1;
      if (end > start) {
        *part = path_.substr(start, end - start);
        return true;
      }
    }
    return false;
  }

 private:
  std::string_view path_;
  size_t pos_ = 1;  // past the leading '/'
};

uint64_t Log2Ceil(uint64_t value) {
  uint64_t bits = 0;
  while ((1ull << bits) < value) {
    bits++;
  }
  return bits;
}

}  // namespace

GenericFs::GenericFs(pmem::PmemDevice* device, FsOptions options)
    : device_(device),
      options_(options),
      vfs_shared_(options.lock_domains),
      dram_mu_(options.lock_domains) {
  fds_.resize(4096);
  path_memos_.resize(dram_mu_.domains());
  inode_shards_ = std::vector<InodeShard>(dram_mu_.domains());
}

GenericFs::~GenericFs() = default;

void GenericFs::ChargeSyscall(ExecContext& ctx) {
  common::ProfileZone zone(ctx, common::ProfLayer::kVfs);
  ctx.clock.Advance(device_->cost().syscall_trap_ns);
  ctx.counters.syscall_count++;
  vfs_shared_.Charge(ctx);
}

void GenericFs::ChargeDirLookup(ExecContext& ctx, const Inode& dir) {
  // DRAM red-black-tree / hash index: O(log n) pointer chases.
  ctx.clock.Advance(30 * (1 + Log2Ceil(dir.dirents.size() + 2)));
}

uint64_t GenericFs::InodePmOffset(InodeNum ino) const {
  return inode_table_block_ * kBlockSize + ino * sizeof(PmInode);
}

Inode* GenericFs::GetInode(InodeNum ino) {
  return ino < inode_index_.size() ? inode_index_[ino].load(std::memory_order_acquire)
                                   : nullptr;
}

Inode* GenericFs::GetInodeByFd(int fd) {
  // A descriptor's slot is written only by that descriptor's own open and
  // close, so the thread using it reads it without table_mu_.
  if (fd < 0 || static_cast<size_t>(fd) >= fds_.size() || !fds_[fd].in_use) {
    return nullptr;
  }
  return GetInode(fds_[fd].ino);
}

FreeSpaceMap GenericFs::FullDataArea() const {
  FreeSpaceMap map;
  map.Release(data_start_block_, data_blocks_);
  return map;
}

Result<std::vector<Extent>> GenericFs::AllocBlocksProfiled(ExecContext& ctx, Inode& inode,
                                                           uint64_t nblocks,
                                                           AllocIntent intent) {
  common::ProfileZone zone(ctx, common::ProfLayer::kAllocator);
  return AllocBlocks(ctx, inode, nblocks, intent);
}

Result<vfs::FreeSpaceInfo> GenericFs::StatFs(ExecContext& ctx) {
  ChargeSyscall(ctx);
  obs::OpScope op_scope(ctx, "statfs");
  std::lock_guard<DomainMutex> guard(dram_mu_);
  if (!mounted_) {
    return ErrorCode::kBadFd;
  }
  return FreeSpace();
}

void GenericFs::SampleGauges(obs::GaugeSample& out) {
  std::lock_guard<DomainMutex> guard(dram_mu_);
  if (!mounted_) {
    return;  // nothing meaningful before Mount/after Unmount
  }
  const vfs::FreeSpaceInfo info = FreeSpace();
  out.Set("free_blocks", static_cast<double>(info.free_blocks));
  out.Set("free_aligned_extents", static_cast<double>(info.free_aligned_extents));
  out.Set("aligned_free_fraction", info.AlignedFreeFraction());
  out.Set("largest_free_run_blocks", static_cast<double>(info.largest_free_extent_blocks));
  out.Set("utilization", info.utilization());
  out.Set("dram_index_bytes", static_cast<double>(DramIndexBytes()));
}

void GenericFs::SetRunHistogramGauges(const FreeSpaceMap::RunLengthHistogram& hist,
                                      obs::GaugeSample& out) {
  out.Set("free_runs_lt_64k", static_cast<double>(hist.lt_16));
  out.Set("free_runs_64k_512k", static_cast<double>(hist.lt_128));
  out.Set("free_runs_512k_2m", static_cast<double>(hist.lt_512));
  out.Set("free_runs_ge_2m", static_cast<double>(hist.ge_512));
}

// --- Lifecycle --------------------------------------------------------------

Status GenericFs::Mkfs(ExecContext& ctx) {
  std::lock_guard<DomainMutex> guard(dram_mu_);
  total_blocks_ = device_->size() / kBlockSize;
  journal_start_block_ = 1;
  const uint64_t inode_blocks =
      (options_.max_inodes * sizeof(PmInode) + kBlockSize - 1) / kBlockSize;
  inode_table_block_ = journal_start_block_ + options_.journal_blocks;
  const uint64_t raw_data_start = inode_table_block_ + inode_blocks;
  data_start_block_ =
      common::RoundUp(raw_data_start, kBlocksPerHugepage) + options_.data_phase_blocks;
  if (data_start_block_ >= total_blocks_) {
    return Status(ErrorCode::kNoSpace);
  }
  data_blocks_ = total_blocks_ - data_start_block_;

  PmSuperblock sb;
  sb.magic = kSuperMagic;
  sb.total_blocks = total_blocks_;
  sb.data_start_block = data_start_block_;
  sb.inode_table_block = inode_table_block_;
  sb.max_inodes = options_.max_inodes;
  sb.journal_start_block = journal_start_block_;
  sb.journal_blocks = options_.journal_blocks;
  sb.num_cpus = options_.num_cpus;
  sb.clean_unmount = 0;
  device_->PersistStruct(ctx, 0, sb);
  // Backup copy in a different media block: one uncorrectable error cannot
  // lose the geometry. Only the immutable fields matter in the backup.
  device_->PersistStruct(ctx, kSuperBackupOffset, sb);

  // Zero the inode table so stale magics never resurface.
  device_->Zero(ctx, inode_table_block_ * kBlockSize, inode_blocks * kBlockSize);
  device_->Fence(ctx);

  ClearInodes();
  for (InodeNum ino = options_.max_inodes - 1; ino > kRootIno; ino--) {
    free_inos_.push_back(ino);
  }

  InitAllocator(data_start_block_, data_blocks_);

  // Root directory.
  auto root = std::make_unique<Inode>();
  root->ino = kRootIno;
  root->is_dir = true;
  root->nlink = 2;
  root_ = InsertInode(kRootIno, std::move(root));
  TxBegin(ctx);
  PersistInode(ctx, *root_);
  TxCommit(ctx);
  OnInodeCreated(ctx, *root_);

  mounted_ = true;
  return common::OkStatus();
}

Status GenericFs::Mount(ExecContext& ctx) {
  std::lock_guard<DomainMutex> guard(dram_mu_);
  const uint64_t t0 = ctx.clock.NowNs();
  auto primary = device_->TryLoadStruct<PmSuperblock>(ctx, 0);
  PmSuperblock sb;
  if (primary.ok() && primary->magic == kSuperMagic) {
    sb = *primary;
  } else {
    // Primary poisoned (kIoError) or invalid: fall back to the backup copy
    // and repair the primary — the rewrite re-ECCs the poisoned media block.
    auto backup = device_->TryLoadStruct<PmSuperblock>(ctx, kSuperBackupOffset);
    if (!backup.ok()) {
      return Status(ErrorCode::kIoError);
    }
    if (backup->magic != kSuperMagic) {
      // Neither copy is usable: refuse cleanly with the more specific code.
      return primary.ok() ? Status(ErrorCode::kCorrupt) : Status(ErrorCode::kIoError);
    }
    sb = *backup;
    sb.clean_unmount = 0;  // conservative: force full journal recovery
    // The repair must rewrite the whole 256 B media block to re-ECC it; the
    // superblock struct alone is smaller than the poison granularity.
    device_->Zero(ctx, 0, pmem::kMediaBlockBytes);
    device_->PersistStruct(ctx, 0, sb);
  }
  total_blocks_ = sb.total_blocks;
  data_start_block_ = sb.data_start_block;
  data_blocks_ = total_blocks_ - data_start_block_;
  inode_table_block_ = sb.inode_table_block;
  journal_start_block_ = sb.journal_start_block;
  options_.max_inodes = sb.max_inodes;
  options_.journal_blocks = sb.journal_blocks;
  options_.num_cpus = sb.num_cpus;
  mount_found_clean_ = sb.clean_unmount != 0;

  RETURN_IF_ERROR(RecoverJournal(ctx));
  RETURN_IF_ERROR(RebuildFromPm(ctx));

  // Mark the filesystem dirty while mounted.
  PmSuperblock dirty = sb;
  dirty.clean_unmount = 0;
  device_->PersistStruct(ctx, 0, dirty);

  const uint64_t elapsed = ctx.clock.NowNs() - t0;
  const uint32_t par = std::max<uint32_t>(1, RecoveryParallelism());
  last_mount_ns_ = elapsed / par;
  ctx.clock.SetNs(t0 + last_mount_ns_);
  mounted_ = true;
  return common::OkStatus();
}

Status GenericFs::Unmount(ExecContext& ctx) {
  std::lock_guard<DomainMutex> guard(dram_mu_);
  if (!mounted_) {
    return Status(ErrorCode::kInvalidArgument);
  }
  device_->Fence(ctx);
  PmSuperblock sb = device_->LoadStruct<PmSuperblock>(ctx, 0);
  sb.clean_unmount = 1;
  device_->PersistStruct(ctx, 0, sb);
  // Serializing the DRAM free lists is modeled as a streaming write
  // proportional to their footprint (§3.6 "written to PM on unmount").
  ctx.clock.Advance(device_->cost().SeqWriteBytes(DramIndexBytes() / 16));
  mounted_ = false;
  ClearInodes();
  for (auto& fd : fds_) {
    fd = FdEntry{};
  }
  return common::OkStatus();
}

// --- Mount-time rebuild ------------------------------------------------------

Status GenericFs::LoadInodeFromPm(ExecContext& ctx, const PmInode& pm, Inode& inode) {
  inode.ino = pm.ino;
  inode.is_dir = pm.is_dir != 0;
  inode.aligned_hint = pm.aligned_hint != 0;
  inode.size = pm.size;
  inode.nlink = pm.nlink;
  if (pm.xattr_len > 0) {
    inode.xattr.assign(pm.xattr, std::min<size_t>(pm.xattr_len, kInodeXattrBytes));
  }
  // Extent records are slotted: read every slot up to the highwater mark;
  // packed==0 slots are free (tombstones).
  inode.pm_slot_highwater = pm.extent_count;
  uint32_t slot = 0;
  auto take_record = [&](const PmExtent& ext) {
    if (ext.packed != 0) {
      inode.extents.Insert(ext.logical_block, ext.phys_block(), ext.len());
      inode.pm_slots[ext.logical_block] = {slot, ext.packed};
    } else {
      inode.pm_free_slots.push_back(slot);
    }
    slot++;
  };
  for (uint32_t i = 0; i < kInlineExtents && slot < pm.extent_count; i++) {
    take_record(pm.inline_extents[i]);
  }
  uint64_t indirect = pm.indirect_block;
  while (indirect != 0) {
    inode.pm_chain.push_back(indirect);
    PmIndirectBlock blk;
    RETURN_IF_ERROR(device_->Load(ctx, indirect * kBlockSize, &blk, sizeof(blk)));
    for (uint32_t i = 0; i < kExtentsPerIndirect && slot < pm.extent_count; i++) {
      take_record(blk.extents[i]);
    }
    indirect = blk.next_block;
  }
  return common::OkStatus();
}

Status GenericFs::RebuildFromPm(ExecContext& ctx) {
  ClearInodes();
  std::vector<Extent> used;

  for (InodeNum ino = options_.max_inodes - 1; ino > 0; ino--) {
    // A poisoned inode slot is unrecoverable metadata: refuse the mount with
    // EIO instead of silently treating the inode as free (which would leak
    // its blocks back into the allocator and corrupt live data).
    ASSIGN_OR_RETURN(PmInode pm, device_->TryLoadStruct<PmInode>(ctx, InodePmOffset(ino)));
    if (pm.magic != kInodeMagic) {
      if (ino != kRootIno) {
        free_inos_.push_back(ino);
      }
      continue;
    }
    auto inode = std::make_unique<Inode>();
    RETURN_IF_ERROR(LoadInodeFromPm(ctx, pm, *inode));
    // Indirect chain blocks are used space too.
    uint64_t indirect = pm.indirect_block;
    while (indirect != 0) {
      used.push_back(Extent{indirect, 1});
      PmIndirectBlock blk;
      RETURN_IF_ERROR(device_->Load(ctx, indirect * kBlockSize, &blk, sizeof(blk)));
      indirect = blk.next_block;
    }
    for (const auto& [logical, ext] : inode->extents.Entries()) {
      used.push_back(ext);
    }
    InsertInode(ino, std::move(inode));
  }
  root_ = GetInode(kRootIno);
  if (root_ == nullptr) {
    return Status(ErrorCode::kCorrupt);
  }

  // Second pass: directory entries (InsertInode put every inode in shard 0).
  for (auto& [ino, inode] : inode_shards_[0].inodes) {
    if (!inode->is_dir) {
      continue;
    }
    inode->dirent_capacity = inode->extents.MappedBlocks() * kDirentsPerBlock;
    for (const auto& [logical, ext] : inode->extents.Entries()) {
      for (uint64_t b = 0; b < ext.num_blocks; b++) {
        const uint64_t pm_off = (ext.phys_block + b) * kBlockSize;
        for (uint64_t d = 0; d < kDirentsPerBlock; d++) {
          ASSIGN_OR_RETURN(PmDirent de, device_->TryLoadStruct<PmDirent>(
                                            ctx, pm_off + d * sizeof(PmDirent)));
          const uint64_t slot = (logical + b) * kDirentsPerBlock + d;
          if (de.in_use != 0) {
            inode->dirents[std::string(de.name, de.name_len)] =
                Inode::DirentRef{de.ino, de.is_dir != 0, slot, GetInode(de.ino)};
          } else {
            inode->free_dirent_slots.push_back(slot);
          }
        }
      }
    }
  }

  CollectExtraUsed(ctx, used);

  FreeSpaceMap free_map = FullDataArea();
  for (const Extent& ext : used) {
    free_map.ReserveRange(ext.phys_block, ext.num_blocks);
  }
  RebuildAllocator(ctx, std::move(free_map));
  return common::OkStatus();
}

// --- Inode persistence --------------------------------------------------------

namespace {
std::vector<PmExtent> SerializeExtents(const Inode& inode) {
  std::vector<PmExtent> all;
  for (const auto& [logical, ext] : inode.extents.Entries()) {
    uint64_t done = 0;
    while (done < ext.num_blocks) {
      const uint64_t chunk = std::min(ext.num_blocks - done, kMaxExtentLen);
      all.push_back(PmExtent{logical + done, PmExtent::Pack(ext.phys_block + done, chunk)});
      done += chunk;
    }
  }
  return all;
}
}  // namespace

// PM offset of extent record `k`, growing the indirect chain when needed.
// Returns 0 on allocation failure (record dropped; recoverable via rebuild).
uint64_t GenericFs::ExtentRecordOffset(ExecContext& ctx, Inode& inode, size_t k) {
  if (k < kInlineExtents) {
    return InodePmOffset(inode.ino) + offsetof(PmInode, inline_extents) +
           k * sizeof(PmExtent);
  }
  const size_t idx = k - kInlineExtents;
  const size_t block_i = idx / kExtentsPerIndirect;
  const size_t slot = idx % kExtentsPerIndirect;
  while (inode.pm_chain.size() <= block_i) {
    auto alloc = AllocBlocksProfiled(ctx, inode, 1, AllocIntent::kMeta);
    if (!alloc.ok() || alloc->empty()) {
      return 0;
    }
    const uint64_t fresh = (*alloc)[0].phys_block;
    device_->Zero(ctx, fresh * kBlockSize, kBlockSize);
    if (!inode.pm_chain.empty()) {
      // Link from the previous block's next_block field.
      const uint64_t prev = inode.pm_chain.back();
      TxMetaWrite(ctx, inode.ino, prev * kBlockSize, &fresh, sizeof(fresh));
    }
    inode.pm_chain.push_back(fresh);
  }
  return inode.pm_chain[block_i] * kBlockSize + offsetof(PmIndirectBlock, extents) +
         slot * sizeof(PmExtent);
}

void GenericFs::PersistInode(ExecContext& ctx, Inode& inode) {
  const std::vector<PmExtent> all = SerializeExtents(inode);

  auto write_slot = [&](uint32_t slot, const PmExtent& record) {
    const uint64_t off = ExtentRecordOffset(ctx, inode, slot);
    if (off == 0) {
      return false;  // ENOSPC growing the chain; rebuild recovers the tail
    }
    TxMetaWrite(ctx, inode.ino, off, &record, sizeof(PmExtent));
    return true;
  };

  // Diff the live extent list against the slotted PM records by logical key.
  std::unordered_map<uint64_t, uint64_t> fresh;
  fresh.reserve(all.size());
  for (const PmExtent& ext : all) {
    fresh[ext.logical_block] = ext.packed;
  }
  // Tombstone records whose logical start disappeared.
  for (auto it = inode.pm_slots.begin(); it != inode.pm_slots.end();) {
    if (fresh.find(it->first) == fresh.end()) {
      const PmExtent dead{0, 0};
      if (write_slot(it->second.first, dead)) {
        inode.pm_free_slots.push_back(it->second.first);
      }
      it = inode.pm_slots.erase(it);
    } else {
      ++it;
    }
  }
  // Write new and changed records.
  for (const PmExtent& ext : all) {
    auto it = inode.pm_slots.find(ext.logical_block);
    if (it != inode.pm_slots.end()) {
      if (it->second.second != ext.packed) {
        if (write_slot(it->second.first, ext)) {
          it->second.second = ext.packed;
        }
      }
      continue;
    }
    uint32_t slot;
    if (!inode.pm_free_slots.empty()) {
      slot = inode.pm_free_slots.back();
      inode.pm_free_slots.pop_back();
    } else {
      slot = inode.pm_slot_highwater;
    }
    if (!write_slot(slot, ext)) {
      continue;
    }
    if (slot == inode.pm_slot_highwater) {
      inode.pm_slot_highwater++;
      // Keep the owning indirect block's population header current.
      if (slot >= kInlineExtents) {
        const size_t idx = slot - kInlineExtents;
        const size_t block_i = idx / kExtentsPerIndirect;
        uint64_t header[2];
        header[0] = block_i + 1 < inode.pm_chain.size() ? inode.pm_chain[block_i + 1] : 0;
        header[1] = idx % kExtentsPerIndirect + 1;  // count (low 32 bits)
        TxMetaWrite(ctx, inode.ino, inode.pm_chain[block_i] * kBlockSize, header,
                    sizeof(header));
      }
    }
    inode.pm_slots[ext.logical_block] = {slot, ext.packed};
  }

  // Inode header; xattr area only when present.
  PmInode pm;
  pm.magic = kInodeMagic;
  pm.is_dir = inode.is_dir ? 1 : 0;
  pm.aligned_hint = inode.aligned_hint ? 1 : 0;
  pm.ino = inode.ino;
  pm.size = inode.size;
  pm.nlink = inode.nlink;
  pm.extent_count = inode.pm_slot_highwater;
  pm.indirect_block = inode.pm_chain.empty() ? 0 : inode.pm_chain.front();
  pm.xattr_len = static_cast<uint16_t>(std::min<size_t>(inode.xattr.size(), kInodeXattrBytes));
  std::memcpy(pm.xattr, inode.xattr.data(), pm.xattr_len);
  TxMetaWrite(ctx, inode.ino, InodePmOffset(inode.ino), &pm, offsetof(PmInode, inline_extents));
  if (pm.xattr_len > 0) {
    TxMetaWrite(ctx, inode.ino, InodePmOffset(inode.ino) + offsetof(PmInode, xattr), pm.xattr,
                kInodeXattrBytes);
  }
}

void GenericFs::CommitInodeUpdate(ExecContext& ctx, Inode& inode) {
  TxBegin(ctx);
  PersistInode(ctx, inode);
  TxCommit(ctx);
}

// --- Path resolution ----------------------------------------------------------

Result<GenericFs::ResolveResult> GenericFs::Resolve(ExecContext& ctx, std::string_view path,
                                                    bool want_parent) {
  // Validate every component before charging anything: a malformed path
  // fails at no modeled cost.
  if (path.empty() || path[0] != '/') {
    return ErrorCode::kInvalidArgument;
  }
  size_t nparts = 0;
  std::string_view part;
  std::string_view leaf;
  for (PathComponents parts(path); parts.Next(&part);) {
    if (part.size() > kMaxNameLen) {
      return ErrorCode::kInvalidArgument;
    }
    nparts++;
    leaf = part;
  }
  ctx.clock.Advance(device_->cost().vfs_path_component_ns * (nparts + 1));

  ResolveResult out;
  Inode* current = root_;
  if (nparts == 0) {
    if (want_parent) {
      return ErrorCode::kInvalidArgument;  // cannot take parent of root
    }
    out.node = current;
    return out;
  }
  PathComponents parts(path);
  for (size_t i = 0; i + 1 < nparts; i++) {
    parts.Next(&part);
    ChargeDirLookup(ctx, *current);
    auto it = current->dirents.find(part);
    if (it == current->dirents.end()) {
      return ErrorCode::kNotFound;
    }
    if (!it->second.is_dir) {
      return ErrorCode::kNotDir;
    }
    current = it->second.inode;
    if (current == nullptr) {
      return ErrorCode::kCorrupt;
    }
  }
  out.parent = current;
  out.leaf = leaf;
  ChargeDirLookup(ctx, *current);
  auto it = current->dirents.find(leaf);
  if (it != current->dirents.end()) {
    out.node = it->second.inode;
  }
  return out;
}

// --- Dirent management ---------------------------------------------------------

uint64_t GenericFs::DirentPmOffset(Inode& dir, uint64_t slot) const {
  const uint64_t logical_block = slot / kDirentsPerBlock;
  auto mapping = dir.extents.Lookup(logical_block);
  assert(mapping.has_value());
  return mapping->phys_block * kBlockSize + (slot % kDirentsPerBlock) * sizeof(PmDirent);
}

Status GenericFs::AddDirent(ExecContext& ctx, Inode& dir, std::string_view name,
                            Inode& child) {
  if (dir.free_dirent_slots.empty()) {
    // Grow the directory by one block: a small, metadata-like allocation —
    // this is one of the fragmentation sources aging exposes.
    const uint64_t logical_block = dir.dirent_capacity / kDirentsPerBlock;
    auto alloc = AllocBlocksProfiled(ctx, dir, 1, AllocIntent::kDirData);
    if (!alloc.ok()) {
      return alloc.status();
    }
    assert(alloc->size() == 1 && (*alloc)[0].num_blocks == 1);
    dir.extents.Insert(logical_block, (*alloc)[0].phys_block, 1);
    device_->Zero(ctx, (*alloc)[0].phys_block * kBlockSize, kBlockSize);
    for (uint64_t s = 0; s < kDirentsPerBlock; s++) {
      dir.free_dirent_slots.push_back(dir.dirent_capacity + s);
    }
    dir.dirent_capacity += kDirentsPerBlock;
    PersistInode(ctx, dir);
  }
  const uint64_t slot = dir.free_dirent_slots.back();
  dir.free_dirent_slots.pop_back();

  PmDirent de;
  de.ino = child.ino;
  de.in_use = 1;
  de.is_dir = child.is_dir ? 1 : 0;
  de.SetName(name.data(), name.size());
  TxMetaWrite(ctx, dir.ino, DirentPmOffset(dir, slot), &de, sizeof(de));
  dir.dirents[std::string(name)] = Inode::DirentRef{child.ino, child.is_dir, slot, &child};
  return common::OkStatus();
}

Status GenericFs::RemoveDirent(ExecContext& ctx, Inode& dir, std::string_view name) {
  auto it = dir.dirents.find(name);
  if (it == dir.dirents.end()) {
    return Status(ErrorCode::kNotFound);
  }
  const uint64_t slot = it->second.slot;
  PmDirent empty;
  TxMetaWrite(ctx, dir.ino, DirentPmOffset(dir, slot), &empty, sizeof(empty));
  dir.free_dirent_slots.push_back(slot);
  dir.dirents.erase(it);
  return common::OkStatus();
}

// --- Inode table ---------------------------------------------------------------

Inode* GenericFs::InsertInode(InodeNum ino, std::unique_ptr<Inode> inode) {
  Inode* raw = inode.get();
  raw->shard = 0;
  inode_shards_[0].inodes[ino] = std::move(inode);
  inode_index_[ino].store(raw, std::memory_order_release);
  return raw;
}

void GenericFs::ClearInodes() {
  for (InodeShard& shard : inode_shards_) {
    shard.inodes.clear();
    shard.freed.clear();
  }
  free_inos_.clear();
  inode_index_ = std::vector<std::atomic<Inode*>>(options_.max_inodes);
  root_ = nullptr;
}

InodeNum GenericFs::TakeFreeIno(uint32_t home) {
  {
    std::lock_guard<common::SpinMutex> table_guard(table_mu_);
    if (!free_inos_.empty()) {
      const InodeNum ino = free_inos_.back();
      free_inos_.pop_back();
      return ino;
    }
  }
  for (size_t i = 1; i < inode_shards_.size(); i++) {
    InodeShard& other = inode_shards_[(home + i) % inode_shards_.size()];
    std::lock_guard<common::SpinMutex> guard(other.mu);
    if (!other.freed.empty()) {
      const InodeNum ino = other.freed.back();
      other.freed.pop_back();
      return ino;
    }
  }
  return 0;
}

Result<Inode*> GenericFs::AdoptInode(std::unique_ptr<Inode> inode, uint32_t cpu) {
  const uint32_t home = cpu % static_cast<uint32_t>(inode_shards_.size());
  InodeShard& shard = inode_shards_[home];
  InodeNum ino = 0;
  {
    std::lock_guard<common::SpinMutex> guard(shard.mu);
    if (!shard.freed.empty()) {
      ino = shard.freed.back();
      shard.freed.pop_back();
    }
  }
  if (ino == 0) {
    ino = TakeFreeIno(home);
  }
  if (ino == 0) {
    return ErrorCode::kNoSpace;
  }
  Inode* const raw = inode.get();
  raw->ino = ino;
  raw->shard = home;
  {
    std::lock_guard<common::SpinMutex> guard(shard.mu);
    shard.inodes[ino] = std::move(inode);
  }
  inode_index_[ino].store(raw, std::memory_order_release);
  return raw;
}

void GenericFs::DropInode(InodeNum ino, uint32_t cpu) {
  std::unique_ptr<Inode> dead;  // destroyed after the shard locks release
  if (Inode* const node = inode_index_[ino].exchange(nullptr); node != nullptr) {
    InodeShard& owner = inode_shards_[node->shard];
    std::lock_guard<common::SpinMutex> guard(owner.mu);
    auto it = owner.inodes.find(ino);
    dead = std::move(it->second);
    owner.inodes.erase(it);
  }
  InodeShard& home = inode_shards_[cpu % inode_shards_.size()];
  std::lock_guard<common::SpinMutex> guard(home.mu);
  home.freed.push_back(ino);
}

// --- Node creation/removal ------------------------------------------------------

Result<Inode*> GenericFs::CreateNode(ExecContext& ctx, Inode& parent, std::string_view name,
                                     bool is_dir) {
  auto inode = std::make_unique<Inode>();
  inode->is_dir = is_dir;
  inode->nlink = is_dir ? 2 : 1;
  // Inherit the directory-level alignment hint (§3.6).
  if (parent.aligned_hint && !is_dir) {
    inode->aligned_hint = true;
  }
  ASSIGN_OR_RETURN(Inode* const raw, AdoptInode(std::move(inode), ctx.cpu));

  TxBegin(ctx);
  PersistInode(ctx, *raw);
  const Status add = AddDirent(ctx, parent, name, *raw);
  if (!add.ok()) {
    TxCommit(ctx);
    DropInode(raw->ino, ctx.cpu);
    return add;
  }
  if (is_dir) {
    parent.nlink++;
    PersistInode(ctx, parent);
  }
  TxCommit(ctx);
  OnInodeCreated(ctx, *raw);
  return raw;
}

void GenericFs::FreeFileBlocks(ExecContext& ctx, Inode& inode, uint64_t from_block) {
  std::vector<Extent> freed = inode.extents.Remove(
      from_block, std::numeric_limits<uint64_t>::max() / 2 - from_block);
  if (!freed.empty()) {
    FreeBlocks(ctx, freed);
  }
}

Status GenericFs::RemoveNode(ExecContext& ctx, Inode& parent, std::string_view name,
                             bool expect_dir) {
  auto it = parent.dirents.find(name);
  if (it == parent.dirents.end()) {
    return Status(ErrorCode::kNotFound);
  }
  if (expect_dir && !it->second.is_dir) {
    return Status(ErrorCode::kNotDir);
  }
  if (!expect_dir && it->second.is_dir) {
    return Status(ErrorCode::kIsDir);
  }
  Inode* node = it->second.inode;
  if (node == nullptr) {
    return Status(ErrorCode::kCorrupt);
  }
  if (expect_dir && !node->dirents.empty()) {
    return Status(ErrorCode::kNotEmpty);
  }

  TxBegin(ctx);
  RETURN_IF_ERROR(RemoveDirent(ctx, parent, name));
  node->nlink -= expect_dir ? 2 : 1;
  if (expect_dir) {
    parent.nlink--;
    PersistInode(ctx, parent);
  }
  if (node->nlink == 0 || expect_dir) {
    OnInodeDeleted(ctx, *node);
    FreeFileBlocks(ctx, *node, 0);
    // Release the indirect chain. Addresses come from the DRAM mirror so a
    // poisoned chain block cannot stall the unlink; the charged loads model
    // the PM walk a real filesystem would do.
    PmInode pm = device_->LoadStruct<PmInode>(ctx, InodePmOffset(node->ino));
    (void)pm;
    std::vector<Extent> chain;
    for (uint64_t chain_block : node->pm_chain) {
      chain.push_back(Extent{chain_block, 1});
      PmIndirectBlock blk;
      (void)device_->Load(ctx, chain_block * kBlockSize, &blk, sizeof(blk));
    }
    if (!chain.empty()) {
      FreeBlocks(ctx, chain);
    }
    PmInode dead;
    TxMetaWrite(ctx, node->ino, InodePmOffset(node->ino), &dead, sizeof(dead));
    // Drop the inode's lock before its number returns to the free stack: a
    // host worker on another CPU may reuse the number at once, and its new
    // inode must get a fresh lock, not this one about to be destroyed.
    const InodeNum ino = node->ino;
    inode_locks_.Drop(ino);
    DropInode(ino, ctx.cpu);
  } else {
    PersistInode(ctx, *node);
  }
  TxCommit(ctx);
  return common::OkStatus();
}

// --- Namespace syscalls -----------------------------------------------------------

Result<int> GenericFs::Open(ExecContext& ctx, const std::string& path, vfs::OpenFlags flags) {
  ChargeSyscall(ctx);
  obs::OpScope op_scope(ctx, "open");
  DramStripeGuard guard(dram_mu_.Stripe(ctx.cpu));
  ASSIGN_OR_RETURN(ResolveResult res, Resolve(ctx, path, /*want_parent=*/true));
  Inode* node = res.node;
  if (node == nullptr) {
    if (!flags.create()) {
      return ErrorCode::kNotFound;
    }
    common::SimMutex::Guard dir_guard(inode_locks_.LockFor(res.parent->ino), ctx);
    ASSIGN_OR_RETURN(node, CreateNode(ctx, *res.parent, res.leaf, /*is_dir=*/false));
  } else {
    if (flags.create() && flags.exclusive()) {
      return ErrorCode::kExists;
    }
    if (node->is_dir) {
      return ErrorCode::kIsDir;
    }
    if (flags.truncate()) {
      common::SimMutex::Guard file_guard(inode_locks_.LockFor(node->ino), ctx);
      TxBegin(ctx);
      FreeFileBlocks(ctx, *node, 0);
      node->size = 0;
      PersistInode(ctx, *node);
      TxCommit(ctx);
    }
  }
  return ClaimFd(node->ino, flags.write());
}

Result<int> GenericFs::ClaimFd(InodeNum ino, bool write) {
  std::lock_guard<common::SpinMutex> table_guard(table_mu_);
  for (size_t fd = 0; fd < fds_.size(); fd++) {
    if (!fds_[fd].in_use) {
      fds_[fd] = FdEntry{ino, write, true};
      return static_cast<int>(fd);
    }
  }
  return ErrorCode::kNoSpace;
}

Status GenericFs::Close(ExecContext& ctx, int fd) {
  ChargeSyscall(ctx);
  obs::OpScope op_scope(ctx, "close");
  DramStripeGuard guard(dram_mu_.Stripe(ctx.cpu));
  return CloseHeld(fd);
}

Status GenericFs::CloseHeld(int fd) {
  std::lock_guard<common::SpinMutex> table_guard(table_mu_);
  if (fd < 0 || static_cast<size_t>(fd) >= fds_.size() || !fds_[fd].in_use) {
    return Status(ErrorCode::kBadFd);
  }
  fds_[fd] = FdEntry{};
  return common::OkStatus();
}

Status GenericFs::Mkdir(ExecContext& ctx, const std::string& path) {
  ChargeSyscall(ctx);
  obs::OpScope op_scope(ctx, "mkdir");
  DramStripeGuard guard(dram_mu_.Stripe(ctx.cpu));
  ASSIGN_OR_RETURN(ResolveResult res, Resolve(ctx, path, /*want_parent=*/true));
  if (res.node != nullptr) {
    return Status(ErrorCode::kExists);
  }
  common::SimMutex::Guard dir_guard(inode_locks_.LockFor(res.parent->ino), ctx);
  auto created = CreateNode(ctx, *res.parent, res.leaf, /*is_dir=*/true);
  return created.ok() ? common::OkStatus() : created.status();
}

Status GenericFs::Rmdir(ExecContext& ctx, const std::string& path) {
  ChargeSyscall(ctx);
  obs::OpScope op_scope(ctx, "rmdir");
  DramStripeGuard guard(dram_mu_.Stripe(ctx.cpu));
  ASSIGN_OR_RETURN(ResolveResult res, Resolve(ctx, path, /*want_parent=*/true));
  if (res.node == nullptr) {
    return Status(ErrorCode::kNotFound);
  }
  common::SimMutex::Guard dir_guard(inode_locks_.LockFor(res.parent->ino), ctx);
  return RemoveNode(ctx, *res.parent, res.leaf, /*expect_dir=*/true);
}

Status GenericFs::Unlink(ExecContext& ctx, const std::string& path) {
  ChargeSyscall(ctx);
  obs::OpScope op_scope(ctx, "unlink");
  DramStripeGuard guard(dram_mu_.Stripe(ctx.cpu));
  ASSIGN_OR_RETURN(ResolveResult res, Resolve(ctx, path, /*want_parent=*/true));
  if (res.node == nullptr) {
    return Status(ErrorCode::kNotFound);
  }
  common::SimMutex::Guard dir_guard(inode_locks_.LockFor(res.parent->ino), ctx);
  return RemoveNode(ctx, *res.parent, res.leaf, /*expect_dir=*/false);
}

Status GenericFs::Rename(ExecContext& ctx, const std::string& from, const std::string& to) {
  ChargeSyscall(ctx);
  obs::OpScope op_scope(ctx, "rename");
  DramStripeGuard guard(dram_mu_.Stripe(ctx.cpu));
  ASSIGN_OR_RETURN(ResolveResult src, Resolve(ctx, from, /*want_parent=*/true));
  if (src.node == nullptr) {
    return Status(ErrorCode::kNotFound);
  }
  ASSIGN_OR_RETURN(ResolveResult dst, Resolve(ctx, to, /*want_parent=*/true));

  common::SimMutex::Guard src_guard(inode_locks_.LockFor(src.parent->ino), ctx);
  if (dst.node != nullptr) {
    // Overwrite: target must be a file (or an empty dir when moving a dir).
    if (dst.node->is_dir != src.node->is_dir) {
      return Status(dst.node->is_dir ? ErrorCode::kIsDir : ErrorCode::kNotDir);
    }
    if (dst.node->is_dir && !dst.node->dirents.empty()) {
      return Status(ErrorCode::kNotEmpty);
    }
  }
  // One transaction covers the whole rename, including removing the
  // overwritten target — a crash must never expose the target missing
  // without the source having moved (POSIX rename atomicity).
  TxBegin(ctx);
  if (dst.node != nullptr) {
    const Status removed = RemoveNode(ctx, *dst.parent, dst.leaf, dst.node->is_dir);
    if (!removed.ok()) {
      TxCommit(ctx);
      return removed;
    }
  }
  const bool is_dir = src.node->is_dir;
  Status step = RemoveDirent(ctx, *src.parent, src.leaf);
  if (step.ok()) {
    step = AddDirent(ctx, *dst.parent, dst.leaf, *src.node);
  }
  if (!step.ok()) {
    TxCommit(ctx);
    return step;
  }
  if (is_dir && src.parent != dst.parent) {
    src.parent->nlink--;
    dst.parent->nlink++;
    PersistInode(ctx, *src.parent);
    PersistInode(ctx, *dst.parent);
  }
  TxCommit(ctx);
  return common::OkStatus();
}

Result<vfs::StatInfo> GenericFs::Stat(ExecContext& ctx, const std::string& path) {
  ChargeSyscall(ctx);
  obs::OpScope op_scope(ctx, "stat");
  DramStripeGuard guard(dram_mu_.Stripe(ctx.cpu));
  auto res = path == "/" ? Resolve(ctx, path, false) : Resolve(ctx, path, true);
  if (!res.ok()) {
    return res.status();
  }
  if (res->node == nullptr) {
    return ErrorCode::kNotFound;
  }
  return StatOf(*res->node);
}

vfs::StatInfo GenericFs::StatOf(const Inode& node) {
  vfs::StatInfo info;
  info.ino = node.ino;
  info.size = node.size;
  info.blocks = node.extents.MappedBlocks();
  info.nlink = node.nlink;
  info.is_dir = node.is_dir;
  return info;
}

Result<std::vector<vfs::DirEntry>> GenericFs::ReadDir(ExecContext& ctx,
                                                      const std::string& path) {
  ChargeSyscall(ctx);
  obs::OpScope op_scope(ctx, "readdir");
  DramStripeGuard guard(dram_mu_.Stripe(ctx.cpu));
  auto res = path == "/" ? Resolve(ctx, path, false) : Resolve(ctx, path, true);
  if (!res.ok()) {
    return res.status();
  }
  if (res->node == nullptr) {
    return ErrorCode::kNotFound;
  }
  if (!res->node->is_dir) {
    return ErrorCode::kNotDir;
  }
  std::vector<vfs::DirEntry> entries;
  entries.reserve(res->node->dirents.size());
  for (const auto& [name, ref] : res->node->dirents) {
    entries.push_back(vfs::DirEntry{name, ref.ino, ref.is_dir});
    // Reading each entry touches one PM dirent line.
    ctx.clock.Advance(device_->cost().pm_load_seq_ns);
  }
  return entries;
}

// --- Data path --------------------------------------------------------------------

Result<uint64_t> GenericFs::EnsureBlocks(ExecContext& ctx, Inode& inode, uint64_t offset,
                                         uint64_t len, AllocIntent intent,
                                         bool persist_inode) {
  if (len == 0) {
    return uint64_t{0};
  }
  uint64_t first_block = offset / kBlockSize;
  uint64_t last_block = (offset + len - 1) / kBlockSize;
  // Files carrying the alignment xattr hint get whole aligned chunks even for
  // small writes (§3.6: rsync-style small-allocation copies keep alignment).
  if (inode.aligned_hint && intent == AllocIntent::kFileData) {
    first_block = common::RoundDown(first_block, kBlocksPerHugepage);
    last_block = common::RoundDown(last_block, kBlocksPerHugepage) + kBlocksPerHugepage - 1;
  }

  uint64_t newly_allocated = 0;
  uint64_t block = first_block;
  bool meta_dirty = false;
  while (block <= last_block) {
    auto mapping = inode.extents.Lookup(block);
    if (mapping.has_value()) {
      block += mapping->contiguous_blocks;
      continue;
    }
    // Find the end of this hole.
    uint64_t hole_end = block + 1;
    while (hole_end <= last_block && !inode.extents.Lookup(hole_end).has_value()) {
      hole_end++;
    }
    const uint64_t need = hole_end - block;
    auto alloc = AllocBlocksProfiled(ctx, inode, need, intent);
    if (!alloc.ok()) {
      return alloc.status();
    }
    uint64_t logical = block;
    for (const Extent& ext : *alloc) {
      inode.extents.Insert(logical, ext.phys_block, ext.num_blocks);
      if (!ZeroOnFault()) {
        // Zero-at-allocation filesystems (NOVA) pay the cost here.
        device_->Zero(ctx, ext.phys_block * kBlockSize, ext.num_blocks * kBlockSize);
      } else {
        // Zero-on-fault filesystems mark these extents unwritten and return
        // zeros for reads until a fault (or write) converts them; the real FS
        // writes no bytes here. Shadow that guarantee by scrubbing the
        // recycled bytes cost-free — the zeroing cost is charged at fault
        // time (§5.4), and reads must never see a previous file's data.
        device_->ScrubUncharged(ext.phys_block * kBlockSize, ext.num_blocks * kBlockSize);
      }
      logical += ext.num_blocks;
      newly_allocated += ext.num_blocks;
    }
    meta_dirty = true;
    block = hole_end;
  }
  if (meta_dirty && persist_inode) {
    TxBegin(ctx);
    PersistInode(ctx, inode);
    TxCommit(ctx);
  }
  return newly_allocated;
}

Result<uint64_t> GenericFs::WriteDataInPlace(ExecContext& ctx, Inode& inode, const void* src,
                                             uint64_t len, uint64_t offset, bool persist_data) {
  auto ensured = EnsureBlocks(ctx, inode, offset, len, AllocIntent::kFileData,
                              /*persist_inode=*/false);
  if (!ensured.ok()) {
    return ensured.status();
  }
  const uint8_t* cursor = static_cast<const uint8_t*>(src);
  uint64_t remaining = len;
  uint64_t pos = offset;
  while (remaining > 0) {
    const uint64_t block = pos / kBlockSize;
    auto mapping = inode.extents.Lookup(block);
    assert(mapping.has_value());
    const uint64_t in_block = pos % kBlockSize;
    const uint64_t run_bytes = mapping->contiguous_blocks * kBlockSize - in_block;
    const uint64_t chunk = std::min(remaining, run_bytes);
    device_->NtStore(ctx, mapping->phys_block * kBlockSize + in_block, cursor, chunk);
    cursor += chunk;
    pos += chunk;
    remaining -= chunk;
  }
  if (persist_data) {
    device_->Fence(ctx);
  }
  const bool grew = offset + len > inode.size;
  if (grew) {
    inode.size = offset + len;
  }
  if (grew || *ensured > 0) {
    // One journal transaction covers the size update and any extent growth.
    CommitInodeUpdate(ctx, inode);
  }
  return len;
}

Result<uint64_t> GenericFs::WriteDataAtomic(ExecContext& ctx, Inode& inode, const void* src,
                                            uint64_t len, uint64_t offset) {
  // Default: in-place, durable but not atomic (used by relaxed-mode FSs that
  // are asked for a durable write; strict FSs override).
  return WriteDataInPlace(ctx, inode, src, len, offset, /*persist_data=*/true);
}

vfs::IoResult GenericFs::Pwrite(ExecContext& ctx, int fd, const void* src, uint64_t len,
                                uint64_t offset) {
  ChargeSyscall(ctx);
  obs::OpScope op_scope(ctx, "pwrite");
  DramStripeGuard guard(dram_mu_.Stripe(ctx.cpu));
  Inode* inode = GetInodeByFd(fd);
  if (inode == nullptr) {
    return ErrorCode::kBadFd;
  }
  if (!fds_[fd].write) {
    return ErrorCode::kInvalidArgument;
  }
  common::SimMutex::Guard file_guard(inode_locks_.LockFor(inode->ino), ctx);
  if (options_.mode == vfs::GuaranteeMode::kStrict) {
    return WriteDataAtomic(ctx, *inode, src, len, offset);
  }
  return WriteDataInPlace(ctx, *inode, src, len, offset, /*persist_data=*/false);
}

vfs::IoResult GenericFs::Append(ExecContext& ctx, int fd, const void* src, uint64_t len) {
  ChargeSyscall(ctx);
  obs::OpScope op_scope(ctx, "append");
  DramStripeGuard guard(dram_mu_.Stripe(ctx.cpu));
  Inode* inode = GetInodeByFd(fd);
  if (inode == nullptr) {
    return ErrorCode::kBadFd;
  }
  common::SimMutex::Guard file_guard(inode_locks_.LockFor(inode->ino), ctx);
  const uint64_t offset = inode->size;
  if (options_.mode == vfs::GuaranteeMode::kStrict) {
    auto written = WriteDataAtomic(ctx, *inode, src, len, offset);
    if (!written.ok()) {
      return written.status();
    }
    return offset;
  }
  auto written = WriteDataInPlace(ctx, *inode, src, len, offset, /*persist_data=*/false);
  if (!written.ok()) {
    return written.status();
  }
  return offset;
}

vfs::IoResult GenericFs::Pread(ExecContext& ctx, int fd, void* dst, uint64_t len,
                               uint64_t offset) {
  ChargeSyscall(ctx);
  obs::OpScope op_scope(ctx, "pread");
  DramStripeGuard guard(dram_mu_.Stripe(ctx.cpu));
  return PreadHeld(ctx, fd, dst, len, offset);
}

vfs::IoResult GenericFs::PreadHeld(ExecContext& ctx, int fd, void* dst, uint64_t len,
                                   uint64_t offset) {
  Inode* inode = GetInodeByFd(fd);
  if (inode == nullptr) {
    return ErrorCode::kBadFd;
  }
  if (offset >= inode->size) {
    return uint64_t{0};
  }
  len = std::min(len, inode->size - offset);
  uint8_t* cursor = static_cast<uint8_t*>(dst);
  uint64_t remaining = len;
  uint64_t pos = offset;
  while (remaining > 0) {
    const uint64_t block = pos / kBlockSize;
    const uint64_t in_block = pos % kBlockSize;
    auto mapping = inode->extents.Lookup(block);
    uint64_t chunk;
    if (mapping.has_value()) {
      const uint64_t run_bytes = mapping->contiguous_blocks * kBlockSize - in_block;
      chunk = std::min(remaining, run_bytes);
      const Status load =
          device_->Load(ctx, mapping->phys_block * kBlockSize + in_block, cursor, chunk);
      if (!load.ok()) {
        // POSIX short read: report the bytes successfully delivered before the
        // poisoned line alongside the error.
        return vfs::IoResult::Partial(pos - offset, load);
      }
    } else {
      chunk = std::min(remaining, kBlockSize - in_block);
      std::memset(cursor, 0, chunk);  // hole reads as zeros
    }
    cursor += chunk;
    pos += chunk;
    remaining -= chunk;
  }
  return len;
}

Status GenericFs::Fsync(ExecContext& ctx, int fd) {
  ChargeSyscall(ctx);
  obs::OpScope op_scope(ctx, "fsync");
  DramStripeGuard guard(dram_mu_.Stripe(ctx.cpu));
  return FsyncHeld(ctx, fd);
}

Status GenericFs::FsyncHeld(ExecContext& ctx, int fd) {
  Inode* inode = GetInodeByFd(fd);
  if (inode == nullptr) {
    return Status(ErrorCode::kBadFd);
  }
  ctx.counters.fsync_count++;
  common::SimMutex::Guard file_guard(inode_locks_.LockFor(inode->ino), ctx);
  RETURN_IF_ERROR(FsyncImpl(ctx, *inode));
  device_->Fence(ctx);
  return common::OkStatus();
}

Status GenericFs::Fallocate(ExecContext& ctx, int fd, uint64_t offset, uint64_t len) {
  ChargeSyscall(ctx);
  obs::OpScope op_scope(ctx, "fallocate");
  DramStripeGuard guard(dram_mu_.Stripe(ctx.cpu));
  Inode* inode = GetInodeByFd(fd);
  if (inode == nullptr) {
    return Status(ErrorCode::kBadFd);
  }
  common::SimMutex::Guard file_guard(inode_locks_.LockFor(inode->ino), ctx);
  auto ensured = EnsureBlocks(ctx, *inode, offset, len, AllocIntent::kFileData,
                              /*persist_inode=*/false);
  if (!ensured.ok()) {
    return ensured.status();
  }
  if (offset + len > inode->size) {
    inode->size = offset + len;
  }
  if (*ensured > 0 || offset + len >= inode->size) {
    CommitInodeUpdate(ctx, *inode);
  }
  return common::OkStatus();
}

Status GenericFs::Ftruncate(ExecContext& ctx, int fd, uint64_t size) {
  ChargeSyscall(ctx);
  obs::OpScope op_scope(ctx, "ftruncate");
  DramStripeGuard guard(dram_mu_.Stripe(ctx.cpu));
  Inode* inode = GetInodeByFd(fd);
  if (inode == nullptr) {
    return Status(ErrorCode::kBadFd);
  }
  common::SimMutex::Guard file_guard(inode_locks_.LockFor(inode->ino), ctx);
  if (size < inode->size) {
    TxBegin(ctx);
    FreeFileBlocks(ctx, *inode, common::BytesToBlocks(size));
    // POSIX: bytes past the new EOF must read back as zeros if the file later
    // grows again. Whole blocks were just freed, but the retained partial
    // tail block still carries stale bytes — scrub them through the journaled
    // write path so a crash mid-truncate can still roll the old tail back.
    const uint64_t tail = size % kBlockSize;
    if (tail != 0 && size < inode->size) {
      auto mapping = inode->extents.Lookup(size / kBlockSize);
      if (mapping.has_value()) {
        const uint64_t scrub = std::min(kBlockSize - tail, inode->size - size);
        const std::vector<uint8_t> zeros(scrub, 0);
        TxMetaWrite(ctx, inode->ino, mapping->phys_block * kBlockSize + tail, zeros.data(),
                    scrub);
      }
    }
    inode->size = size;
    PersistInode(ctx, *inode);
    TxCommit(ctx);
  } else if (size > inode->size) {
    // Sparse grow: no allocation (LMDB's on-demand style).
    inode->size = size;
    CommitInodeUpdate(ctx, *inode);
  }
  return common::OkStatus();
}

// --- xattr -------------------------------------------------------------------------

Status GenericFs::SetXattr(ExecContext& ctx, const std::string& path, const std::string& name,
                           const std::string& value) {
  ChargeSyscall(ctx);
  obs::OpScope op_scope(ctx, "setxattr");
  DramStripeGuard guard(dram_mu_.Stripe(ctx.cpu));
  ASSIGN_OR_RETURN(ResolveResult res, Resolve(ctx, path, /*want_parent=*/true));
  if (res.node == nullptr) {
    return Status(ErrorCode::kNotFound);
  }
  const std::string serialized = name + "=" + value;
  if (serialized.size() > kInodeXattrBytes) {
    return Status(ErrorCode::kInvalidArgument);
  }
  res.node->xattr = serialized;
  if (name == "user.winefs.aligned") {
    res.node->aligned_hint = (value == "1");
  }
  CommitInodeUpdate(ctx, *res.node);
  return common::OkStatus();
}

Result<std::string> GenericFs::GetXattr(ExecContext& ctx, const std::string& path,
                                        const std::string& name) {
  ChargeSyscall(ctx);
  obs::OpScope op_scope(ctx, "getxattr");
  DramStripeGuard guard(dram_mu_.Stripe(ctx.cpu));
  ASSIGN_OR_RETURN(ResolveResult res, Resolve(ctx, path, /*want_parent=*/true));
  if (res.node == nullptr) {
    return ErrorCode::kNotFound;
  }
  const size_t eq = res.node->xattr.find('=');
  if (eq == std::string::npos || res.node->xattr.substr(0, eq) != name) {
    return ErrorCode::kNoData;
  }
  return res.node->xattr.substr(eq + 1);
}

// --- mmap --------------------------------------------------------------------------

Result<InodeNum> GenericFs::InodeOf(ExecContext& ctx, int fd) {
  (void)ctx;
  DramStripeGuard guard(dram_mu_.Stripe(ctx.cpu));
  Inode* inode = GetInodeByFd(fd);
  if (inode == nullptr) {
    return ErrorCode::kBadFd;
  }
  return inode->ino;
}

Result<uint64_t> GenericFs::SizeOf(ExecContext& ctx, int fd) {
  (void)ctx;
  DramStripeGuard guard(dram_mu_.Stripe(ctx.cpu));
  Inode* inode = GetInodeByFd(fd);
  if (inode == nullptr) {
    return ErrorCode::kBadFd;
  }
  return inode->size;
}

Result<vmem::FaultHandler::FaultMapping> GenericFs::HandleFault(ExecContext& ctx, uint64_t ino,
                                                                uint64_t page_offset,
                                                                bool write) {
  DramStripeGuard guard(dram_mu_.Stripe(ctx.cpu));
  Inode* inode = GetInode(ino);
  if (inode == nullptr) {
    return ErrorCode::kNotFound;
  }
  const uint64_t chunk_offset = common::RoundDown(page_offset, common::kHugepageSize);
  const uint64_t chunk_block = chunk_offset / kBlockSize;

  // Hugepage mapping requires the whole 2 MiB chunk inside i_size.
  if (chunk_offset + common::kHugepageSize <= common::RoundUp(inode->size, kBlockSize)) {
    auto mapping = inode->extents.Lookup(chunk_block);
    if (mapping.has_value() && mapping->contiguous_blocks >= kBlocksPerHugepage &&
        common::IsAligned(mapping->phys_block, kBlocksPerHugepage)) {
      if (ZeroOnFault() && inode->zeroed_chunks.insert(chunk_block).second) {
        // Zero-on-fault filesystems (ext4-DAX) zero fallocate's unwritten
        // extents in the fault handler — the whole 2 MiB on a PMD fault.
        // Cost-only: the bytes may already hold syscall-written data that a
        // real FS would know is not "unwritten".
        ctx.clock.Advance(device_->cost().SeqWriteBytes(common::kHugepageSize));
        ctx.counters.pm_write_bytes += common::kHugepageSize;
      }
      return FaultMapping{mapping->phys_block * kBlockSize, /*huge=*/true};
    }
    if (!mapping.has_value() && write && AllocatesHugeOnFault()) {
      // Hugepage-allocating fault (WineFS): ask for the whole chunk at once.
      auto alloc = AllocBlocksProfiled(ctx, *inode, kBlocksPerHugepage, AllocIntent::kFileData);
      if (alloc.ok() && alloc->size() == 1 && (*alloc)[0].IsAligned()) {
        const Extent ext = (*alloc)[0];
        inode->extents.Insert(chunk_block, ext.phys_block, ext.num_blocks);
        device_->Zero(ctx, ext.phys_block * kBlockSize, common::kHugepageSize);
        CommitInodeUpdate(ctx, *inode);
        return FaultMapping{ext.phys_block * kBlockSize, /*huge=*/true};
      }
      if (alloc.ok()) {
        // Could not get an aligned chunk; keep the blocks for base mappings.
        uint64_t logical = chunk_block;
        for (const Extent& ext : *alloc) {
          inode->extents.Insert(logical, ext.phys_block, ext.num_blocks);
          device_->Zero(ctx, ext.phys_block * kBlockSize, ext.num_blocks * kBlockSize);
          logical += ext.num_blocks;
        }
        CommitInodeUpdate(ctx, *inode);
      }
    }
  }

  // Base page path.
  const uint64_t page_block = page_offset / kBlockSize;
  auto mapping = inode->extents.Lookup(page_block);
  bool fresh = false;
  if (!mapping.has_value()) {
    if (page_offset >= common::RoundUp(inode->size, kBlockSize)) {
      return ErrorCode::kInvalidArgument;  // beyond EOF: SIGBUS
    }
    auto alloc = AllocBlocksProfiled(ctx, *inode, 1, AllocIntent::kFileData);
    if (!alloc.ok()) {
      return alloc.status();
    }
    inode->extents.Insert(page_block, (*alloc)[0].phys_block, 1);
    if (!ZeroOnFault()) {
      device_->Zero(ctx, (*alloc)[0].phys_block * kBlockSize, kBlockSize);
    }
    CommitInodeUpdate(ctx, *inode);
    mapping = inode->extents.Lookup(page_block);
    fresh = true;
  }
  if (ZeroOnFault()) {
    // ext4-DAX-style: zeroing happens in the fault handler, for fresh blocks
    // and for fallocate's unwritten extents alike (paper §5.4: this is what
    // makes ext4-DAX page faults more expensive than NOVA's). Real zeroing
    // only for fresh blocks; unwritten-extent zeroing is cost-only.
    if (fresh) {
      device_->Zero(ctx, mapping->phys_block * kBlockSize, kBlockSize);
    } else {
      ctx.clock.Advance(device_->cost().zero_4k_ns);
      ctx.counters.pm_write_bytes += kBlockSize;
    }
  }
  (void)write;
  return FaultMapping{mapping->phys_block * kBlockSize, /*huge=*/false};
}

// --- Introspection --------------------------------------------------------------------

uint64_t GenericFs::DramIndexBytes() const {
  std::lock_guard<DomainMutex> guard(dram_mu_);
  uint64_t bytes = 0;
  ForEachInode([&bytes](const Inode& inode) {
    bytes += 128;  // base inode object
    bytes += inode.dirents.size() * 64;
    bytes += inode.extents.FragmentCount() * 48;
  });
  uint64_t free_inos = free_inos_.size();
  for (const InodeShard& shard : inode_shards_) {
    free_inos += shard.freed.size();
  }
  bytes += free_inos * 8;
  return bytes;
}

const Inode* GenericFs::FindInode(InodeNum ino) const {
  std::lock_guard<DomainMutex> guard(dram_mu_);
  return ino < inode_index_.size() ? inode_index_[ino].load(std::memory_order_acquire)
                                   : nullptr;
}

}  // namespace fscore
