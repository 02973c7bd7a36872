// ExecuteBatchNative: the batched engine shared by filesystems that opt into
// native batching (WineFS, the ext4-DAX family).
//
// The engine runs a batch under one hold of the caller's dram_mu_ stripe and
// a per-call memo of resolved paths. Stat and plain open resolve through the
// memo and then share the scalar calls' StatInfo fill and fd-table claim;
// close, pread and fsync charge the syscall, open the op scope and call the
// scalar bodies (CloseHeld/PreadHeld/FsyncHeld); every other kind goes to
// FileSystem::DispatchScalarOp.
// So the engine differs from the scalar loop only by the single stripe hold
// and the memo. The contract is absolute: every simulated charge (clock
// advances, counters, SimMutex acquisitions, device traffic) is issued
// exactly as the scalar virtuals would issue it, in the same order. A path
// seen for the first time goes through the same Resolve walker the scalar
// syscalls use.
//
// Memo coherence rules:
//   - The memo lives for one ExecuteBatchNative call; its storage belongs to
//     the caller's dram_mu_ stripe and is reused by the next call.
//   - Any scalar-dispatched namespace mutation (open-create/trunc, unlink,
//     rename, mkdir, rmdir) clears it — inode pointers may have died and
//     dirent sets changed.
//   - Data-plane scalar ops (pwrite/append/ftruncate/fallocate) do not clear
//     it: Inode objects are owned by unique_ptr (stable addresses) and only
//     the namespace ops above erase them.
//   - A failed resolve is never memoized, so retries re-charge exactly like
//     the scalar loop's partial-resolve error paths.
#include <algorithm>
#include <cstring>
#include <string_view>
#include <vector>

#include "src/fs/fscore/generic_fs.h"
#include "src/obs/op_scope.h"
#include "src/vfs/op_batch.h"

namespace fscore {

using common::ErrorCode;
using common::ExecContext;
using common::Status;

// Path hash for the memo. Deep-tree paths share long prefixes and often
// differ in a single byte, so every 8-byte word counts, each weighted by an
// odd multiplier that grows with its position (a one-word difference always
// changes the sum; reordered words almost always do). The multiplies do not
// depend on one another, so they pipeline.
uint64_t GenericFs::PathMemo::Hash(std::string_view path) {
  uint64_t sum = path.size();
  uint64_t weight = 1;
  size_t i = 0;
  for (; i + 8 <= path.size(); i += 8, weight += 2) {
    uint64_t word;
    std::memcpy(&word, path.data() + i, 8);
    sum += word * weight;
  }
  uint64_t tail = 0;
  std::memcpy(&tail, path.data() + i, path.size() - i);
  sum += tail * weight;
  // fmix64 (MurmurHash3's finalizer): spreads the sum into the low bits the
  // slot index uses.
  sum ^= sum >> 33;
  sum *= 0xff51afd7ed558ccdull;
  sum ^= sum >> 33;
  sum *= 0xc4ceb9fe1a85ec53ull;
  sum ^= sum >> 33;
  return sum;
}

const GenericFs::PathMemo::Row* GenericFs::PathMemo::Find(std::string_view path,
                                                          uint64_t hash) const {
  if (slots_.empty()) {
    return nullptr;
  }
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask; slots_[i].epoch == epoch_; i = (i + 1) & mask) {
    const Row& row = rows_[slots_[i].row];
    if (row.hash == hash && row.path == path) {
      return &row;
    }
  }
  return nullptr;
}

void GenericFs::PathMemo::Insert(const Row& row) {
  rows_.push_back(row);
  if (rows_.size() * 2 > slots_.size()) {
    Rehash(std::max<size_t>(64, slots_.size() * 2));
  } else {
    Place(static_cast<uint32_t>(rows_.size() - 1));
  }
}

void GenericFs::PathMemo::Rehash(size_t slot_count) {
  slots_.assign(slot_count, Slot{});
  epoch_ = 1;
  for (size_t r = 0; r < rows_.size(); r++) {
    Place(static_cast<uint32_t>(r));
  }
}

void GenericFs::PathMemo::Place(uint32_t row) {
  const size_t mask = slots_.size() - 1;
  size_t i = rows_[row].hash & mask;
  while (slots_[i].epoch == epoch_) {
    i = (i + 1) & mask;
  }
  slots_[i] = Slot{epoch_, row};
}

void GenericFs::PathMemo::Clear() {
  rows_.clear();
  deltas.clear();
  if (++epoch_ == 0) {  // wrapped: stale slots would read as live
    std::fill(slots_.begin(), slots_.end(), Slot{});
    epoch_ = 1;
  }
}

void GenericFs::ExecuteBatchNative(ExecContext& ctx, const vfs::OpBatch& batch,
                                   std::vector<vfs::OpResult>& results) {
  results.clear();
  results.resize(batch.size());
  // One host-lock round trip for the whole batch (the stripe is recursive, so
  // scalar-dispatched ops re-entering the public virtuals still work; those
  // re-lock the SAME stripe since they run under the same ctx.cpu).
  DramStripeGuard guard(dram_mu_.Stripe(ctx.cpu));
  PathMemo& memo = path_memos_[ctx.cpu % path_memos_.size()];
  memo.Clear();

  // Resolve(want_parent=true) of an existing path, memoized. A hit replays
  // the first resolve's charges (one clock advance + sparse counter deltas)
  // without touching any dirent map or virtual dispatch; that is exact
  // because ChargeDirLookup is contractually a pure function of the
  // directory's state (generic_fs.h), and every op that can change that
  // state clears the memo.
  const auto resolve = [&](const std::string& path, Status* status) -> Inode* {
    const uint64_t hash = PathMemo::Hash(path);
    if (const PathMemo::Row* row = memo.Find(path, hash); row != nullptr) {
      ctx.clock.Advance(row->charge_ns);
      for (uint32_t i = 0; i < row->delta_count; i++) {
        const PathMemo::Delta& delta = memo.deltas[row->delta_begin + i];
        ctx.counters.*common::kCounterFields[delta.field].member += delta.value;
      }
      *status = common::OkStatus();
      return row->node;
    }
    const uint64_t charge_start_ns = ctx.clock.NowNs();
    const common::PerfCounters counters_before = ctx.counters;
    auto resolved = Resolve(ctx, path, /*want_parent=*/true);
    if (!resolved.ok() || resolved->node == nullptr) {
      *status = resolved.ok() ? Status(ErrorCode::kNotFound) : resolved.status();
      return nullptr;
    }
    PathMemo::Row row;
    row.path = path;
    row.hash = hash;
    row.node = resolved->node;
    row.charge_ns = ctx.clock.NowNs() - charge_start_ns;
    row.delta_begin = static_cast<uint32_t>(memo.deltas.size());
    for (size_t f = 0; f < common::kNumCounterFields; f++) {
      const auto member = common::kCounterFields[f].member;
      if (const uint64_t delta = ctx.counters.*member - counters_before.*member; delta != 0) {
        memo.deltas.push_back(PathMemo::Delta{static_cast<uint8_t>(f), delta});
        row.delta_count++;
      }
    }
    memo.Insert(row);
    *status = common::OkStatus();
    return row.node;
  };

  const std::vector<vfs::Op>& ops = batch.ops();
  for (size_t i = 0; i < ops.size(); i++) {
    const vfs::Op& op = ops[i];
    vfs::OpResult& out = results[i];
    switch (op.kind) {
      case vfs::OpKind::kStat: {
        if (op.path == "/") {
          // Root stat resolves want_parent=false; rare — keep the scalar path.
          DispatchScalarOp(ctx, batch, i, results);
          break;
        }
        ChargeSyscall(ctx);
        obs::OpScope op_scope(ctx, "stat");
        Status status;
        Inode* node = resolve(op.path, &status);
        if (node == nullptr) {
          out.status = status;
          break;
        }
        out.stat = StatOf(*node);
        break;
      }

      case vfs::OpKind::kOpen: {
        if (op.flags.create() || op.flags.truncate()) {
          // Namespace-mutating open: scalar path, then drop the stale memo.
          DispatchScalarOp(ctx, batch, i, results);
          memo.Clear();
          break;
        }
        ChargeSyscall(ctx);
        obs::OpScope op_scope(ctx, "open");
        Status status;
        Inode* node = resolve(op.path, &status);
        if (node == nullptr) {
          out.status = status;
          break;
        }
        if (node->is_dir) {
          out.status = Status(ErrorCode::kIsDir);
          break;
        }
        const common::Result<int> fd = ClaimFd(node->ino, op.flags.write());
        if (fd.ok()) {
          out.value = static_cast<uint64_t>(*fd);
        } else {
          out.status = fd.status();
        }
        break;
      }

      // The scalar bodies, called under the batch's stripe hold.
      case vfs::OpKind::kClose:
      case vfs::OpKind::kPread:
      case vfs::OpKind::kFsync: {
        const common::Result<int> fd = vfs::ResolveBatchFd(batch, i, results);
        if (!fd.ok()) {
          out.status = fd.status();
          break;
        }
        ChargeSyscall(ctx);
        obs::OpScope op_scope(ctx, vfs::OpKindName(op.kind));
        if (op.kind == vfs::OpKind::kClose) {
          out.status = CloseHeld(*fd);
        } else if (op.kind == vfs::OpKind::kFsync) {
          out.status = FsyncHeld(ctx, *fd);
        } else {
          const vfs::IoResult read = PreadHeld(ctx, *fd, op.dst, op.len, op.offset);
          out.status = read.status();
          out.value = read.bytes();
        }
        break;
      }

      case vfs::OpKind::kUnlink:
      case vfs::OpKind::kRename:
      case vfs::OpKind::kMkdir:
      case vfs::OpKind::kRmdir:
        DispatchScalarOp(ctx, batch, i, results);
        memo.Clear();
        break;

      default:
        // Data-plane and remaining namespace-read ops: scalar virtuals, no
        // memo impact (inode addresses are stable outside the erasing ops).
        DispatchScalarOp(ctx, batch, i, results);
        break;
    }
  }
}

}  // namespace fscore
