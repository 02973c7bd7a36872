#include "src/wload/oltp.h"

#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"

namespace wload {

using common::ExecContext;
using common::Result;
using common::Status;

Status OltpEngine::Setup(ExecContext& ctx) {
  ASSIGN_OR_RETURN(heap_fd_, fs_->Open(ctx, "/pg_accounts", vfs::OpenFlags::Create()));
  const uint64_t heap_bytes =
      common::RoundUp(config_.accounts * kRowBytes, kPageBytes);
  // PostgreSQL pre-extends heap segments; the big allocation is what lets
  // alignment-aware allocators place the table on aligned extents.
  RETURN_IF_ERROR(fs_->Fallocate(ctx, heap_fd_, 0, heap_bytes));
  std::vector<uint8_t> page(kPageBytes, 0x01);
  for (uint64_t off = 0; off < heap_bytes; off += kPageBytes) {
    auto n = fs_->Pwrite(ctx, heap_fd_, page.data(), page.size(), off);
    if (!n.ok()) {
      return n.status();
    }
  }
  ASSIGN_OR_RETURN(wal_fd_, fs_->Open(ctx, "/pg_wal", vfs::OpenFlags::Create()));
  ASSIGN_OR_RETURN(history_fd_, fs_->Open(ctx, "/pg_history", vfs::OpenFlags::Create()));
  return common::OkStatus();
}

Result<RunResult> OltpEngine::RunReadWrite() {
  std::vector<common::Rng> rngs;
  for (uint32_t t = 0; t < config_.num_threads; t++) {
    rngs.emplace_back(config_.seed + t * 7919);
  }
  std::vector<uint8_t> page(kPageBytes);
  std::vector<uint8_t> wal_record(600, 0x77);  // pgbench-sized WAL payload
  std::vector<uint8_t> history_row(64, 0x55);

  auto op = [&](uint32_t tid, uint64_t i, ExecContext& ctx) -> bool {
    (void)i;
    common::Rng& rng = rngs[tid];
    ctx.clock.Advance(config_.think_time_ns);
    const uint64_t account = rng.NextBelow(config_.accounts);
    const uint64_t page_off = PageOfAccount(account) * kPageBytes;

    // SELECT + UPDATE account row: read page, modify, write back.
    auto r = fs_->Pread(ctx, heap_fd_, page.data(), kPageBytes, page_off);
    if (!r.ok()) {
      return false;
    }
    page[(account * kRowBytes) % kPageBytes] ^= 0x1;
    auto w = fs_->Pwrite(ctx, heap_fd_, page.data(), kPageBytes, page_off);
    if (!w.ok()) {
      return false;
    }
    // INSERT INTO history.
    if (!fs_->Append(ctx, history_fd_, history_row.data(), history_row.size()).ok()) {
      return false;
    }
    // WAL: append + commit fsync.
    if (!fs_->Append(ctx, wal_fd_, wal_record.data(), wal_record.size()).ok()) {
      return false;
    }
    return fs_->Fsync(ctx, wal_fd_).ok();
  };

  ParallelRunner runner(config_.num_threads, config_.num_cpus, config_.start_time_ns);
  return runner.Run(config_.transactions_per_thread, op).run;
}

}  // namespace wload
