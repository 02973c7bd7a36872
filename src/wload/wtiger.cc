#include "src/wload/wtiger.h"

#include <atomic>

#include "src/common/rng.h"
#include "src/common/units.h"

namespace wload {

using common::ExecContext;
using common::Result;
using common::Status;

Status Wtiger::Setup(ExecContext& ctx) {
  ASSIGN_OR_RETURN(log_fd_, fs_->Open(ctx, "/wt_log", vfs::OpenFlags::Create()));
  ASSIGN_OR_RETURN(table_fd_, fs_->Open(ctx, "/wt_table", vfs::OpenFlags::Create()));
  // Seed the table so ReadRandom has data even before FillRandom.
  table_bytes_ = config_.num_keys * config_.value_bytes;
  std::vector<uint8_t> chunk(256 * common::kKiB, 0xee);
  for (uint64_t off = 0; off < table_bytes_; off += chunk.size()) {
    auto n = fs_->Pwrite(ctx, table_fd_, chunk.data(),
                         std::min<uint64_t>(chunk.size(), table_bytes_ - off), off);
    if (!n.ok()) {
      return n.status();
    }
  }
  return common::OkStatus();
}

Result<RunResult> Wtiger::FillRandom() {
  std::vector<common::Rng> rngs;
  for (uint32_t t = 0; t < config_.num_threads; t++) {
    rngs.emplace_back(config_.seed + t);
  }
  std::atomic<uint64_t> ops{0};
  const uint64_t per_thread = config_.num_keys / config_.num_threads;

  auto op = [&](uint32_t tid, uint64_t i, ExecContext& ctx) -> bool {
    (void)i;
    common::Rng& rng = rngs[tid];
    // Log record: header(37B, intentionally odd) + key + value -> the
    // unaligned appends the paper highlights.
    const uint32_t record = 37 + 8 + config_.value_bytes;
    std::vector<uint8_t> payload(record, static_cast<uint8_t>(rng.Next()));
    if (!fs_->Append(ctx, log_fd_, payload.data(), payload.size()).ok()) {
      return false;
    }
    if (!fs_->Fsync(ctx, log_fd_).ok()) {
      return false;
    }
    const uint64_t done = ops.fetch_add(1) + 1;
    if (done % config_.checkpoint_every == 0) {
      // Checkpoint: write back a handful of dirty 4 KiB btree pages.
      std::vector<uint8_t> pg(4096, 0x11);
      for (int p = 0; p < 8; p++) {
        const uint64_t off =
            common::RoundDown(rng.NextBelow(table_bytes_), 4096);
        if (!fs_->Pwrite(ctx, table_fd_, pg.data(), pg.size(), off).ok()) {
          return false;
        }
      }
      if (!fs_->Fsync(ctx, table_fd_).ok()) {
        return false;
      }
    }
    return true;
  };

  ParallelRunner runner(config_.num_threads, config_.num_cpus, config_.start_time_ns);
  const RunResult result = runner.Run(per_thread, op).run;
  config_.start_time_ns += result.wall_ns;  // ReadRandom continues after fill
  return result;
}

Result<RunResult> Wtiger::ReadRandom() {
  std::vector<common::Rng> rngs;
  for (uint32_t t = 0; t < config_.num_threads; t++) {
    rngs.emplace_back(config_.seed * 3 + t);
  }
  std::vector<uint8_t> out(config_.value_bytes);
  const uint64_t per_thread = config_.num_keys / config_.num_threads;

  auto op = [&](uint32_t tid, uint64_t i, ExecContext& ctx) -> bool {
    (void)i;
    const uint64_t off =
        rngs[tid].NextBelow(table_bytes_ - config_.value_bytes);
    return fs_->Pread(ctx, table_fd_, out.data(), config_.value_bytes, off).ok();
  };

  ParallelRunner runner(config_.num_threads, config_.num_cpus, config_.start_time_ns);
  return runner.Run(per_thread, op).run;
}

}  // namespace wload
