#include "src/trace/replayer.h"

#include <algorithm>

#include "src/vfs/op_batch.h"
#include "src/wload/parallel_runner.h"

namespace trace {

using common::ErrorCode;
using common::Result;

namespace {

// One lowered request burst: a per-tenant run of record indices that becomes
// a single OpBatch.
struct Window {
  uint32_t tenant = 0;
  uint32_t think_ticks = 0;  // charged before the batch executes
  std::vector<uint32_t> recs;
};

common::Status ValidateForReplay(const Trace& trace) {
  if (trace.tick_ns == 0) {
    return common::Status(ErrorCode::kInvalidArgument);
  }
  const uint32_t num_paths = static_cast<uint32_t>(trace.paths.size());
  for (const TraceRecord& r : trace.records) {
    if (static_cast<uint8_t>(r.op) >= kNumTraceOps) {
      return common::Status(ErrorCode::kInvalidArgument);
    }
    if ((r.path_id != kNoPath && r.path_id >= num_paths) ||
        (r.path2_id != kNoPath && r.path2_id >= num_paths)) {
      return common::Status(ErrorCode::kInvalidArgument);
    }
    if (r.fd_slot < kNoSlot || r.fd_slot > kMaxSlot) {
      return common::Status(ErrorCode::kInvalidArgument);
    }
  }
  return common::OkStatus();
}

}  // namespace

TraceReplayer::TraceReplayer(vfs::FileSystem* fs, ReplayOptions options)
    : fs_(fs), options_(options) {
  if (options_.num_threads == 0) {
    options_.num_threads = 1;
  }
  if (options_.num_cpus == 0) {
    options_.num_cpus = 1;
  }
  if (options_.max_window_ops == 0) {
    options_.max_window_ops = 1;
  }
}

Result<ReplayResult> TraceReplayer::Replay(const Trace& trace) {
  RETURN_IF_ERROR(ValidateForReplay(trace));
  records_done_ = 0;
  windows_done_ = 0;
  errors_ = 0;

  const uint32_t tenant_count = trace.TenantCount();
  ReplayResult result;
  result.tenants.resize(tenant_count);
  for (uint32_t t = 0; t < tenant_count; t++) {
    result.tenants[t].tenant = t;
  }
  if (trace.records.empty()) {
    return result;
  }

  // Window-cutting pre-pass. Windows are created in trace order; a tenant's
  // open window survives interleaved records of other tenants.
  std::vector<Window> windows;
  std::vector<int64_t> open_window(tenant_count, -1);
  uint32_t max_io = 1;
  int32_t max_slot = 0;
  for (uint32_t i = 0; i < trace.records.size(); i++) {
    const TraceRecord& r = trace.records[i];
    max_io = std::max(max_io, r.size);
    max_slot = std::max(max_slot, r.fd_slot);
    int64_t w = open_window[r.tenant];
    if (w < 0 || r.think_ticks > 0 ||
        windows[w].recs.size() >= options_.max_window_ops) {
      windows.push_back(Window{r.tenant, r.think_ticks, {}});
      w = static_cast<int64_t>(windows.size()) - 1;
      open_window[r.tenant] = w;
    }
    windows[w].recs.push_back(i);
  }

  // Shard windows to threads by owning tenant, preserving trace order.
  const uint32_t num_threads =
      std::min<uint32_t>(options_.num_threads, tenant_count);
  std::vector<std::vector<uint32_t>> plan(num_threads);
  for (uint32_t w = 0; w < windows.size(); w++) {
    plan[windows[w].tenant % num_threads].push_back(w);
  }
  uint64_t max_windows_per_thread = 0;
  for (const auto& p : plan) {
    max_windows_per_thread = std::max<uint64_t>(max_windows_per_thread, p.size());
  }

  // Shared scratch: reads land here, writes source deterministic fill.
  std::vector<uint8_t> read_buf(max_io);
  std::vector<uint8_t> write_buf(max_io, 0x5a);

  // Per-tenant virtual-slot -> live-fd tables.
  std::vector<std::vector<int>> slots(
      tenant_count, std::vector<int>(static_cast<size_t>(max_slot) + 1, -1));

  vfs::OpBatch batch;
  std::vector<vfs::OpResult> results;
  // slot -> batch index of an earlier kOpen in the CURRENT window.
  std::vector<int32_t> local_open(static_cast<size_t>(max_slot) + 1, -1);

  auto run_window = [&](const Window& win, common::ExecContext& ctx) {
    ctx.clock.Advance(static_cast<uint64_t>(win.think_ticks) * trace.tick_ns);
    const uint64_t start_ns = ctx.clock.NowNs();
    std::vector<int>& tslots = slots[win.tenant];

    batch.Clear();
    batch.Reserve(win.recs.size());
    std::fill(local_open.begin(), local_open.end(), -1);
    for (uint32_t ri : win.recs) {
      const TraceRecord& r = trace.records[ri];
      auto fd_of = [&]() -> vfs::FdRef {
        if (r.fd_slot >= 0 && local_open[r.fd_slot] >= 0) {
          return vfs::FdRef::From(static_cast<size_t>(local_open[r.fd_slot]));
        }
        return vfs::FdRef(r.fd_slot >= 0 ? tslots[r.fd_slot] : -1);
      };
      switch (r.op) {
        case TraceOp::kOpen: {
          const size_t idx = batch.Open(trace.paths[r.path_id],
                                        vfs::OpenFlags(r.open_flags));
          if (r.fd_slot >= 0) {
            local_open[r.fd_slot] = static_cast<int32_t>(idx);
          }
          break;
        }
        case TraceOp::kClose: {
          batch.Close(fd_of());
          if (r.fd_slot >= 0) {
            local_open[r.fd_slot] = -1;
          }
          break;
        }
        case TraceOp::kPread:
          batch.Pread(fd_of(), read_buf.data(), r.size, r.offset);
          break;
        case TraceOp::kPwrite:
          batch.Pwrite(fd_of(), write_buf.data(), r.size, r.offset);
          break;
        case TraceOp::kAppend:
          batch.Append(fd_of(), write_buf.data(), r.size);
          break;
        case TraceOp::kFsync:
          batch.Fsync(fd_of());
          break;
        case TraceOp::kStat:
          batch.Stat(trace.paths[r.path_id]);
          break;
        case TraceOp::kReadDir:
          batch.ReadDir(trace.paths[r.path_id]);
          break;
        case TraceOp::kUnlink:
          batch.Unlink(trace.paths[r.path_id]);
          break;
        case TraceOp::kMkdir:
          batch.Mkdir(trace.paths[r.path_id]);
          break;
        case TraceOp::kRmdir:
          batch.Rmdir(trace.paths[r.path_id]);
          break;
        case TraceOp::kRename:
          batch.Rename(trace.paths[r.path_id], trace.paths[r.path2_id]);
          break;
        case TraceOp::kFtruncate:
          batch.Ftruncate(fd_of(), r.offset);
          break;
        case TraceOp::kFallocate:
          batch.Fallocate(fd_of(), r.offset, r.size);
          break;
      }
    }

    if (options_.use_batch) {
      fs_->ExecuteBatch(ctx, batch, results);
    } else {
      fs_->ExecuteBatchScalar(ctx, batch, results);
    }

    // Post-pass: advance the tenant's slot table and tally outcomes.
    TenantStats& ts = result.tenants[win.tenant];
    uint64_t win_errors = 0;
    for (size_t k = 0; k < win.recs.size(); k++) {
      const TraceRecord& r = trace.records[win.recs[k]];
      const vfs::OpResult& res = results[k];
      if (!res.ok()) {
        win_errors++;
      }
      if (r.fd_slot >= 0) {
        if (r.op == TraceOp::kOpen) {
          tslots[r.fd_slot] = res.ok() ? static_cast<int>(res.value) : -1;
        } else if (r.op == TraceOp::kClose) {
          tslots[r.fd_slot] = -1;
        }
      }
    }
    ts.ops += win.recs.size();
    ts.errors += win_errors;
    ts.windows++;
    ts.latency.Record(ctx.clock.NowNs() - start_ns);
    records_done_ += win.recs.size();
    windows_done_++;
    errors_ += win_errors;
  };

  auto window_op = [&](uint32_t tid, uint64_t op_index, common::ExecContext& ctx) {
    if (op_index >= plan[tid].size()) {
      return false;
    }
    run_window(windows[plan[tid][op_index]], ctx);
    return true;
  };
  wload::ParallelRunner runner(num_threads, options_.num_cpus, options_.base_ns);
  runner.SetObservers(options_.sampler, options_.profiler);
  const wload::RunResult run = runner.Run(max_windows_per_thread, window_op).run;

  result.records = records_done_;
  result.windows = windows_done_;
  result.errors = errors_;
  result.wall_ns = run.wall_ns;
  result.counters = run.counters;
  return result;
}

void TraceReplayer::SampleGauges(obs::GaugeSample& out) {
  out.Set("replay_records_done", static_cast<double>(records_done_));
  out.Set("replay_windows_done", static_cast<double>(windows_done_));
  out.Set("replay_errors", static_cast<double>(errors_));
}

}  // namespace trace
