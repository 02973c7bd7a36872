#include "src/wload/filebench.h"

#include <atomic>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/vfs/op_batch.h"
#include "src/wload/harness.h"

namespace wload {

using common::ExecContext;
using common::Result;
using common::Status;

std::string FilebenchName(FilebenchPersonality personality) {
  switch (personality) {
    case FilebenchPersonality::kVarmail:
      return "varmail";
    case FilebenchPersonality::kFileserver:
      return "fileserver";
    case FilebenchPersonality::kWebserver:
      return "webserver";
    case FilebenchPersonality::kWebproxy:
      return "webproxy";
  }
  return "?";
}

FilebenchConfig PaperConfig(FilebenchPersonality personality) {
  FilebenchConfig config;
  switch (personality) {
    case FilebenchPersonality::kVarmail:  // 16 threads, 1M files (scaled)
      config.num_threads = 16;
      config.num_files = 3000;
      config.mean_file_bytes = 16 * 1024;
      break;
    case FilebenchPersonality::kFileserver:  // 50 threads, 500K files
      config.num_threads = 50;
      config.num_files = 2000;
      config.mean_file_bytes = 128 * 1024;
      break;
    case FilebenchPersonality::kWebserver:  // 100 threads, 500K files
      config.num_threads = 100;
      config.num_files = 2000;
      config.mean_file_bytes = 64 * 1024;
      config.ops_per_thread = 1000;
      break;
    case FilebenchPersonality::kWebproxy:  // 100 threads, 1M files
      config.num_threads = 100;
      config.num_files = 3000;
      config.mean_file_bytes = 32 * 1024;
      config.ops_per_thread = 1000;
      break;
  }
  return config;
}

Result<FilebenchResult> Filebench::Run() {
  SetupPhase phase(config_.start_time_ns);
  ExecContext& setup = phase.ctx();
  const uint32_t dirs = 64;
  for (uint32_t d = 0; d < dirs; d++) {
    RETURN_IF_ERROR(fs_->Mkdir(setup, "/fb" + std::to_string(d)));
  }
  auto path_of = [&](uint32_t id) {
    return "/fb" + std::to_string(id % dirs) + "/f" + std::to_string(id);
  };

  // Pre-create the fileset.
  common::Rng setup_rng(config_.seed);
  std::vector<uint8_t> buf(config_.mean_file_bytes * 2, 0xda);
  for (uint32_t id = 0; id < config_.num_files; id++) {
    auto fd = fs_->Open(setup, path_of(id), vfs::OpenFlags::Create());
    if (!fd.ok()) {
      return fd.status();
    }
    const uint64_t size = config_.mean_file_bytes / 2 +
                          setup_rng.NextBelow(config_.mean_file_bytes);
    auto n = fs_->Pwrite(setup, *fd, buf.data(), size, 0);
    if (!n.ok()) {
      return n.status();
    }
    RETURN_IF_ERROR(fs_->Close(setup, *fd));
  }

  std::atomic<uint64_t> next_new_file{config_.num_files};
  std::vector<common::Rng> rngs;
  for (uint32_t t = 0; t < config_.num_threads; t++) {
    rngs.emplace_back(config_.seed * 131 + t);
  }

  // Each helper rides the op-batch spine: build the whole syscall sequence as
  // one OpBatch and hand it to ExecuteBatch (native fast path where the
  // filesystem has one, scalar loop otherwise). Batch semantics match the
  // scalar calls op for op, so the modeled timeline is unchanged; the first
  // failed op's status is what the old early-returning code would have
  // surfaced.
  auto first_error = [](const std::vector<vfs::OpResult>& results) -> Status {
    for (const vfs::OpResult& r : results) {
      if (!r.ok()) {
        return r.status;
      }
    }
    return common::OkStatus();
  };

  auto whole_file_read = [&](ExecContext& ctx, common::Rng& rng) -> Status {
    const uint32_t id = static_cast<uint32_t>(rng.NextBelow(config_.num_files));
    auto fd = fs_->Open(ctx, path_of(id), vfs::OpenFlags::ReadOnly());
    if (!fd.ok()) {
      return common::OkStatus();  // deleted by a concurrent op: benign
    }
    auto st = fs_->SizeOf(ctx, *fd);
    // The read loop is deterministic once the size is known: full-buffer
    // chunks until the remainder. Batch them with the trailing close.
    vfs::OpBatch batch;
    uint64_t off = 0;
    while (st.ok() && off < *st) {
      const uint64_t chunk = std::min<uint64_t>(buf.size(), *st - off);
      batch.Pread(*fd, buf.data(), chunk, off);
      off += chunk;
    }
    batch.Close(*fd);
    std::vector<vfs::OpResult> results;
    fs_->ExecuteBatch(ctx, batch, results);
    return results.back().status;  // reads are best-effort, close is not
  };

  auto create_append_fsync = [&](ExecContext& ctx, common::Rng& rng, bool remove_after,
                                 bool fsync) -> Status {
    const uint64_t id = next_new_file.fetch_add(1);
    const std::string path = path_of(static_cast<uint32_t>(id % (config_.num_files * 4)) +
                                     config_.num_files);
    const uint64_t size = config_.mean_file_bytes / 2 + rng.NextBelow(config_.mean_file_bytes);
    vfs::OpBatch batch;
    const size_t open_index = batch.Open(path, vfs::OpenFlags::Create());
    batch.Append(vfs::FdRef::From(open_index), buf.data(), size);
    if (fsync) {
      batch.Fsync(vfs::FdRef::From(open_index));
    }
    batch.Close(vfs::FdRef::From(open_index));
    if (remove_after) {
      batch.Unlink(path);
    }
    std::vector<vfs::OpResult> results;
    fs_->ExecuteBatch(ctx, batch, results);
    return first_error(results);
  };

  auto append_existing = [&](ExecContext& ctx, common::Rng& rng, bool fsync) -> Status {
    const uint32_t id = static_cast<uint32_t>(rng.NextBelow(config_.num_files));
    vfs::OpBatch batch;
    const size_t open_index = batch.Open(path_of(id), vfs::OpenFlags{});
    batch.Append(vfs::FdRef::From(open_index), buf.data(), 16 * common::kKiB);
    if (fsync) {
      batch.Fsync(vfs::FdRef::From(open_index));
    }
    batch.Close(vfs::FdRef::From(open_index));
    std::vector<vfs::OpResult> results;
    fs_->ExecuteBatch(ctx, batch, results);
    if (!results[open_index].ok()) {
      return common::OkStatus();  // deleted by a concurrent op: benign
    }
    return first_error(results);
  };

  auto op = [&](uint32_t tid, uint64_t i, ExecContext& ctx) -> bool {
    (void)i;
    common::Rng& rng = rngs[tid];
    Status status;
    switch (personality_) {
      case FilebenchPersonality::kVarmail: {
        // delete / create+append+fsync / read+append+fsync / whole read.
        const double p = rng.NextDouble();
        if (p < 0.25) {
          status = create_append_fsync(ctx, rng, /*remove_after=*/true, /*fsync=*/true);
        } else if (p < 0.5) {
          status = create_append_fsync(ctx, rng, false, true);
        } else if (p < 0.75) {
          status = whole_file_read(ctx, rng);
          if (status.ok()) {
            status = append_existing(ctx, rng, true);
          }
        } else {
          status = whole_file_read(ctx, rng);
        }
        break;
      }
      case FilebenchPersonality::kFileserver: {
        const double p = rng.NextDouble();
        if (p < 0.33) {
          status = create_append_fsync(ctx, rng, false, false);
        } else if (p < 0.45) {
          status = create_append_fsync(ctx, rng, true, false);
        } else if (p < 0.65) {
          status = append_existing(ctx, rng, false);
        } else {
          status = whole_file_read(ctx, rng);
        }
        break;
      }
      case FilebenchPersonality::kWebserver: {
        // 10 whole-file reads then a log append.
        for (int r = 0; r < 10 && status.ok(); r++) {
          status = whole_file_read(ctx, rng);
        }
        if (status.ok()) {
          status = append_existing(ctx, rng, false);
        }
        break;
      }
      case FilebenchPersonality::kWebproxy: {
        // create, 5 reads, delete mix + log append.
        status = create_append_fsync(ctx, rng, /*remove_after=*/true, /*fsync=*/false);
        for (int r = 0; r < 5 && status.ok(); r++) {
          status = whole_file_read(ctx, rng);
        }
        if (status.ok()) {
          status = append_existing(ctx, rng, false);
        }
        break;
      }
    }
    return status.ok();
  };

  FilebenchResult result;
  result.run = phase.MakeRunner(config_.num_threads, config_.num_cpus)
                   .Run(config_.ops_per_thread, op)
                   .run;
  return result;
}

}  // namespace wload
