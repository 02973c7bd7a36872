// Forwarding vfs::FileSystem decorator: the benchmark's one instrument on the
// filesystem layer. Every call goes straight to the wrapped filesystem; the
// decorator only observes. It is also the vmem::FaultHandler the benchmark
// passes to MmapEngine::Mmap, so mmap faults cross it too.
//
// Always on: a log of every ExecuteBatch call's host and modeled duration
// (one batch is one request in meta_spine, one replay window in
// fleet_replay). With a SpanRecorder attached it also records a span per
// call and counts batch path reuse and fault sizes.
#ifndef PERFBENCH_LIB_TIMED_FS_H_
#define PERFBENCH_LIB_TIMED_FS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "lib/spans.h"
#include "src/vfs/file_system.h"

namespace perfbench {

struct BatchSample {
  uint64_t host_ns = 0;
  uint64_t sim_ns = 0;
  uint64_t ops = 0;
};

// Counts the decorator gathers while a recorder is attached.
struct TimedFsStats {
  uint64_t batch_ops = 0;
  // Batch ops whose path already appeared earlier in the same batch.
  uint64_t batch_reused_paths = 0;
  uint64_t faults_4k = 0;
  uint64_t faults_2m = 0;
};

class TimedFs final : public vfs::FileSystem {
 public:
  // `inner` is not owned and must outlive the decorator.
  explicit TimedFs(vfs::FileSystem* inner) : inner_(inner) {}

  void set_recorder(SpanRecorder* recorder) { recorder_ = recorder; }
  SpanRecorder* recorder() const { return recorder_; }
  vfs::FileSystem* inner() const { return inner_; }

  const std::vector<BatchSample>& batches() const { return batches_; }
  const TimedFsStats& stats() const { return stats_; }

  std::string_view Name() const override { return inner_->Name(); }
  vfs::GuaranteeMode guarantee_mode() const override { return inner_->guarantee_mode(); }
  vfs::ParallelPolicy parallel_policy() const override { return inner_->parallel_policy(); }

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
  common::Result<vfs::StatInfo> Stat(common::ExecContext& ctx, const std::string& path) override;
  common::Result<std::vector<vfs::DirEntry>> ReadDir(common::ExecContext& ctx,
                                                     const std::string& path) override;

  vfs::IoResult Pread(common::ExecContext& ctx, int fd, void* dst, uint64_t len,
                      uint64_t offset) override;
  vfs::IoResult Pwrite(common::ExecContext& ctx, int fd, const void* src, uint64_t len,
                       uint64_t offset) override;
  vfs::IoResult Append(common::ExecContext& ctx, int fd, const void* src, uint64_t len) override;
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
  common::Result<vfs::FreeSpaceInfo> StatFs(common::ExecContext& ctx) override;
  void SampleGauges(obs::GaugeSample& out) override { inner_->SampleGauges(out); }

  void ExecuteBatch(common::ExecContext& ctx, const vfs::OpBatch& batch,
                    std::vector<vfs::OpResult>& results) override;

  common::Result<FaultMapping> HandleFault(common::ExecContext& ctx, uint64_t ino,
                                           uint64_t page_offset, bool write) override;

 private:
  vfs::FileSystem* inner_;
  SpanRecorder* recorder_ = nullptr;
  std::vector<BatchSample> batches_;
  TimedFsStats stats_;
};

// Number of ops in `batch` whose path operand already appeared in an earlier
// op of the same batch (the input property a per-batch resolve cache uses).
uint64_t CountReusedPaths(const vfs::OpBatch& batch);

}  // namespace perfbench

#endif  // PERFBENCH_LIB_TIMED_FS_H_
