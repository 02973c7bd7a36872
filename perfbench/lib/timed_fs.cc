#include "lib/timed_fs.h"

#include <string_view>
#include <unordered_set>

#include "src/vfs/op_batch.h"

namespace perfbench {

using common::ExecContext;
using common::Result;
using common::Status;

common::Status TimedFs::Mkfs(ExecContext& ctx) {
  ScopedSpan span(recorder_, SpanName::kFsCall);
  return inner_->Mkfs(ctx);
}

common::Status TimedFs::Mount(ExecContext& ctx) {
  ScopedSpan span(recorder_, SpanName::kFsCall);
  return inner_->Mount(ctx);
}

common::Status TimedFs::Unmount(ExecContext& ctx) {
  ScopedSpan span(recorder_, SpanName::kFsCall);
  return inner_->Unmount(ctx);
}

Result<int> TimedFs::Open(ExecContext& ctx, const std::string& path, vfs::OpenFlags flags) {
  ScopedSpan span(recorder_, SpanName::kFsCall);
  return inner_->Open(ctx, path, flags);
}

Status TimedFs::Close(ExecContext& ctx, int fd) {
  ScopedSpan span(recorder_, SpanName::kFsCall);
  return inner_->Close(ctx, fd);
}

Status TimedFs::Mkdir(ExecContext& ctx, const std::string& path) {
  ScopedSpan span(recorder_, SpanName::kFsCall);
  return inner_->Mkdir(ctx, path);
}

Status TimedFs::Rmdir(ExecContext& ctx, const std::string& path) {
  ScopedSpan span(recorder_, SpanName::kFsCall);
  return inner_->Rmdir(ctx, path);
}

Status TimedFs::Unlink(ExecContext& ctx, const std::string& path) {
  ScopedSpan span(recorder_, SpanName::kFsCall);
  return inner_->Unlink(ctx, path);
}

Status TimedFs::Rename(ExecContext& ctx, const std::string& from, const std::string& to) {
  ScopedSpan span(recorder_, SpanName::kFsCall);
  return inner_->Rename(ctx, from, to);
}

Result<vfs::StatInfo> TimedFs::Stat(ExecContext& ctx, const std::string& path) {
  ScopedSpan span(recorder_, SpanName::kFsCall);
  return inner_->Stat(ctx, path);
}

Result<std::vector<vfs::DirEntry>> TimedFs::ReadDir(ExecContext& ctx, const std::string& path) {
  ScopedSpan span(recorder_, SpanName::kFsCall);
  return inner_->ReadDir(ctx, path);
}

vfs::IoResult TimedFs::Pread(ExecContext& ctx, int fd, void* dst, uint64_t len,
                             uint64_t offset) {
  ScopedSpan span(recorder_, SpanName::kFsCall);
  return inner_->Pread(ctx, fd, dst, len, offset);
}

vfs::IoResult TimedFs::Pwrite(ExecContext& ctx, int fd, const void* src, uint64_t len,
                              uint64_t offset) {
  ScopedSpan span(recorder_, SpanName::kFsCall);
  return inner_->Pwrite(ctx, fd, src, len, offset);
}

vfs::IoResult TimedFs::Append(ExecContext& ctx, int fd, const void* src, uint64_t len) {
  ScopedSpan span(recorder_, SpanName::kFsCall);
  return inner_->Append(ctx, fd, src, len);
}

Status TimedFs::Fsync(ExecContext& ctx, int fd) {
  ScopedSpan span(recorder_, SpanName::kFsCall);
  return inner_->Fsync(ctx, fd);
}

Status TimedFs::Fallocate(ExecContext& ctx, int fd, uint64_t offset, uint64_t len) {
  ScopedSpan span(recorder_, SpanName::kFsCall);
  return inner_->Fallocate(ctx, fd, offset, len);
}

Status TimedFs::Ftruncate(ExecContext& ctx, int fd, uint64_t size) {
  ScopedSpan span(recorder_, SpanName::kFsCall);
  return inner_->Ftruncate(ctx, fd, size);
}

Status TimedFs::SetXattr(ExecContext& ctx, const std::string& path, const std::string& name,
                         const std::string& value) {
  ScopedSpan span(recorder_, SpanName::kFsCall);
  return inner_->SetXattr(ctx, path, name, value);
}

Result<std::string> TimedFs::GetXattr(ExecContext& ctx, const std::string& path,
                                      const std::string& name) {
  ScopedSpan span(recorder_, SpanName::kFsCall);
  return inner_->GetXattr(ctx, path, name);
}

Result<vfs::InodeNum> TimedFs::InodeOf(ExecContext& ctx, int fd) {
  ScopedSpan span(recorder_, SpanName::kFsCall);
  return inner_->InodeOf(ctx, fd);
}

Result<uint64_t> TimedFs::SizeOf(ExecContext& ctx, int fd) {
  ScopedSpan span(recorder_, SpanName::kFsCall);
  return inner_->SizeOf(ctx, fd);
}

Result<vfs::FreeSpaceInfo> TimedFs::StatFs(ExecContext& ctx) {
  ScopedSpan span(recorder_, SpanName::kFsCall);
  return inner_->StatFs(ctx);
}

void TimedFs::ExecuteBatch(ExecContext& ctx, const vfs::OpBatch& batch,
                           std::vector<vfs::OpResult>& results) {
  if (recorder_ != nullptr) {
    recorder_->NextRequest();
    stats_.batch_ops += batch.size();
    stats_.batch_reused_paths += CountReusedPaths(batch);
  }
  const uint64_t sim_start = ctx.clock.NowNs();
  const uint64_t host_start = HostNowNs();
  {
    ScopedSpan span(recorder_, SpanName::kFsBatch);
    inner_->ExecuteBatch(ctx, batch, results);
  }
  batches_.push_back({HostNowNs() - host_start, ctx.clock.NowNs() - sim_start, batch.size()});
}

Result<vmem::FaultHandler::FaultMapping> TimedFs::HandleFault(ExecContext& ctx, uint64_t ino,
                                                              uint64_t page_offset, bool write) {
  Result<FaultMapping> mapping = [&] {
    ScopedSpan span(recorder_, SpanName::kFsFault);
    return inner_->HandleFault(ctx, ino, page_offset, write);
  }();
  if (recorder_ != nullptr && mapping.ok()) {
    (mapping->huge ? stats_.faults_2m : stats_.faults_4k)++;
  }
  return mapping;
}

uint64_t CountReusedPaths(const vfs::OpBatch& batch) {
  std::unordered_set<std::string_view> seen;
  seen.reserve(batch.size());
  uint64_t reused = 0;
  for (const vfs::Op& op : batch.ops()) {
    if (op.path.empty()) {
      continue;
    }
    if (!seen.insert(op.path).second) {
      reused++;
    }
  }
  return reused;
}

}  // namespace perfbench
