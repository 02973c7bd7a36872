// The filesystem interface every implementation (WineFS and the baselines)
// exposes, plus the POSIX-flavored types shared across them. Path-based and
// fd-based operations mirror the system calls the paper's workloads issue.
#ifndef SRC_VFS_FILE_SYSTEM_H_
#define SRC_VFS_FILE_SYSTEM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/exec_context.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/obs/gauges.h"
#include "src/vmem/mmap_engine.h"

namespace vfs {

using InodeNum = uint64_t;
inline constexpr InodeNum kRootIno = 1;

// open(2) flags as a typed bitmask. The default (no bits) is a plain
// read-write open of an existing file; kRdOnly *removes* write permission,
// mirroring O_RDONLY being the absence of O_WRONLY/O_RDWR.
struct OpenFlags {
  static constexpr uint32_t kCreate = 1u << 0;  // O_CREAT
  static constexpr uint32_t kExcl = 1u << 1;    // O_EXCL (with kCreate)
  static constexpr uint32_t kTrunc = 1u << 2;   // O_TRUNC
  static constexpr uint32_t kRdOnly = 1u << 3;  // O_RDONLY

  uint32_t bits = 0;

  constexpr OpenFlags() = default;
  constexpr OpenFlags(uint32_t flag_bits) : bits(flag_bits) {}  // NOLINT

  constexpr bool create() const { return (bits & kCreate) != 0; }
  constexpr bool exclusive() const { return (bits & kExcl) != 0; }
  constexpr bool truncate() const { return (bits & kTrunc) != 0; }
  constexpr bool write() const { return (bits & kRdOnly) == 0; }

  static constexpr OpenFlags ReadOnly() { return OpenFlags(kRdOnly); }
  static constexpr OpenFlags Create() { return OpenFlags(kCreate); }
  static constexpr OpenFlags CreateExcl() { return OpenFlags(kCreate | kExcl); }
};

// Result of a data-plane operation (pread/pwrite/append): the bytes
// transferred plus the error, if any. Unlike Result<uint64_t>, an IoResult can
// report PARTIAL progress the way POSIX does — a read that hit a poisoned
// block after N good bytes returns bytes()==N with status kIoError. For
// Append the value slot carries the start offset of the written range (the
// historical contract of Append's Result<uint64_t>).
class IoResult {
 public:
  IoResult(uint64_t bytes) : bytes_(bytes) {}                       // NOLINT
  IoResult(common::Status status) : status_(status) {}              // NOLINT
  IoResult(common::ErrorCode code) : status_(code) {}               // NOLINT
  IoResult(const common::Result<uint64_t>& result)                  // NOLINT
      : status_(result.ok() ? common::OkStatus() : result.status()),
        bytes_(result.ok() ? *result : 0) {}

  static IoResult Partial(uint64_t bytes, common::Status error) {
    IoResult out(error);
    out.bytes_ = bytes;
    return out;
  }

  bool ok() const { return status_.ok(); }
  common::Status status() const { return status_; }
  // Bytes transferred before the error (0 on a clean failure); valid even
  // when !ok() so callers can surface POSIX short reads.
  uint64_t bytes() const { return bytes_; }
  bool partial() const { return !status_.ok() && bytes_ > 0; }

  // Result<uint64_t>-compatible accessors so existing `*n` / ASSIGN_OR_RETURN
  // call sites keep working unchanged.
  uint64_t& value() { return bytes_; }
  const uint64_t& value() const { return bytes_; }
  uint64_t operator*() const { return bytes_; }

 private:
  common::Status status_;
  uint64_t bytes_ = 0;
};

struct StatInfo {
  InodeNum ino = 0;
  uint64_t size = 0;
  uint64_t blocks = 0;       // allocated 4 KiB blocks
  uint32_t nlink = 0;
  bool is_dir = false;
};

struct DirEntry {
  std::string name;
  InodeNum ino = 0;
  bool is_dir = false;
};

// Free-space introspection for the fragmentation experiments (Fig 3).
struct FreeSpaceInfo {
  uint64_t total_blocks = 0;
  uint64_t free_blocks = 0;
  // Number of free regions that are 2 MiB-aligned and >= 2 MiB contiguous,
  // i.e. hugepage-capable allocations still available.
  uint64_t free_aligned_extents = 0;
  uint64_t largest_free_extent_blocks = 0;

  double utilization() const {
    return total_blocks == 0
               ? 0.0
               : 1.0 - static_cast<double>(free_blocks) / static_cast<double>(total_blocks);
  }
  // Fraction of free space sitting in hugepage-capable regions.
  double AlignedFreeFraction() const {
    if (free_blocks == 0) {
      return 0.0;
    }
    return static_cast<double>(free_aligned_extents * common::kBlocksPerHugepage) /
           static_cast<double>(free_blocks);
  }
};

// How a filesystem may be driven by host-parallel workers (src/wload/
// parallel_runner.h). kSerial: one worker runs every op in discrete-event
// order, however many workers a caller asks for — the only safe choice for
// shared internal state such as a global journal. kSharded: per-CPU internal
// structures are host-safe under the shard-purity contract, so workers
// free-run over disjoint simulated threads and genuinely contend the per-CPU
// journals/allocators.
enum class ParallelPolicy {
  kSerial,
  kSharded,
};

// Consistency guarantees, per §3.3.
enum class GuaranteeMode {
  kRelaxed,  // atomic+synchronous metadata only (ext4-DAX/xfs-DAX/PMFS class)
  kStrict,   // atomic+synchronous data AND metadata (NOVA/Strata/WineFS default)
};

// Batched op-vector surface (src/vfs/op_batch.h). Forward-declared so the
// virtual signatures below do not pull the batch types into every include of
// the interface; op_batch.h includes this header, not the other way around.
class OpBatch;
struct OpResult;

class FileSystem : public vmem::FaultHandler, public obs::GaugeProvider {
 public:
  ~FileSystem() override = default;

  virtual std::string_view Name() const = 0;
  virtual GuaranteeMode guarantee_mode() const = 0;
  // Host-parallel driving mode this implementation supports. Default is
  // serial; per-CPU-journal designs (WineFS, NOVA) override.
  virtual ParallelPolicy parallel_policy() const { return ParallelPolicy::kSerial; }

  // --- Lifecycle ---------------------------------------------------------
  virtual common::Status Mkfs(common::ExecContext& ctx) = 0;
  // Mounts, running crash recovery if the superblock is dirty.
  virtual common::Status Mount(common::ExecContext& ctx) = 0;
  // Clean unmount: persists DRAM indexes/free lists.
  virtual common::Status Unmount(common::ExecContext& ctx) = 0;

  // --- Namespace ---------------------------------------------------------
  virtual common::Result<int> Open(common::ExecContext& ctx, const std::string& path,
                                   OpenFlags flags) = 0;
  virtual common::Status Close(common::ExecContext& ctx, int fd) = 0;
  virtual common::Status Mkdir(common::ExecContext& ctx, const std::string& path) = 0;
  virtual common::Status Rmdir(common::ExecContext& ctx, const std::string& path) = 0;
  virtual common::Status Unlink(common::ExecContext& ctx, const std::string& path) = 0;
  virtual common::Status Rename(common::ExecContext& ctx, const std::string& from,
                                const std::string& to) = 0;
  virtual common::Result<StatInfo> Stat(common::ExecContext& ctx, const std::string& path) = 0;
  virtual common::Result<std::vector<DirEntry>> ReadDir(common::ExecContext& ctx,
                                                        const std::string& path) = 0;

  // --- Data --------------------------------------------------------------
  virtual IoResult Pread(common::ExecContext& ctx, int fd, void* dst, uint64_t len,
                         uint64_t offset) = 0;
  virtual IoResult Pwrite(common::ExecContext& ctx, int fd, const void* src, uint64_t len,
                          uint64_t offset) = 0;
  // Append at EOF; the IoResult value carries the offset written at.
  virtual IoResult Append(common::ExecContext& ctx, int fd, const void* src,
                          uint64_t len) = 0;
  virtual common::Status Fsync(common::ExecContext& ctx, int fd) = 0;
  virtual common::Status Fallocate(common::ExecContext& ctx, int fd, uint64_t offset,
                                   uint64_t len) = 0;
  virtual common::Status Ftruncate(common::ExecContext& ctx, int fd, uint64_t size) = 0;

  // --- Extended attributes (WineFS alignment hints, §3.6) ----------------
  virtual common::Status SetXattr(common::ExecContext& ctx, const std::string& path,
                                  const std::string& name, const std::string& value) = 0;
  virtual common::Result<std::string> GetXattr(common::ExecContext& ctx,
                                               const std::string& path,
                                               const std::string& name) = 0;

  // --- mmap support ------------------------------------------------------
  virtual common::Result<InodeNum> InodeOf(common::ExecContext& ctx, int fd) = 0;
  virtual common::Result<uint64_t> SizeOf(common::ExecContext& ctx, int fd) = 0;

  // --- Introspection ------------------------------------------------------
  // statfs(2): charges simulated time like every other op and fails with
  // kBadFd-style codes when the filesystem is not mounted.
  virtual common::Result<FreeSpaceInfo> StatFs(common::ExecContext& ctx) = 0;

  // Gauge probe for the obs time-series sampler: implementations append
  // point-in-time internal state (free-space fragmentation, journal/log
  // occupancy, allocator pool balance). Charges NO simulated time — it is an
  // observer, not an operation. Default: exposes nothing.
  void SampleGauges(obs::GaugeSample& out) override { (void)out; }

  // --- Batched op vectors (src/vfs/op_batch.h) ---------------------------
  // Executes a whole op vector, writing one OpResult per op. An op's failure
  // never aborts the batch: later ops run, and ops referencing a failed
  // open's fd fail with kBadFd without being dispatched. The default walks
  // the scalar loop, so every filesystem supports batches; implementations
  // with a native fast path (WineFS, the ext4-DAX family) override — under
  // the contract that modeled clock, counters, and namespace state stay
  // BIT-IDENTICAL to the scalar loop for the same batch.
  virtual void ExecuteBatch(common::ExecContext& ctx, const OpBatch& batch,
                            std::vector<OpResult>& results);

  // The reference scalar loop, always available (differential tests pin
  // native ExecuteBatch implementations against it).
  void ExecuteBatchScalar(common::ExecContext& ctx, const OpBatch& batch,
                          std::vector<OpResult>& results);

 protected:
  // Executes exactly one op of the batch via the public virtual ops, placing
  // the outcome in results[index] (which must already be sized). Shared by
  // the scalar loop and the scalar-fallback arm of native engines so the two
  // can never drift.
  void DispatchScalarOp(common::ExecContext& ctx, const OpBatch& batch, size_t index,
                        std::vector<OpResult>& results);
};

// Resolves the fd an op acts on: either the op's raw fd or, when fd_from is
// set, the descriptor produced by an earlier kOpen op in the same batch.
// Returns kBadFd for malformed references (forward/self references, non-open
// targets, or targets that failed) — without charging any simulated time.
common::Result<int> ResolveBatchFd(const OpBatch& batch, size_t index,
                                   const std::vector<OpResult>& results);

}  // namespace vfs

#endif  // SRC_VFS_FILE_SYSTEM_H_
