// Figure 6: sequential/random read/write throughput on aged filesystems for
// (a) memory-mapped access, (b) POSIX with metadata consistency ("weak"),
// (c) POSIX with data consistency ("strong"). fsync() after every 10 ops on
// the syscall paths. Paper: WineFS beats NOVA ~2.6x on aged mmap writes and
// matches/beats everyone on syscalls.
#include "bench/bench_util.h"
#include "src/vfs/op_batch.h"

using benchutil::Fmt;
using benchutil::MakeBed;
using benchutil::Row;
using common::ExecContext;
using common::kBlockSize;
using common::kMiB;

namespace {

constexpr uint64_t kDeviceBytes = 1024 * kMiB;
constexpr double kAgeUtil = 0.75;
constexpr double kAgeChurn = 3.0;
constexpr uint64_t kMmapFileBytes = 96 * kMiB;
constexpr uint64_t kSyscallOps = 8000;

struct Bed4 {
  benchutil::TestBed bed;
  ExecContext ctx;  // carries the aged timeline forward
};

Bed4 AgedBed(const std::string& fs_name) {
  Bed4 b{MakeBed(fs_name, kDeviceBytes), ExecContext{}};
  aging::AgingConfig config;
  config.target_utilization = kAgeUtil;
  config.write_multiplier = kAgeChurn;
  aging::Geriatrix geriatrix(b.bed.fs.get(), aging::Profile::Agrawal(42), config);
  if (!geriatrix.Run(b.ctx).ok()) {
    std::fprintf(stderr, "aging failed for %s\n", fs_name.c_str());
    std::exit(1);
  }
  return b;
}

// (a) mmap: memcpy at 4 KiB granularity over a fresh mmap'd file.
void MmapRows(const std::string& fs_name, obs::BenchReport& report) {
  Bed4 b = AgedBed(fs_name);
  ExecContext& ctx = b.ctx;
  auto fd = b.bed.fs->Open(ctx, "/mmap_bench", vfs::OpenFlags::Create());
  if (!b.bed.fs->Fallocate(ctx, *fd, 0, kMmapFileBytes).ok()) {
    Row({fs_name, "ENOSPC"});
    return;
  }
  auto ino = b.bed.fs->InodeOf(ctx, *fd);
  auto map = b.bed.engine->Mmap(b.bed.fs.get(), *ino, kMmapFileBytes, true);

  std::vector<uint8_t> buf(kBlockSize, 0x66);
  common::Rng rng(9);
  const uint64_t pages = kMmapFileBytes / kBlockSize;

  auto measure = [&](bool write, bool sequential) {
    const uint64_t t0 = ctx.clock.NowNs();
    for (uint64_t i = 0; i < pages; i++) {
      const uint64_t off = sequential ? i * kBlockSize : rng.NextBelow(pages) * kBlockSize;
      if (write) {
        (void)map->Write(ctx, off, buf.data(), buf.size());
      } else {
        (void)map->Read(ctx, off, buf.data(), buf.size());
      }
    }
    const double secs = static_cast<double>(ctx.clock.NowNs() - t0) / 1e9;
    return static_cast<double>(kMmapFileBytes) / secs / (1024 * 1024);
  };
  const double sw = measure(true, true);
  const double rw = measure(true, false);
  const double sr = measure(false, true);
  const double rr = measure(false, false);
  Row({fs_name, Fmt(sw, 0), Fmt(rw, 0), Fmt(sr, 0), Fmt(rr, 0),
       Fmt(map->HugeMappedFraction() * 100, 0) + "%"});
  report.AddMetric(fs_name, "mmap_seq_wr_mbps", sw);
  report.AddMetric(fs_name, "mmap_rand_wr_mbps", rw);
  report.AddMetric(fs_name, "mmap_seq_rd_mbps", sr);
  report.AddMetric(fs_name, "mmap_rand_rd_mbps", rr);
  report.AddMetric(fs_name, "mmap_huge_pct", map->HugeMappedFraction() * 100);
  report.SetCounters(fs_name, ctx.counters);
}

// (b)/(c) syscalls: 4 KiB appends to 50% of free space, then 4 KiB
// reads/overwrites, fsync every 10 ops.
void SyscallRows(const std::string& fs_name, obs::BenchReport& report) {
  Bed4 b = AgedBed(fs_name);
  ExecContext& ctx = b.ctx;
  // Profile the measurement ops (not the aging prologue): named-lock
  // contention and per-layer attribution land in this fs's report row. The
  // same fs can appear in both the relaxed and strict lineups; AddContention
  // / AddAttribution are last-call-wins, so the strict phase's numbers stand.
  obs::Profiler profiler;
  ctx.AttachProfiler(&profiler);
  auto fd = b.bed.fs->Open(ctx, "/sys_bench", vfs::OpenFlags::Create());
  std::vector<uint8_t> buf(kBlockSize, 0x42);

  // Each measurement builds its whole op stream (data op per index, fsync
  // after every 10th) as one OpBatch and replays it through ExecuteBatch:
  // same ops in the same order as the old scalar loop, so the modeled clock
  // is unchanged, and filesystems with a native batched path (WineFS,
  // ext4-DAX) run it under one lock hold with a memo of resolved paths.
  auto run_ops = [&](auto&& append_op) {
    vfs::OpBatch batch;
    batch.Reserve(kSyscallOps + kSyscallOps / 10);
    for (uint64_t i = 0; i < kSyscallOps; i++) {
      append_op(batch, i);
      if (i % 10 == 9) {
        batch.Fsync(*fd);
      }
    }
    std::vector<vfs::OpResult> results;
    const uint64_t t0 = ctx.clock.NowNs();
    b.bed.fs->ExecuteBatch(ctx, batch, results);
    const double secs = static_cast<double>(ctx.clock.NowNs() - t0) / 1e9;
    return static_cast<double>(kSyscallOps * kBlockSize) / secs / (1024 * 1024);
  };

  common::Rng rng(5);
  // Fill via appends (this is the "seq-write" measurement).
  const double sw = run_ops([&](vfs::OpBatch& batch, uint64_t) {
    batch.Append(*fd, buf.data(), buf.size());
  });
  const uint64_t file_blocks = kSyscallOps;
  const double rw = run_ops([&](vfs::OpBatch& batch, uint64_t) {
    batch.Pwrite(*fd, buf.data(), buf.size(), rng.NextBelow(file_blocks) * kBlockSize);
  });
  const double sr = run_ops([&](vfs::OpBatch& batch, uint64_t i) {
    batch.Pread(*fd, buf.data(), buf.size(), (i % file_blocks) * kBlockSize);
  });
  const double rr = run_ops([&](vfs::OpBatch& batch, uint64_t) {
    batch.Pread(*fd, buf.data(), buf.size(), rng.NextBelow(file_blocks) * kBlockSize);
  });
  Row({fs_name, Fmt(sw, 0), Fmt(rw, 0), Fmt(sr, 0), Fmt(rr, 0)});
  report.AddMetric(fs_name, "posix_seq_wr_mbps", sw);
  report.AddMetric(fs_name, "posix_rand_wr_mbps", rw);
  report.AddMetric(fs_name, "posix_seq_rd_mbps", sr);
  report.AddMetric(fs_name, "posix_rand_rd_mbps", rr);
  report.SetCounters(fs_name, ctx.counters);
  report.AddContention(fs_name, profiler);
  report.AddAttribution(fs_name, profiler);
  ctx.AttachProfiler(nullptr);  // profiler dies with this frame
}

}  // namespace

int main() {
  benchutil::Banner("fig06_throughput: aged read/write throughput, mmap + POSIX",
                    "Figure 6 (a) MMAP, (b) POSIX weak, (c) POSIX strong");
  std::printf("aged to %.0f%% (Agrawal churn %.1fx); MB/s\n", kAgeUtil * 100, kAgeChurn);
  obs::BenchReport report("fig06_throughput");
  report.AddConfig("device_mib", static_cast<double>(kDeviceBytes / kMiB));
  report.AddConfig("aged_utilization", kAgeUtil);
  report.AddConfig("age_churn", kAgeChurn);
  report.AddConfig("mmap_file_mib", static_cast<double>(kMmapFileBytes / kMiB));
  report.AddConfig("syscall_ops", static_cast<double>(kSyscallOps));

  std::printf("\n--- (a) MMAP (memcpy through mappings) ---\n");
  Row({"fs", "seq-wr", "rand-wr", "seq-rd", "rand-rd", "huge"});
  for (const std::string fs_name :
       {"winefs", "pmfs", "nova", "xfs-dax", "splitfs", "ext4-dax"}) {
    MmapRows(fs_name, report);
  }

  std::printf("\n--- (b) POSIX, metadata consistency (weak) ---\n");
  Row({"fs", "seq-wr", "rand-wr", "seq-rd", "rand-rd"});
  for (const std::string fs_name : fsreg::RelaxedLineup()) {
    SyscallRows(fs_name, report);
  }

  std::printf("\n--- (c) POSIX, data + metadata consistency (strong) ---\n");
  Row({"fs", "seq-wr", "rand-wr", "seq-rd", "rand-rd"});
  for (const std::string fs_name : fsreg::StrictLineup()) {
    SyscallRows(fs_name, report);
  }
  std::printf("\nexpected shape: (a) WineFS ~2-3x NOVA and ext4-DAX (hugepages); (b)/(c)\n"
              "WineFS equal or better, ext4/xfs appends penalized by JBD2 fsync.\n");
  benchutil::EmitReport(report);
  return 0;
}
