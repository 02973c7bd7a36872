// Host-side simulator throughput bench: how many modeled accesses per host
// second the translation hot path sustains, per path (L1 TLB hit, STLB hit,
// page walk, fault, bulk copy, fig04-style per-line random reads, and random
// reads over a mapping larger than the host caches). Modeled fields (sim
// clock, counters, op counts) depend on the inputs alone; host_* metrics are
// whatever the machine did. BENCH_simperf.json tracks the numbers over time.
// The speed of the TLB/LLC structures against their reference oracle is
// gated by tests/simdiff_speed_test.cc on this file's per_line stream.
#include <chrono>

#include "bench/bench_util.h"
#include "src/vmem/mmap_engine.h"

using benchutil::Fmt;
using benchutil::FmtU;
using benchutil::MakeBed;
using benchutil::Row;
using common::ExecContext;
using common::kMiB;

namespace {

uint64_t HostNowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

struct PathResult {
  std::string name;
  uint64_t modeled_ops = 0;  // accesses (or bytes for the bulk paths)
  uint64_t host_ns = 1;
  uint64_t sim_end_ns = 0;
  common::PerfCounters counters;
};

void AddRow(obs::BenchReport& report, const PathResult& r) {
  const double ns_per_op = static_cast<double>(r.host_ns) / static_cast<double>(r.modeled_ops);
  const double mops = static_cast<double>(r.modeled_ops) * 1000.0 / static_cast<double>(r.host_ns);
  Row({r.name, FmtU(r.modeled_ops), Fmt(static_cast<double>(r.host_ns) / 1e6, 1),
       Fmt(ns_per_op, 1), Fmt(mops, 2)});
  // Modeled fields: a function of the inputs. host_* fields: whatever the
  // machine did today.
  report.AddMetric(r.name, "modeled_ops", static_cast<double>(r.modeled_ops));
  report.AddMetric(r.name, "sim_clock_end_ns", static_cast<double>(r.sim_end_ns));
  report.AddMetric(r.name, "host_wall_ns", static_cast<double>(r.host_ns));
  report.AddMetric(r.name, "host_ns_per_op", ns_per_op);
  report.AddMetric(r.name, "host_mops_per_sec", mops);
  report.SetCounters(r.name, r.counters);
}

// Round-robin single-line loads over `hot_pages` distinct pages (one line per
// page), batched through AccessLines. The page count selects the modeled
// path: <= L1 TLB capacity -> L1 hits, <= L2 capacity -> STLB hits, beyond
// that -> page walks.
PathResult LineLoop(const std::string& name, const std::string& fs_name, uint64_t array_bytes,
                    uint64_t hot_pages, uint64_t ops_total) {
  auto bed = MakeBed(fs_name, 4 * array_bytes);
  ExecContext ctx;
  auto fd = bed.fs->Open(ctx, "/array", vfs::OpenFlags::Create());
  (void)bed.fs->Fallocate(ctx, *fd, 0, array_bytes);
  auto ino = bed.fs->InodeOf(ctx, *fd);
  auto map = bed.engine->Mmap(bed.fs.get(), *ino, array_bytes, /*writable=*/true);
  (void)map->Prefault(ctx, /*write=*/true);

  constexpr uint64_t kBatch = 8192;
  std::vector<vmem::LineOp> ops(kBatch);
  PathResult out;
  out.name = name;
  ctx.counters.Reset();
  uint64_t issued = 0;
  uint64_t next_page = 0;
  const uint64_t host_start = HostNowNs();
  while (issued < ops_total) {
    const uint64_t n = std::min(kBatch, ops_total - issued);
    for (uint64_t i = 0; i < n; i++) {
      ops[i].offset = next_page * common::kBlockSize;
      next_page = next_page + 1 == hot_pages ? 0 : next_page + 1;
    }
    (void)map->AccessLines(ctx, ops.data(), n, /*write=*/false);
    issued += n;
  }
  out.host_ns = std::max<uint64_t>(1, HostNowNs() - host_start);
  out.modeled_ops = ops_total;
  out.sim_end_ns = ctx.clock.NowNs();
  out.counters = ctx.counters;
  return out;
}

// fig04-style headline: random single-line reads (a pointer-chase / index-node
// pattern) over a hot set of base pages in a 4 KB-faulting mapping — the aged
// filesystem's world, where the paper's Figure 4 lives. The hot set is sized
// inside the second-level TLB but far beyond L1, so the dominant modeled event
// is an STLB hit with an L1 promotion: the flat structures only write into
// preallocated arrays there, where list/map structures would allocate (list
// node + hash node, plus an eviction's frees) on every access.
PathResult PerLineRandom() {
  constexpr uint64_t kArrayBytes = 64 * kMiB;
  constexpr uint64_t kHotPages = 1300;
  constexpr uint64_t kReads = 400000;
  auto bed = MakeBed("xfs-dax", 256 * kMiB);
  ExecContext ctx;
  auto fd = bed.fs->Open(ctx, "/array", vfs::OpenFlags::Create());
  (void)bed.fs->Fallocate(ctx, *fd, 0, kArrayBytes);
  auto ino = bed.fs->InodeOf(ctx, *fd);
  auto map = bed.engine->Mmap(bed.fs.get(), *ino, kArrayBytes, /*writable=*/true);
  (void)map->Prefault(ctx, /*write=*/true);

  common::Rng rng(13);
  const uint64_t pages_total = kArrayBytes / common::kBlockSize;
  std::vector<uint64_t> hot(kHotPages);
  for (auto& line : hot) {
    // One line per hot page, at a random line offset within it.
    line = rng.NextBelow(pages_total) * common::kBlockSize +
           common::RoundDown(rng.NextBelow(common::kBlockSize - 64), 64);
  }
  std::vector<vmem::LineOp> ops(kReads);
  for (auto& op : ops) {
    op.offset = hot[rng.NextBelow(kHotPages)];
  }
  PathResult out;
  out.name = "per_line";
  ctx.counters.Reset();
  const uint64_t host_start = HostNowNs();
  (void)map->AccessLines(ctx, ops.data(), ops.size(), /*write=*/false);
  out.host_ns = std::max<uint64_t>(1, HostNowNs() - host_start);
  out.modeled_ops = kReads;
  out.sim_end_ns = ctx.clock.NowNs();
  out.counters = ctx.counters;
  return out;
}

// mmap_aged's ext4-DAX shape: random single-line reads over a 16 MiB
// 4 KB-faulting mapping, 512 per AccessLines call. Nothing is prefaulted, so
// the early calls take faults and the rest mix STLB misses (4096 pages
// against 1536 entries) with LLC misses. Unlike the rows above, the device
// lines and simulated-LLC sets touched outgrow a host core's L2, so every op
// also waits on host memory: the path AccessLines' prefetch pipeline hides.
PathResult RandomLines() {
  constexpr uint64_t kArrayBytes = 16 * kMiB;
  constexpr uint64_t kBatch = 512;
  constexpr uint64_t kReads = 1024 * kBatch;
  auto bed = MakeBed("xfs-dax", 4 * kArrayBytes);
  ExecContext ctx;
  auto fd = bed.fs->Open(ctx, "/array", vfs::OpenFlags::Create());
  (void)bed.fs->Fallocate(ctx, *fd, 0, kArrayBytes);
  auto ino = bed.fs->InodeOf(ctx, *fd);
  auto map = bed.engine->Mmap(bed.fs.get(), *ino, kArrayBytes, /*writable=*/true);

  common::Rng rng(17);
  std::vector<vmem::LineOp> ops(kReads);
  for (auto& op : ops) {
    op.offset = rng.NextBelow(kArrayBytes / common::kCacheline) * common::kCacheline;
  }
  PathResult out;
  out.name = "random_lines";
  ctx.counters.Reset();
  const uint64_t host_start = HostNowNs();
  for (uint64_t i = 0; i < kReads; i += kBatch) {
    (void)map->AccessLines(ctx, ops.data() + i, kBatch, /*write=*/false);
  }
  out.host_ns = std::max<uint64_t>(1, HostNowNs() - host_start);
  out.modeled_ops = kReads;
  out.sim_end_ns = ctx.clock.NowNs();
  out.counters = ctx.counters;
  return out;
}

// Fault path: prefault a fresh never-aligned (4 KB-faulting) mapping; one
// modeled op = one page fault.
PathResult FaultPath() {
  constexpr uint64_t kArrayBytes = 64 * kMiB;
  auto bed = MakeBed("xfs-dax", 256 * kMiB);
  ExecContext ctx;
  auto fd = bed.fs->Open(ctx, "/array", vfs::OpenFlags::Create());
  (void)bed.fs->Fallocate(ctx, *fd, 0, kArrayBytes);
  auto ino = bed.fs->InodeOf(ctx, *fd);
  auto map = bed.engine->Mmap(bed.fs.get(), *ino, kArrayBytes, /*writable=*/true);
  PathResult out;
  out.name = "fault_4k";
  ctx.counters.Reset();
  const uint64_t host_start = HostNowNs();
  (void)map->Prefault(ctx, /*write=*/true);
  out.host_ns = std::max<uint64_t>(1, HostNowNs() - host_start);
  out.modeled_ops = ctx.counters.total_page_faults();
  out.sim_end_ns = ctx.clock.NowNs();
  out.counters = ctx.counters;
  return out;
}

// Bulk copy through a hugepage mapping; one modeled op = one byte moved.
PathResult BulkPath(bool write) {
  constexpr uint64_t kArrayBytes = 64 * kMiB;
  constexpr uint64_t kIters = 8;
  auto bed = MakeBed("winefs", 256 * kMiB);
  ExecContext ctx;
  auto fd = bed.fs->Open(ctx, "/array", vfs::OpenFlags::Create());
  (void)bed.fs->Fallocate(ctx, *fd, 0, kArrayBytes);
  auto ino = bed.fs->InodeOf(ctx, *fd);
  auto map = bed.engine->Mmap(bed.fs.get(), *ino, kArrayBytes, /*writable=*/true);
  (void)map->Prefault(ctx, /*write=*/true);
  std::vector<uint8_t> buf(kArrayBytes, 0xab);
  PathResult out;
  out.name = write ? "bulk_write" : "bulk_read";
  ctx.counters.Reset();
  const uint64_t host_start = HostNowNs();
  for (uint64_t i = 0; i < kIters; i++) {
    if (write) {
      (void)map->Write(ctx, 0, buf.data(), kArrayBytes);
    } else {
      (void)map->Read(ctx, 0, buf.data(), kArrayBytes);
    }
  }
  out.host_ns = std::max<uint64_t>(1, HostNowNs() - host_start);
  out.modeled_ops = kIters * kArrayBytes;
  out.sim_end_ns = ctx.clock.NowNs();
  out.counters = ctx.counters;
  return out;
}

}  // namespace

int main() {
  benchutil::Banner("simperf: host throughput of the simulation hot path",
                    "host-cost methodology (DESIGN.md); modeled output must not depend on it");
  Row({"path", "modeled_ops", "host_ms", "host_ns/op", "Mops/s"});

  obs::BenchReport report("simperf");
  // 48 hot pages fit the 64-entry L1; 512 fit the 1536-entry L2 but not L1;
  // 4096 overflow the L2 and walk every access.
  AddRow(report, LineLoop("tlb_l1_hit", "xfs-dax", 16 * kMiB, 48, 2000000));
  AddRow(report, LineLoop("stlb_hit", "xfs-dax", 16 * kMiB, 512, 1000000));
  AddRow(report, LineLoop("walk", "xfs-dax", 32 * kMiB, 4096, 500000));
  AddRow(report, FaultPath());
  AddRow(report, BulkPath(/*write=*/false));
  AddRow(report, BulkPath(/*write=*/true));
  AddRow(report, PerLineRandom());
  AddRow(report, RandomLines());
  benchutil::EmitReport(report);
  return 0;
}
