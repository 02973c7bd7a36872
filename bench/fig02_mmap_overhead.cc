// Figure 2: time to memory-map and write a 2 MiB file, with and without
// hugepages, broken into data-copy vs page-fault-handling time. With base
// pages two thirds of the time goes to fault handling; hugepages make the
// whole operation ~2x faster. The breakdown comes from the profiler's zones
// on the simulated timeline, not from dedicated counters: the mapped copy is
// a device zone directly under the write's mmu root, and each fault an
// fscore zone (the filesystem's handler plus the fixed fault charge).
#include "bench/bench_util.h"

using benchutil::Fmt;
using benchutil::MakeBed;
using benchutil::Row;
using common::ExecContext;
using common::kMiB;

namespace {

struct Breakdown {
  double total_us = 0;
  double copy_us = 0;
  double fault_us = 0;
  uint64_t faults = 0;
  common::PerfCounters counters;
};

// Modeled ns of the folded stack `stack` plus every stack nested under it.
uint64_t StackNs(const obs::Profiler& profiler, const std::string& stack) {
  uint64_t ns = 0;
  for (const obs::Profiler::FoldedFrame& frame : profiler.FoldedStacks()) {
    if (frame.stack == stack || frame.stack.rfind(stack + ";", 0) == 0) {
      ns += frame.ns;
    }
  }
  return ns;
}

Breakdown MmapAndWrite2MiB(const std::string& fs_name, obs::Profiler& profiler) {
  auto bed = MakeBed(fs_name, 256 * kMiB);
  ExecContext ctx;
  auto fd = bed.fs->Open(ctx, "/two_mib", vfs::OpenFlags::Create());
  // Size the file with ftruncate so the pages materialize via faults during
  // the mmap writes (the scenario Figure 2 measures).
  (void)bed.fs->Ftruncate(ctx, *fd, 2 * kMiB);
  auto ino = bed.fs->InodeOf(ctx, *fd);
  auto map = bed.engine->Mmap(bed.fs.get(), *ino, 2 * kMiB, /*writable=*/true);

  std::vector<uint8_t> buf(2 * kMiB, 0x77);
  // Never rewind the simulated clock: SimMutex watermarks from setup would
  // otherwise be double counted. Measure as a delta instead, and only attach
  // the profiler for the measured phase.
  const uint64_t t0 = ctx.clock.NowNs();
  ctx.counters.Reset();
  ctx.AttachProfiler(&profiler);
  (void)map->Write(ctx, 0, buf.data(), buf.size());
  ctx.AttachProfiler(nullptr);

  Breakdown out;
  out.total_us = static_cast<double>(ctx.clock.NowNs() - t0) / 1000.0;
  out.copy_us = static_cast<double>(StackNs(profiler, "mmu;device")) / 1000.0;
  out.fault_us = static_cast<double>(StackNs(profiler, "mmu;fscore")) / 1000.0;
  out.faults = ctx.counters.total_page_faults();
  out.counters = ctx.counters;
  return out;
}

void Report(obs::BenchReport& report, const std::string& fs, const Breakdown& b,
            const obs::Profiler& profiler) {
  report.AddMetric(fs, "total_us", b.total_us);
  report.AddMetric(fs, "copy_us", b.copy_us);
  report.AddMetric(fs, "fault_us", b.fault_us);
  report.AddMetric(fs, "fault_share_pct", b.total_us > 0 ? b.fault_us / b.total_us * 100 : 0);
  report.SetCounters(fs, b.counters);
  report.AddAttribution(fs, profiler);
}

}  // namespace

int main() {
  benchutil::Banner("fig02_mmap_overhead: memory-mapping overhead breakdown",
                    "Figure 2 (copy data vs page fault handling, 2 MiB file)");
  Row({"mapping", "total_us", "copy_us", "fault_us", "faults", "fault_share"});
  // WineFS's hugepage-allocating fault => one 2 MiB fault. The
  // alignment-unaware xfs-DAX => 512 base-page faults.
  // Every op sampled: the one mapped write is the whole measurement.
  obs::Profiler huge_profiler(/*sample_shift=*/0);
  obs::Profiler base_profiler(/*sample_shift=*/0);
  const Breakdown huge = MmapAndWrite2MiB("winefs", huge_profiler);
  const Breakdown base = MmapAndWrite2MiB("xfs-dax", base_profiler);
  Row({"hugepages", Fmt(huge.total_us, 1), Fmt(huge.copy_us, 1), Fmt(huge.fault_us, 1),
       benchutil::FmtU(huge.faults), Fmt(huge.fault_us / huge.total_us * 100, 1) + "%"});
  Row({"base-pages", Fmt(base.total_us, 1), Fmt(base.copy_us, 1), Fmt(base.fault_us, 1),
       benchutil::FmtU(base.faults), Fmt(base.fault_us / base.total_us * 100, 1) + "%"});
  std::printf("\nspeedup with hugepages: %.2fx (paper: ~2x; base-page fault share ~2/3)\n",
              base.total_us / huge.total_us);

  obs::BenchReport report("fig02_mmap_overhead");
  report.AddConfig("file_mib", 2.0);
  report.AddConfig("device_mib", 256.0);
  report.AddConfig("breakdown_source", "profile_zones");
  Report(report, "winefs", huge, huge_profiler);
  Report(report, "xfs-dax", base, base_profiler);
  benchutil::EmitReport(report);
  return 0;
}
