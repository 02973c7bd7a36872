// Figure 4: latency CDF of random reads from a large, pre-faulted,
// memory-mapped PM array with 2 MiB vs 4 KiB mappings. No page faults occur;
// the difference is TLB misses whose page walks knock the hot data out of the
// processor cache (paper: ~10x higher median with base pages).
#include "src/common/histogram.h"

#include "bench/bench_util.h"
#include "src/vmem/mmap_engine.h"

using benchutil::Fmt;
using benchutil::MakeBed;
using benchutil::Row;
using common::ExecContext;
using common::kMiB;

namespace {

constexpr uint64_t kArrayBytes = 64 * kMiB;
// Hot set of distinct cachelines re-read in random order (like Fig 8's
// 125K-key hot set): small enough to be LLC-resident when nothing evicts it.
constexpr uint64_t kHotLines = 80000;
constexpr uint64_t kReads = 400000;

struct CdfResult {
  common::LatencyHistogram hist;
  common::PerfCounters counters;
  uint64_t sim_end_ns = 0;
};

CdfResult MeasureCdf(const std::string& fs_name) {
  auto bed = MakeBed(fs_name, 256 * kMiB);
  ExecContext ctx;
  auto fd = bed.fs->Open(ctx, "/array", vfs::OpenFlags::Create());
  (void)bed.fs->Fallocate(ctx, *fd, 0, kArrayBytes);
  auto ino = bed.fs->InodeOf(ctx, *fd);
  auto map = bed.engine->Mmap(bed.fs.get(), *ino, kArrayBytes, /*writable=*/true);
  (void)map->Prefault(ctx, /*write=*/true);

  // Hot-set line offsets spread over the whole array.
  common::Rng rng(13);
  std::vector<uint64_t> hot(kHotLines);
  for (auto& line : hot) {
    line = common::RoundDown(rng.NextBelow(kArrayBytes - 64), 64);
  }
  CdfResult out;
  // The whole read sequence is known upfront (same rng draw order as issuing
  // the loads one by one), so it goes through the batched line API.
  std::vector<vmem::LineOp> ops(kReads);
  for (auto& op : ops) {
    op.offset = hot[rng.NextBelow(kHotLines)];
  }
  ctx.counters.Reset();
  (void)map->AccessLines(ctx, ops.data(), ops.size(), /*write=*/false);
  for (uint64_t i = kHotLines; i < kReads; i++) {  // warmup: first pass populates LLC
    out.hist.Record(ops[i].latency_ns);
  }
  std::printf("  [%s] faults during reads: %llu, TLB walks: %llu, LLC miss%%: %.1f\n",
              fs_name.c_str(),
              static_cast<unsigned long long>(ctx.counters.total_page_faults()),
              static_cast<unsigned long long>(ctx.counters.tlb_l2_misses),
              100.0 * static_cast<double>(ctx.counters.llc_misses) /
                  static_cast<double>(ctx.counters.llc_misses + ctx.counters.llc_hits));
  out.counters = ctx.counters;
  out.sim_end_ns = ctx.clock.NowNs();
  return out;
}

void Report(obs::BenchReport& report, const std::string& fs, const CdfResult& r) {
  report.AddMetric(fs, "median_ns", static_cast<double>(r.hist.MedianNanos()));
  report.AddMetric(fs, "p90_ns", static_cast<double>(r.hist.Percentile(90)));
  report.AddMetric(fs, "p99_ns", static_cast<double>(r.hist.Percentile(99)));
  report.AddMetric(fs, "mean_ns", r.hist.MeanNanos());
  report.ForFs(fs).latencies.push_back(obs::SummarizeHistogram("load_line", r.hist));
  // Final simulated-clock reading: fig04_golden and the CI golden guard diff
  // this (plus the counters) against tests/golden/BENCH_fig04_tlb_cdf.json.
  report.AddMetric(fs, "sim_clock_end_ns", static_cast<double>(r.sim_end_ns));
  report.SetCounters(fs, r.counters);
}

}  // namespace

int main() {
  benchutil::Banner("fig04_tlb_cdf: pre-faulted random-read latency, 2MB vs 4KB pages",
                    "Figure 4 (TLB-miss-induced cache pollution)");
  std::printf("array=%lu MiB, hot set=%lu lines, reads=%lu\n\n", kArrayBytes / kMiB,
              static_cast<unsigned long>(kHotLines), static_cast<unsigned long>(kReads));
  const CdfResult huge_result = MeasureCdf("winefs");   // aligned extents -> 2 MiB mappings
  const CdfResult base_result = MeasureCdf("xfs-dax");  // never aligned -> 4 KiB mappings
  const common::LatencyHistogram& huge = huge_result.hist;
  const common::LatencyHistogram& base = base_result.hist;

  Row({"mapping", "median_ns", "p90_ns", "p99_ns", "mean_ns"});
  Row({"2MB-pages", benchutil::FmtU(huge.MedianNanos()), benchutil::FmtU(huge.Percentile(90)),
       benchutil::FmtU(huge.Percentile(99)), Fmt(huge.MeanNanos(), 1)});
  Row({"4KB-pages", benchutil::FmtU(base.MedianNanos()), benchutil::FmtU(base.Percentile(90)),
       benchutil::FmtU(base.Percentile(99)), Fmt(base.MeanNanos(), 1)});
  std::printf("\nmedian ratio 4KB/2MB: %.1fx (paper: ~10x)\n",
              static_cast<double>(base.MedianNanos()) /
                  static_cast<double>(huge.MedianNanos()));
  std::printf("\nCDF rows (latency_ns cumulative_fraction)\n-- 2MB pages --\n%s",
              huge.CdfRows().c_str());
  std::printf("-- 4KB pages --\n%s", base.CdfRows().c_str());

  obs::BenchReport report("fig04_tlb_cdf");
  report.AddConfig("array_mib", static_cast<double>(kArrayBytes / kMiB));
  report.AddConfig("hot_lines", static_cast<double>(kHotLines));
  report.AddConfig("reads", static_cast<double>(kReads));
  Report(report, "winefs", huge_result);
  Report(report, "xfs-dax", base_result);
  benchutil::EmitReport(report);
  return 0;
}
