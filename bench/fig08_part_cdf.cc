// Figure 8: latency CDF of P-ART (persistent adaptive radix tree) lookups on
// a pre-faulted, memory-mapped pool across aged filesystems. Lookups hit a
// hot set of keys in random order; no faults occur in the critical path.
// Paper: WineFS's median is 56% lower than NOVA's (fewer TLB + LLC misses).
#include <map>

#include "bench/bench_util.h"
#include "src/common/histogram.h"
#include "src/wload/part.h"

using benchutil::Fmt;
using benchutil::MakeBed;
using benchutil::Row;
using common::ExecContext;
using common::kMiB;

namespace {

constexpr uint64_t kDeviceBytes = 1024 * kMiB;
constexpr uint64_t kInserts = 600000;   // scaled from the paper's 60M
constexpr uint64_t kHotKeys = 60000;    // hot set large enough to exceed the TLB reach
constexpr uint64_t kLookups = 600000;   // scaled from 60M lookups

struct CdfResult {
  common::LatencyHistogram hist;
  uint64_t tlb_walks = 0;
  uint64_t llc_misses = 0;
  common::PerfCounters counters;
  uint64_t sim_end_ns = 0;
};

CdfResult Measure(const std::string& fs_name) {
  auto bed = MakeBed(fs_name, kDeviceBytes);
  ExecContext ctx;
  aging::AgingConfig config;
  config.target_utilization = 0.70;
  config.write_multiplier = 2.0;
  aging::Geriatrix geriatrix(bed.fs.get(), aging::Profile::Agrawal(42), config);
  if (!geriatrix.Run(ctx).ok()) {
    std::exit(1);
  }

  wload::PArt part(bed.fs.get(), bed.engine.get(),
                   wload::PArtConfig{.pool_bytes = 160 * kMiB, .prefault = true});
  if (!part.Open(ctx).ok()) {
    std::fprintf(stderr, "part open failed on %s\n", fs_name.c_str());
    std::exit(1);
  }
  // Inserts set up the page tables (paper: "page-table mappings are setup
  // during inserts").
  common::Rng rng(3);
  for (uint64_t i = 0; i < kInserts; i++) {
    (void)part.Insert(ctx, i * 2654435761ull % (1ull << 32), i);
  }
  // Hot-set lookups.
  std::vector<uint64_t> hot(kHotKeys);
  for (uint64_t i = 0; i < kHotKeys; i++) {
    const uint64_t idx = rng.NextBelow(kInserts);
    hot[i] = idx * 2654435761ull % (1ull << 32);
  }
  CdfResult out;
  const auto counters0 = ctx.counters;
  for (uint64_t i = 0; i < kLookups; i++) {
    const uint64_t key = hot[rng.NextBelow(kHotKeys)];
    const uint64_t t0 = ctx.clock.NowNs();
    (void)part.Lookup(ctx, key);
    if (i >= kHotKeys) {  // skip the cache-warmup pass
      out.hist.Record(ctx.clock.NowNs() - t0);
    }
  }
  out.tlb_walks = ctx.counters.tlb_l2_misses - counters0.tlb_l2_misses;
  out.llc_misses = ctx.counters.llc_misses - counters0.llc_misses;
  out.counters = ctx.counters;
  out.sim_end_ns = ctx.clock.NowNs();
  return out;
}

}  // namespace

int main() {
  benchutil::Banner("fig08_part_cdf: P-ART lookup latency distribution (aged FSs)",
                    "Figure 8");
  std::printf("inserts=%lu, hot keys=%lu, lookups=%lu, pre-faulted pool\n\n",
              static_cast<unsigned long>(kInserts), static_cast<unsigned long>(kHotKeys),
              static_cast<unsigned long>(kLookups));
  Row({"fs", "median_ns", "p90_ns", "p99_ns", "tlb_walks", "llc_miss"});
  obs::BenchReport report("fig08_part_cdf");
  report.AddConfig("device_mib", static_cast<double>(kDeviceBytes / kMiB));
  report.AddConfig("inserts", static_cast<double>(kInserts));
  report.AddConfig("hot_keys", static_cast<double>(kHotKeys));
  report.AddConfig("lookups", static_cast<double>(kLookups));
  std::map<std::string, CdfResult> results;
  for (const std::string fs_name : {"winefs", "ext4-dax", "xfs-dax", "splitfs", "nova"}) {
    CdfResult r = Measure(fs_name);
    Row({fs_name, benchutil::FmtU(r.hist.MedianNanos()), benchutil::FmtU(r.hist.Percentile(90)),
         benchutil::FmtU(r.hist.Percentile(99)), benchutil::FmtU(r.tlb_walks),
         benchutil::FmtU(r.llc_misses)});
    report.AddMetric(fs_name, "median_ns", static_cast<double>(r.hist.MedianNanos()));
    report.AddMetric(fs_name, "p90_ns", static_cast<double>(r.hist.Percentile(90)));
    report.AddMetric(fs_name, "p99_ns", static_cast<double>(r.hist.Percentile(99)));
    report.AddMetric(fs_name, "tlb_walks", static_cast<double>(r.tlb_walks));
    report.AddMetric(fs_name, "llc_misses", static_cast<double>(r.llc_misses));
    // Final simulated-clock reading, diffed against its golden report by CI.
    report.AddMetric(fs_name, "sim_clock_end_ns", static_cast<double>(r.sim_end_ns));
    report.ForFs(fs_name).latencies.push_back(obs::SummarizeHistogram("part_lookup", r.hist));
    report.SetCounters(fs_name, r.counters);
    results[fs_name] = std::move(r);
  }
  std::printf("\nWineFS median vs NOVA: %.0f%% lower (paper: 56%% lower)\n",
              100.0 * (1.0 - static_cast<double>(results["winefs"].hist.MedianNanos()) /
                                 static_cast<double>(results["nova"].hist.MedianNanos())));
  std::printf("\nCDF rows (latency_ns cumulative_fraction)\n");
  for (const std::string fs_name : {"winefs", "nova"}) {
    std::printf("-- %s --\n%s", fs_name.c_str(), results[fs_name].hist.CdfRows().c_str());
  }
  benchutil::EmitReport(report);
  return 0;
}
