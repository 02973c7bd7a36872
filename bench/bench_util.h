// Shared bench scaffolding: test beds (device + filesystem + MMU), aging
// helpers, and table formatting. Every figure/table binary uses these so all
// experiments run on identical substrates.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/aging/geriatrix.h"
#include "src/aging/profiles.h"
#include "src/common/units.h"
#include "src/fs/registry.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/gauges.h"
#include "src/obs/profiler.h"
#include "src/obs/report.h"
#include "src/snap/corpus.h"
#include "src/vmem/mmap_engine.h"
#include "src/wload/harness.h"

namespace benchutil {

// Bench-facing alias of the one shared substrate type (src/wload/harness.h):
// benches keep the TestBed name, but there is a single mount/format path.
using TestBed = wload::Bed;

inline TestBed MakeBed(const std::string& fs_name, uint64_t device_bytes,
                       uint32_t num_cpus = 8, uint32_t numa_nodes = 1,
                       uint32_t lock_domains = 1) {
  wload::BedSpec spec;
  spec.fs_name = fs_name;
  spec.device_bytes = device_bytes;
  spec.num_cpus = num_cpus;
  spec.numa_nodes = numa_nodes;
  spec.lock_domains = lock_domains;
  auto bed = wload::MakeBed(spec);
  if (!bed.ok()) {
    std::fprintf(stderr, "mkfs failed for %s\n", fs_name.c_str());
    std::exit(1);
  }
  return std::move(bed.value());
}

// Bed backed by a COW fork of an aged snapshot: mounting runs the
// filesystem's normal recovery against the forked image, and measurement
// writes never touch the shared base, so one corpus image serves any number
// of measurement variants.
inline TestBed MakeBedFromSnapshot(const std::string& fs_name,
                                   const pmem::DeviceSnapshot& snap,
                                   uint32_t num_cpus = 8) {
  wload::BedSpec spec;
  spec.fs_name = fs_name;
  spec.num_cpus = num_cpus;
  spec.snapshot = &snap;
  auto bed = wload::MakeBed(spec);
  if (!bed.ok()) {
    std::fprintf(stderr, "mount-from-snapshot failed for %s\n", fs_name.c_str());
    std::exit(1);
  }
  return std::move(bed.value());
}

// Records the corpus outcome in the bench report so a reader (or the CI
// bench-json check) can tell a warm-corpus run from an inline-aging run:
// hit/miss counts, bytes moved, and real build/load wall time.
inline void AddSnapConfig(obs::BenchReport& report, const snap::Corpus& corpus,
                          const std::string& provenance = std::string()) {
  const snap::CorpusStats& s = corpus.stats();
  report.AddConfig("snap_corpus", corpus.enabled() ? corpus.dir() : "disabled");
  if (!provenance.empty()) {
    report.AddConfig("snap_provenance", provenance);
  }
  report.AddConfig("snap_format_version", static_cast<double>(snap::kSnapFormatVersion));
  report.AddConfig("snap_hits", static_cast<double>(s.hits));
  report.AddConfig("snap_misses", static_cast<double>(s.misses));
  report.AddConfig("snap_rejects", static_cast<double>(s.rejects));
  report.AddConfig("snap_loaded_mib", static_cast<double>(s.loaded_bytes) / (1024.0 * 1024.0));
  report.AddConfig("snap_saved_mib", static_cast<double>(s.saved_bytes) / (1024.0 * 1024.0));
  report.AddConfig("snap_build_wall_ms", static_cast<double>(s.build_wall_ms));
  report.AddConfig("snap_load_wall_ms", static_cast<double>(s.load_wall_ms));
}

// One filesystem's observability bundle for a bench run: the periodic gauge
// sampler and the profiler, whose attribution, contention, zone ring and
// folded stacks feed the report, the Chrome trace and the flame file. Keep
// one FsObs per filesystem (or ctx.Reset() between filesystems) so samples
// never bleed across rows.
struct FsObs {
  obs::TimeSeriesSampler sampler;
  obs::Profiler profiler;
};

// Attaches the bundle to a context and registers the bed's gauge providers
// (the filesystem and its mmap engine) with the sampler.
inline void AttachObs(common::ExecContext& ctx, TestBed& bed, FsObs& fs_obs) {
  fs_obs.sampler.AddProvider(bed.fs.get());
  fs_obs.sampler.AddProvider(bed.engine.get());
  ctx.AttachSampler(&fs_obs.sampler);
  ctx.AttachProfiler(&fs_obs.profiler);
}

inline void DetachObs(common::ExecContext& ctx) {
  ctx.AttachSampler(nullptr);
  ctx.AttachProfiler(nullptr);
}

// Ages the bed's filesystem Geriatrix-style with the caller's context, so any
// attached observability sinks (gauge sampler, profiler) see the aging ops.
// Returns false on failure.
inline bool AgeBedWithContext(TestBed& bed, common::ExecContext& ctx, double utilization,
                              double write_multiplier, uint64_t seed = 42) {
  aging::AgingConfig config;
  config.target_utilization = utilization;
  config.write_multiplier = write_multiplier;
  config.seed = seed;
  aging::Geriatrix geriatrix(bed.fs.get(), aging::Profile::Agrawal(seed), config);
  return geriatrix.Run(ctx).ok();
}

// Ages the bed's filesystem Geriatrix-style. Returns false on failure.
inline bool AgeBed(TestBed& bed, double utilization, double write_multiplier,
                   uint64_t seed = 42) {
  common::ExecContext ctx;
  return AgeBedWithContext(bed, ctx, utilization, write_multiplier, seed);
}

// ---- host-parallel timing ---------------------------------------------------

// One 1-worker and one 4-worker run of a host-parallel measurement.
template <typename Result>
struct SpeedupPair {
  Result w1;
  Result w4;
  double speedup = 0;  // host wall time of w1 over w4
};

// Runs `pairs` alternating 1- and 4-worker measurements (`measure(workers)`),
// requires `identical(w1, w4)` of every pair, and returns the pair with the
// median speedup, where `wall_ns(result)` is a run's host wall time. A
// 4-worker run lasts tens of milliseconds, so one host preemption would
// otherwise decide the ratio. nullopt as soon as a pair is not identical.
template <typename Measure, typename Identical, typename WallNs>
auto MedianSpeedupPair(int pairs, Measure measure, Identical identical, WallNs wall_ns)
    -> std::optional<SpeedupPair<decltype(measure(1u))>> {
  std::vector<SpeedupPair<decltype(measure(1u))>> runs;
  for (int i = 0; i < pairs; i++) {
    SpeedupPair<decltype(measure(1u))> run{measure(1u), measure(4u)};
    if (!identical(run.w1, run.w4)) {
      return std::nullopt;
    }
    const double w4_ns = static_cast<double>(wall_ns(run.w4));
    run.speedup = w4_ns == 0 ? 0.0 : static_cast<double>(wall_ns(run.w1)) / w4_ns;
    runs.push_back(std::move(run));
  }
  std::sort(runs.begin(), runs.end(),
            [](const auto& a, const auto& b) { return a.speedup < b.speedup; });
  return std::move(runs[runs.size() / 2]);
}

// ---- table printing ---------------------------------------------------------

inline void Banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

inline void Row(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& cell : cells) {
    std::printf("%-*s", width, cell.c_str());
  }
  std::printf("\n");
}

inline std::string Fmt(double value, int decimals = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

inline std::string FmtU(uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(value));
  return buf;
}

// ---- structured results -----------------------------------------------------

// Validates and writes BENCH_<name>.json into $BENCH_OUT_DIR (default: cwd).
// Exits non-zero on a schema violation or write failure so the JSON-check
// CTest target catches a rotted reporter.
inline void EmitReport(const obs::BenchReport& report) {
  auto written = report.WriteFile();
  if (!written.ok()) {
    std::fprintf(stderr, "BENCH_%s.json: emit failed: %s\n", report.name().c_str(),
                 std::string(written.status().message()).c_str());
    std::exit(1);
  }
  std::printf("\nresults: %s\n", written->c_str());
}

// Writes TRACE_<bench>.json (Chrome trace-event format) from the profilers'
// zone rings and lock events, next to the bench report. Exits non-zero on
// failure so the trace-check CTest target catches a rotted exporter.
inline void EmitChromeTrace(const std::string& bench_name,
                            const std::vector<obs::NamedProfiler>& profilers) {
  auto written = obs::WriteChromeTrace(bench_name, profilers);
  if (!written.ok()) {
    std::fprintf(stderr, "TRACE_%s.json: emit failed: %s\n", bench_name.c_str(),
                 std::string(written.status().message()).c_str());
    std::exit(1);
  }
  std::printf("trace:   %s\n", written->c_str());
}

// Writes FLAME_<bench>.txt (flamegraph.pl folded-stack format) from the
// profilers' collapsed zone stacks. Exits non-zero on write failure.
inline void EmitFlame(const std::string& bench_name,
                      const std::vector<obs::NamedProfiler>& profilers) {
  auto written = obs::WriteCollapsedStacks(bench_name, profilers);
  if (!written.ok()) {
    std::fprintf(stderr, "FLAME_%s.txt: emit failed: %s\n", bench_name.c_str(),
                 std::string(written.status().message()).c_str());
    std::exit(1);
  }
  std::printf("flame:   %s\n", written->c_str());
}

}  // namespace benchutil

#endif  // BENCH_BENCH_UTIL_H_
