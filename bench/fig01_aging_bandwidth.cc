// Figure 1: write bandwidth to memory-mapped files on new (a) vs aged (b)
// filesystems, as capacity utilization grows. The paper's headline: ext4-DAX
// and NOVA lose ~50% of bandwidth once aged past ~60% utilization; WineFS is
// flat. Sequential memcpy() writes to a fresh mmap'd file (§5.1/§5.3 setup,
// 100 GiB partition scaled to 1 GiB here).
//
// Aged images come from the snapshot corpus (src/snap): with WINEFS_SNAP_DIR
// set and warm, the whole Geriatrix phase is skipped and every measurement
// runs on a COW fork of a stored image; cold or disabled, the aging chain is
// built inline (and saved when a corpus is configured). Reported metrics are
// identical either way because measurements always run on forks of the same
// per-step snapshots.
#include <deque>
#include <iterator>
#include <tuple>
#include <utility>

#include "bench/bench_util.h"

using benchutil::Fmt;
using benchutil::FsObs;
using benchutil::MakeBed;
using benchutil::MakeBedFromSnapshot;
using benchutil::Row;
using common::ExecContext;
using common::kMiB;

namespace {

constexpr uint64_t kDeviceBytes = 1024 * kMiB;
constexpr uint64_t kBenchFileBytes = 64 * kMiB;
constexpr uint32_t kNumCpus = 8;
constexpr uint64_t kSeed = 42;
// Non-zero utilization steps of each aging chain (util 0 is a fresh mkfs —
// nothing to age, nothing to store).
constexpr double kUtils[] = {0.30, 0.60, 0.90};

struct Sample {
  double gbps = 0;
  double huge_fraction = 0;
  bool ok = false;
};

aging::AgingConfig SweepAgingConfig() {
  aging::AgingConfig config;
  config.seed = kSeed;
  return config;
}

// Creates a file of kBenchFileBytes, primes it (so first-touch zeroing of
// unwritten extents happens untimed, for every filesystem alike), then maps
// it FRESH and writes it sequentially with memcpy. Page faults are in the
// timed path — that is Figure 1's effect — but one-time zeroing is not.
// Counters accrue into `ctx` (a per-filesystem measurement context, shared by
// cold and warm corpus runs, so reports match by construction).
Sample MeasureMmapWriteBandwidth(benchutil::TestBed& bed, ExecContext& ctx) {
  auto fd = bed.fs->Open(ctx, "/bench_target", vfs::OpenFlags::Create());
  if (!fd.ok()) {
    return {};
  }
  if (!bed.fs->Fallocate(ctx, *fd, 0, kBenchFileBytes).ok()) {
    return {};
  }
  auto ino = bed.fs->InodeOf(ctx, *fd);
  std::vector<uint8_t> buf(1 * kMiB, 0x5a);
  {
    auto prime = bed.engine->Mmap(bed.fs.get(), *ino, kBenchFileBytes, /*writable=*/true);
    for (uint64_t off = 0; off < kBenchFileBytes; off += buf.size()) {
      (void)prime->Write(ctx, off, buf.data(), buf.size());
    }
    prime->UnmapAll(ctx);
  }
  auto map = bed.engine->Mmap(bed.fs.get(), *ino, kBenchFileBytes, /*writable=*/true);

  const uint64_t start = ctx.clock.NowNs();
  for (uint64_t off = 0; off < kBenchFileBytes; off += buf.size()) {
    if (!map->Write(ctx, off, buf.data(), buf.size()).ok()) {
      return {};
    }
  }
  const double seconds = static_cast<double>(ctx.clock.NowNs() - start) / 1e9;
  Sample sample;
  sample.gbps = static_cast<double>(kBenchFileBytes) / seconds / 1e9;
  sample.huge_fraction = map->HugeMappedFraction();
  sample.ok = true;
  (void)bed.fs->Close(ctx, *fd);
  (void)bed.fs->Unlink(ctx, "/bench_target");
  return sample;
}

// Corpus keys for one filesystem's aging chain (one per kUtils step).
std::vector<snap::ImageKey> ChainKeys(const std::string& fs_name, double churn) {
  std::vector<snap::ImageKey> keys;
  for (double util : kUtils) {
    snap::ImageKey key;
    key.fs = fs_name;
    key.device_bytes = kDeviceBytes;
    key.num_cpus = kNumCpus;
    key.numa_nodes = 1;
    key.profile = "agrawal";
    key.seed = kSeed;
    key.utilization = util;
    key.churn = churn;
    key.detail = aging::AgingProvenance(SweepAgingConfig());
    keys.push_back(key);
  }
  return keys;
}

// Builds one aging chain inline: mkfs, then age step by step, unmounting
// around each snapshot so every stored image is a clean (fsck-able)
// filesystem. `obs_ctx` carries any attached observability sinks so the
// aging timeline lands in the report on cold runs.
common::Status BuildChain(const std::string& fs_name, double churn, ExecContext& ctx,
                          benchutil::FsObs* fs_obs,
                          const snap::Corpus::SaveStepFn& save_step) {
  auto bed = MakeBed(fs_name, kDeviceBytes, kNumCpus);
  if (fs_obs != nullptr) {
    benchutil::AttachObs(ctx, bed, *fs_obs);
  }
  aging::Geriatrix geriatrix(bed.fs.get(), aging::Profile::Agrawal(kSeed),
                             SweepAgingConfig());
  for (size_t i = 0; i < std::size(kUtils); i++) {
    auto stats = geriatrix.AgeToUtilization(ctx, kUtils[i], churn);
    if (!stats.ok()) {
      if (fs_obs != nullptr) {
        benchutil::DetachObs(ctx);
        fs_obs->sampler.ClearProviders();
      }
      return stats.status();
    }
    RETURN_IF_ERROR(bed.fs->Unmount(ctx));
    save_step(i, bed.dev->Snapshot());
    RETURN_IF_ERROR(bed.fs->Mount(ctx));
  }
  if (fs_obs != nullptr) {
    benchutil::DetachObs(ctx);
    fs_obs->sampler.ClearProviders();
  }
  return common::OkStatus();
}

// The aged sweep (the interesting aging timeline) is instrumented when
// `obs_out` is non-null: on cold runs the gauge sampler tracks fragmentation
// as churn progresses and the profiler's zones feed the attribution section
// and the Chrome-trace export; warm runs have no aging timeline (that is the
// point) and profile only the measurement.
void RunSweep(bool aged, snap::Corpus& corpus, obs::BenchReport& report,
              std::deque<std::pair<std::string, FsObs>>* obs_out) {
  const double churn = aged ? 3.0 : 0.0;  // new: fill only; aged: churn 3x/step
  std::printf("\n--- %s file systems ---\n", aged ? "(b) aged" : "(a) new");
  Row({"fs", "util%", "GB/s", "hugepage%"});
  for (const std::string fs_name : {"ext4-dax", "nova", "winefs"}) {
    FsObs* fs_obs = nullptr;
    if (obs_out != nullptr) {
      obs_out->emplace_back(std::piecewise_construct, std::forward_as_tuple(fs_name),
                            std::forward_as_tuple());
      fs_obs = &obs_out->back().second;
    }
    ExecContext build_ctx;
    auto snaps = corpus.LoadOrBuildSweep(
        ChainKeys(fs_name, churn), [&](const snap::Corpus::SaveStepFn& save_step) {
          return BuildChain(fs_name, churn, build_ctx, fs_obs, save_step);
        });

    // Measurement contexts feed the report counters; aging/build work does
    // not, so cold and warm corpus runs report identical numbers.
    ExecContext ctx;
    {
      // util 0: fresh mkfs, no aging chain involved.
      auto bed = MakeBed(fs_name, kDeviceBytes, kNumCpus);
      if (fs_obs != nullptr) {
        benchutil::AttachObs(ctx, bed, *fs_obs);
      }
      const Sample s = MeasureMmapWriteBandwidth(bed, ctx);
      Row({fs_name, "0", s.ok ? Fmt(s.gbps) : "FAIL",
           s.ok ? Fmt(s.huge_fraction * 100, 1) : "-"});
      const std::string key = std::string(aged ? "aged" : "new") + "_util0";
      report.AddMetric(fs_name, key + "_gbps", s.gbps);
      report.AddMetric(fs_name, key + "_huge_pct", s.huge_fraction * 100);
      if (fs_obs != nullptr) {
        benchutil::DetachObs(ctx);
        fs_obs->sampler.ClearProviders();
      }
    }
    for (size_t i = 0; i < std::size(kUtils); i++) {
      const double util = kUtils[i];
      if (!snaps.ok() || !(*snaps)[i].valid()) {
        Row({fs_name, Fmt(util * 100, 0), "ENOSPC", "-"});
        continue;
      }
      auto bed = MakeBedFromSnapshot(fs_name, (*snaps)[i], kNumCpus);
      if (fs_obs != nullptr) {
        benchutil::AttachObs(ctx, bed, *fs_obs);
      }
      const Sample s = MeasureMmapWriteBandwidth(bed, ctx);
      Row({fs_name, Fmt(util * 100, 0), s.ok ? Fmt(s.gbps) : "FAIL",
           s.ok ? Fmt(s.huge_fraction * 100, 1) : "-"});
      const std::string key =
          std::string(aged ? "aged" : "new") + "_util" + Fmt(util * 100, 0);
      report.AddMetric(fs_name, key + "_gbps", s.gbps);
      report.AddMetric(fs_name, key + "_huge_pct", s.huge_fraction * 100);
      if (fs_obs != nullptr) {
        benchutil::DetachObs(ctx);
        fs_obs->sampler.ClearProviders();
      }
    }
    report.SetCounters(fs_name, ctx.counters);
    if (fs_obs != nullptr) {
      // Aging gauge samples exist only on cold runs; skip an empty series so
      // the report stays schema-clean on warm runs.
      if (!fs_obs->sampler.series().empty()) {
        report.AddTimeSeries(fs_name, fs_obs->sampler.series());
      }
      report.AddAttribution(fs_name, fs_obs->profiler);
    }
  }
}

}  // namespace

int main() {
  benchutil::Banner("fig01_aging_bandwidth: mmap write bandwidth vs utilization",
                    "Figure 1 (a) new and (b) aged file systems");
  std::printf("device=%lu MiB, bench file=%lu MiB, sequential 1 MiB memcpy writes\n",
              kDeviceBytes / kMiB, kBenchFileBytes / kMiB);
  snap::Corpus corpus = snap::Corpus::FromEnv();
  if (corpus.enabled()) {
    std::printf("snapshot corpus: %s%s\n", corpus.dir().c_str(),
                corpus.force_rebuild() ? " (forced rebuild)" : "");
  }
  obs::BenchReport report("fig01_aging_bandwidth");
  report.AddConfig("device_mib", static_cast<double>(kDeviceBytes / kMiB));
  report.AddConfig("bench_file_mib", static_cast<double>(kBenchFileBytes / kMiB));
  report.AddConfig("utilization_sweep", "0,30,60,90");
  report.AddConfig("timeseries_sweep", "aged");
  RunSweep(/*aged=*/false, corpus, report, nullptr);
  std::deque<std::pair<std::string, FsObs>> sweep_obs;
  RunSweep(/*aged=*/true, corpus, report, &sweep_obs);
  std::printf("\nexpected shape: all ~equal when new; when aged, ext4-DAX and NOVA drop\n"
              "~2x by 60-90%% utilization while WineFS stays flat (hugepage%% ~100).\n");
  benchutil::AddSnapConfig(report, corpus,
                           ChainKeys("winefs", 3.0).back().Provenance());
  const snap::CorpusStats& cs = corpus.stats();
  std::printf("corpus: %llu hits, %llu misses, build %llu ms, load %llu ms\n",
              static_cast<unsigned long long>(cs.hits),
              static_cast<unsigned long long>(cs.misses),
              static_cast<unsigned long long>(cs.build_wall_ms),
              static_cast<unsigned long long>(cs.load_wall_ms));
  benchutil::EmitReport(report);
  std::vector<obs::NamedProfiler> profilers;
  for (const auto& [fs_name, fs_obs] : sweep_obs) {
    profilers.push_back(obs::NamedProfiler{fs_name, &fs_obs.profiler});
  }
  benchutil::EmitChromeTrace(report.name(), profilers);
  return 0;
}
