// Figure 3: free-space fragmentation under aging. Percentage of free space
// that is 2 MiB-aligned-and-contiguous (hugepage-capable) as utilization
// grows. Paper: NOVA hits ~zero aligned regions by 70% utilization; ext4-DAX
// decays steadily. WineFS (added here) holds >90%. Also reproduces the §4
// observation that the Wang HPC profile fragments ext4-DAX harder.
//
// Aged states come from the snapshot corpus (src/snap): each utilization step
// is stored as one image, and the fragmentation probe (StatFs) runs on a
// mounted COW fork of that image — identically on cold (inline-aged) and warm
// (corpus-loaded) runs, so the reported metrics match by construction.
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
constexpr uint32_t kNumCpus = 8;
constexpr uint64_t kSeed = 7;
constexpr double kUtils[] = {0.10, 0.30, 0.50, 0.70, 0.90};
constexpr double kChurn = 3.0;

aging::Profile MakeProfile(const std::string& profile_name) {
  return profile_name == "agrawal" ? aging::Profile::Agrawal(kSeed)
                                   : aging::Profile::WangHpc(kSeed);
}

std::vector<snap::ImageKey> ChainKeys(const std::string& fs_name,
                                      const std::string& profile_name) {
  aging::AgingConfig config;
  config.seed = kSeed;
  std::vector<snap::ImageKey> keys;
  for (double util : kUtils) {
    snap::ImageKey key;
    key.fs = fs_name;
    key.device_bytes = kDeviceBytes;
    key.num_cpus = kNumCpus;
    key.numa_nodes = 1;
    key.profile = profile_name;
    key.seed = kSeed;
    key.utilization = util;
    key.churn = kChurn;
    key.detail = aging::AgingProvenance(config);
    keys.push_back(key);
  }
  return keys;
}

// When `obs_out` is non-null, each filesystem's aging run is instrumented:
// the gauge sampler records fragmentation/journal/hugepage time series and
// the profiler attributes the aging ops per layer and keeps their zones for
// the per-CPU trace tracks. The bundles land in `obs_out` (a deque for stable
// addresses) so main can export the Chrome trace after the sweep. Only one
// sweep is instrumented so every gauge's series stays a single monotone
// timeline per filesystem. Warm corpus runs skip aging, so their reports
// carry neither aging time series nor attribution.
void Sweep(const std::string& profile_name, snap::Corpus& corpus, obs::BenchReport& report,
           std::deque<std::pair<std::string, FsObs>>* obs_out) {
  std::printf("\n--- aging profile: %s ---\n", profile_name.c_str());
  Row({"fs", "util%", "alignedfree%", "free_2MB_cnt", "largest_MB"});
  for (const std::string fs_name : {"ext4-dax", "nova", "xfs-dax", "winefs"}) {
    FsObs* fs_obs = nullptr;
    if (obs_out != nullptr) {
      // FsObs holds mutexes and is immovable; build it in place.
      obs_out->emplace_back(std::piecewise_construct, std::forward_as_tuple(fs_name),
                            std::forward_as_tuple());
      fs_obs = &obs_out->back().second;
    }
    ExecContext build_ctx;
    auto snaps = corpus.LoadOrBuildSweep(
        ChainKeys(fs_name, profile_name), [&](const snap::Corpus::SaveStepFn& save_step) {
          auto bed = MakeBed(fs_name, kDeviceBytes, kNumCpus);
          if (fs_obs != nullptr) {
            benchutil::AttachObs(build_ctx, bed, *fs_obs);
          }
          aging::AgingConfig config;
          config.seed = kSeed;
          aging::Geriatrix geriatrix(bed.fs.get(), MakeProfile(profile_name), config);
          common::Status status = common::OkStatus();
          for (size_t i = 0; i < std::size(kUtils); i++) {
            auto stats = geriatrix.AgeToUtilization(build_ctx, kUtils[i], kChurn);
            if (!stats.ok()) {
              status = stats.status();
              break;
            }
            status = bed.fs->Unmount(build_ctx);
            if (!status.ok()) {
              break;
            }
            save_step(i, bed.dev->Snapshot());
            status = bed.fs->Mount(build_ctx);
            if (!status.ok()) {
              break;
            }
          }
          if (fs_obs != nullptr) {
            benchutil::DetachObs(build_ctx);
            fs_obs->sampler.ClearProviders();
          }
          return status;
        });

    ExecContext ctx;
    for (size_t i = 0; i < std::size(kUtils); i++) {
      const double util = kUtils[i];
      if (!snaps.ok() || !(*snaps)[i].valid()) {
        Row({fs_name, Fmt(util * 100, 0), "ENOSPC", "-", "-"});
        break;
      }
      auto bed = MakeBedFromSnapshot(fs_name, (*snaps)[i], kNumCpus);
      auto statfs = bed.fs->StatFs(ctx);
      if (!statfs.ok()) {
        Row({fs_name, Fmt(util * 100, 0), "statfs failed", "-", "-"});
        break;
      }
      const vfs::FreeSpaceInfo& info = *statfs;
      Row({fs_name, Fmt(info.utilization() * 100, 0),
           Fmt(info.AlignedFreeFraction() * 100, 1), benchutil::FmtU(info.free_aligned_extents),
           Fmt(static_cast<double>(info.largest_free_extent_blocks) * 4096 / kMiB, 1)});
      const std::string key =
          profile_name + "_util" + Fmt(util * 100, 0);
      report.AddMetric(fs_name, key + "_aligned_free_pct", info.AlignedFreeFraction() * 100);
      report.AddMetric(fs_name, key + "_free_2mib_extents",
                       static_cast<double>(info.free_aligned_extents));
    }
    report.SetCounters(fs_name, ctx.counters);
    if (fs_obs != nullptr) {
      if (!fs_obs->sampler.series().empty()) {
        report.AddTimeSeries(fs_name, fs_obs->sampler.series());
      }
      report.AddAttribution(fs_name, fs_obs->profiler);
    }
  }
}

}  // namespace

int main() {
  benchutil::Banner("fig03_fragmentation: hugepage-capable free space vs utilization",
                    "Figure 3 + §4 'Using different aging profiles'");
  snap::Corpus corpus = snap::Corpus::FromEnv();
  if (corpus.enabled()) {
    std::printf("snapshot corpus: %s%s\n", corpus.dir().c_str(),
                corpus.force_rebuild() ? " (forced rebuild)" : "");
  }
  obs::BenchReport report("fig03_fragmentation");
  report.AddConfig("device_mib", 1024.0);
  report.AddConfig("profiles", "agrawal,wang-hpc");
  report.AddConfig("utilization_sweep", "10,30,50,70,90");
  report.AddConfig("timeseries_profile", "agrawal");
  std::deque<std::pair<std::string, FsObs>> sweep_obs;
  Sweep("agrawal", corpus, report, &sweep_obs);
  Sweep("wang-hpc", corpus, report, nullptr);
  std::printf("\nexpected shape: NOVA's aligned free space collapses by ~70%% utilization;\n"
              "ext4-DAX decays; xfs-DAX never has aligned space; WineFS stays >90%%.\n");
  benchutil::AddSnapConfig(report, corpus,
                           ChainKeys("winefs", "agrawal").back().Provenance());
  benchutil::EmitReport(report);
  std::vector<obs::NamedProfiler> profilers;
  for (const auto& [fs_name, fs_obs] : sweep_obs) {
    profilers.push_back(obs::NamedProfiler{fs_name, &fs_obs.profiler});
  }
  benchutil::EmitChromeTrace(report.name(), profilers);
  return 0;
}
