// §4 "Proactive approach is required": reactive defragmentation steals PM
// bandwidth from foreground work. A foreground thread performs mmap reads
// while a background thread rewrites a fragmented 64 MiB file with aligned
// allocations; both share the device's bandwidth (modeled as a ResourceClock
// both parties acquire per transfer). Paper: 25-40% foreground slowdown.
//
// The fragmented fixture (healthy /fg plus interleaved-append /frag and
// /other) is built once as a snapshot — through the corpus when
// WINEFS_SNAP_DIR is set — and both scenarios run on private COW forks of it,
// so "no defrag" and "defrag running" see byte-identical starting states.
#include "bench/bench_util.h"
#include "src/common/prof_zone.h"
#include "src/fs/winefs/winefs.h"

using benchutil::Fmt;
using benchutil::FsObs;
using benchutil::MakeBed;
using benchutil::MakeBedFromSnapshot;
using benchutil::Row;
using common::ExecContext;
using common::kMiB;

namespace {

constexpr uint64_t kDeviceBytes = 1024 * kMiB;
constexpr uint64_t kForegroundBytes = 64 * kMiB;
constexpr uint64_t kFragFileBytes = 64 * kMiB;

struct ForegroundResult {
  double mbps = 0;
  common::PerfCounters counters;
};

snap::ImageKey FixtureKey() {
  snap::ImageKey key;
  key.fs = "winefs";
  key.device_bytes = kDeviceBytes;
  key.num_cpus = 8;
  key.numa_nodes = 1;
  key.profile = "defrag-fixture";
  key.seed = 0;
  key.utilization = 0;
  key.churn = 0;
  key.detail = "fg64m-frag64m-interleave64k";
  return key;
}

// Builds the interference fixture: a healthy foreground file plus a
// fragmented file laid down by tiny interleaved appends against /other.
common::Result<pmem::DeviceSnapshot> BuildFixture() {
  auto bed = MakeBed("winefs", kDeviceBytes, 8);
  ExecContext setup;
  auto ffd = bed.fs->Open(setup, "/fg", vfs::OpenFlags::Create());
  if (!ffd.ok()) {
    return ffd.status();
  }
  RETURN_IF_ERROR(bed.fs->Fallocate(setup, *ffd, 0, kForegroundBytes));
  auto bfd = bed.fs->Open(setup, "/frag", vfs::OpenFlags::Create());
  auto ofd = bed.fs->Open(setup, "/other", vfs::OpenFlags::Create());
  if (!bfd.ok() || !ofd.ok()) {
    return common::Status(common::ErrorCode::kIoError);
  }
  std::vector<uint8_t> chunk(64 * 1024, 0xef);
  for (uint64_t off = 0; off < kFragFileBytes; off += chunk.size()) {
    (void)bed.fs->Append(setup, *bfd, chunk.data(), chunk.size());
    (void)bed.fs->Append(setup, *ofd, chunk.data(), chunk.size());
  }
  RETURN_IF_ERROR(bed.fs->Unmount(setup));
  return bed.dev->Snapshot();
}

// Shared PM bandwidth: each MiB transferred holds the device for its modeled
// duration, so concurrent streams queue behind each other. When `fs_obs` is
// non-null, both the background defrag thread (CPU 1) and the foreground
// reader (CPU 2) are instrumented into it, so the Chrome trace shows the
// interference on separate CPU tracks.
ForegroundResult RunForeground(const pmem::DeviceSnapshot& fixture, bool with_defrag,
                               FsObs* fs_obs) {
  auto bed = MakeBedFromSnapshot("winefs", fixture, 8);
  auto* wfs = dynamic_cast<winefs::WineFs*>(bed.fs.get());
  ExecContext setup;

  auto ffd = bed.fs->Open(setup, "/fg", vfs::OpenFlags{});
  auto fino = bed.fs->InodeOf(setup, *ffd);
  auto fmap = bed.engine->Mmap(bed.fs.get(), *fino, kForegroundBytes, false);

  common::ResourceClock pm_bandwidth("pm-bandwidth");
  // Every bandwidth slice reports as a lock event on the shared "pm-bandwidth"
  // site, so the contention section attributes the interference to the device
  // itself rather than to any filesystem lock.
  common::LockSiteRef pm_bw_site;
  const auto& cost = bed.dev->cost();

  // Background defragmentation: the rewrite reads + writes the whole file;
  // charge its bandwidth use in 1 MiB slices starting at the same time as
  // the foreground.
  ExecContext bg(/*cpu_id=*/1);
  bg.clock.SetNs(setup.clock.NowNs());
  if (fs_obs != nullptr) {
    benchutil::AttachObs(bg, bed, *fs_obs);
  }
  if (with_defrag) {
    const uint64_t slices = 2 * kFragFileBytes / kMiB;  // read + write passes
    for (uint64_t s = 0; s < slices; s++) {
      common::ProfiledAcquire(bg, pm_bandwidth, "pm-bandwidth", pm_bw_site,
                              cost.SeqReadBytes(kMiB / 2) + cost.SeqWriteBytes(kMiB / 2));
    }
    (void)wfs->ReactiveRewrite(bg, "/frag");
  }

  // Foreground mmap reads, also claiming bandwidth per MiB.
  ExecContext fg(/*cpu_id=*/2);
  fg.clock.SetNs(setup.clock.NowNs());
  if (fs_obs != nullptr) {
    benchutil::AttachObs(fg, bed, *fs_obs);
  }
  std::vector<uint8_t> buf(kMiB);
  const uint64_t t0 = fg.clock.NowNs();
  for (uint64_t off = 0; off < kForegroundBytes; off += kMiB) {
    // queue behind in-flight transfers
    common::ProfiledAcquire(fg, pm_bandwidth, "pm-bandwidth", pm_bw_site, 0);
    (void)fmap->Read(fg, off, buf.data(), buf.size());
    common::ProfiledAcquire(fg, pm_bandwidth, "pm-bandwidth", pm_bw_site,
                            cost.SeqReadBytes(kMiB));
  }
  const double secs = static_cast<double>(fg.clock.NowNs() - t0) / 1e9;
  ForegroundResult out;
  out.mbps = static_cast<double>(kForegroundBytes) / secs / (1024 * 1024);
  out.counters.Add(setup.counters);
  out.counters.Add(bg.counters);
  out.counters.Add(fg.counters);
  if (fs_obs != nullptr) {
    // The bed dies with this frame; drop the provider pointers so the
    // sampler can never probe freed filesystem state.
    fs_obs->sampler.ClearProviders();
  }
  return out;
}

}  // namespace

int main() {
  benchutil::Banner("disc_defrag_interference: background rewrite vs foreground reads",
                    "§4 (reactive defragmentation costs 25-40% foreground slowdown)");
  snap::Corpus corpus = snap::Corpus::FromEnv();
  auto fixture = corpus.LoadOrBuild(FixtureKey(), BuildFixture);
  if (!fixture.ok()) {
    std::fprintf(stderr, "fixture build failed\n");
    return 1;
  }
  const ForegroundResult alone = RunForeground(*fixture, false, nullptr);
  // The run is a few hundred ops, so the profiler samples every one: its
  // zone ring then holds both CPUs' tracks for the Chrome trace.
  FsObs contended_obs{obs::TimeSeriesSampler(), obs::Profiler(/*sample_shift=*/0)};
  const ForegroundResult contended = RunForeground(*fixture, true, &contended_obs);
  Row({"scenario", "fg_MB/s"});
  Row({"no defrag", Fmt(alone.mbps, 0)});
  Row({"defrag running", Fmt(contended.mbps, 0)});
  const double slowdown_pct = 100.0 * (1.0 - contended.mbps / alone.mbps);
  std::printf("\nforeground slowdown: %.0f%% (paper: 25-40%%)\n", slowdown_pct);

  obs::BenchReport report("disc_defrag_interference");
  report.AddConfig("foreground_mib", static_cast<double>(kForegroundBytes / kMiB));
  report.AddConfig("frag_file_mib", static_cast<double>(kFragFileBytes / kMiB));
  report.AddMetric("winefs", "fg_mbps_alone", alone.mbps);
  report.AddMetric("winefs", "fg_mbps_defrag_running", contended.mbps);
  report.AddMetric("winefs", "fg_slowdown_pct", slowdown_pct);
  report.SetCounters("winefs", contended.counters);
  report.AddTimeSeries("winefs", contended_obs.sampler.series());
  report.AddContention("winefs", contended_obs.profiler);
  report.AddAttribution("winefs", contended_obs.profiler);
  report.AddConfig("top_contended_site", contended_obs.profiler.TopContendedSite());
  benchutil::AddSnapConfig(report, corpus, FixtureKey().Provenance());
  benchutil::EmitReport(report);
  const std::vector<obs::NamedProfiler> profilers{
      obs::NamedProfiler{"winefs", &contended_obs.profiler}};
  benchutil::EmitChromeTrace(report.name(), profilers);
  benchutil::EmitFlame(report.name(), profilers);
  return 0;
}
