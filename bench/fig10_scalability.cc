// Figure 10: scalability of a metadata-heavy syscall workload (create a
// file, append 4 KiB, fsync, unlink — per thread in its own directory) with
// increasing thread counts. Paper: WineFS and NOVA scale best; ext4/xfs
// plateau early on stop-the-world JBD2 fsync; SplitFS inherits ext4's
// ceiling; PMFS's fine-grained single journal scales well; everything
// flattens past ~16 threads on VFS-layer bottlenecks.
#include <thread>

#include "bench/bench_util.h"
#include "src/vfs/op_batch.h"
#include "src/wload/parallel_runner.h"

using benchutil::Fmt;
using benchutil::MakeBed;
using benchutil::Row;
using common::ExecContext;
using common::kMiB;

namespace {

constexpr uint64_t kDeviceBytes = 1024 * kMiB;
constexpr uint32_t kCpus = 28;  // one socket of the paper's machine
constexpr uint64_t kOpsPerThread = 300;

struct ScalePoint {
  double kops = -1;
  common::PerfCounters counters;
};

ScalePoint MeasureKops(const std::string& fs_name, uint32_t threads,
                       obs::TimeSeriesSampler* sampler, obs::Profiler* profiler) {
  auto bed = MakeBed(fs_name, kDeviceBytes, kCpus);
  ExecContext setup;
  for (uint32_t t = 0; t < threads; t++) {
    if (!bed.fs->Mkdir(setup, "/t" + std::to_string(t)).ok()) {
      return {};
    }
  }
  if (sampler != nullptr) {
    sampler->AddProvider(bed.fs.get());
    sampler->AddProvider(bed.engine.get());
  }
  std::vector<uint8_t> buf(4096, 0x3d);
  // The whole per-op syscall sequence rides as one fd-chained OpBatch: the
  // appends, fsync, and close reference the open's descriptor via
  // FdRef::From, so filesystems with a native ExecuteBatch (WineFS,
  // ext4-DAX) run it under one lock hold while the modeled timeline stays
  // identical to the scalar calls.
  auto op = [&](uint32_t tid, uint64_t i, ExecContext& ctx) -> bool {
    const std::string path = "/t" + std::to_string(tid) + "/f" + std::to_string(i);
    vfs::OpBatch batch;
    const size_t open_index = batch.Open(path, vfs::OpenFlags::Create());
    for (int a = 0; a < 4; a++) {
      batch.Append(vfs::FdRef::From(open_index), buf.data(), buf.size());
    }
    batch.Fsync(vfs::FdRef::From(open_index));
    batch.Close(vfs::FdRef::From(open_index));
    batch.Unlink(path);
    std::vector<vfs::OpResult> results;
    bed.fs->ExecuteBatch(ctx, batch, results);
    for (const vfs::OpResult& r : results) {
      if (!r.ok()) {
        return false;
      }
    }
    return true;
  };
  wload::ParallelRunner runner(threads, kCpus, setup.clock.NowNs());
  runner.SetObservers(sampler, profiler);
  const wload::RunResult result = runner.Run(kOpsPerThread, op).run;
  if (sampler != nullptr) {
    // The bed (and with it every registered gauge provider) dies when this
    // function returns; detach so the sampler never probes freed state.
    sampler->ClearProviders();
  }
  return ScalePoint{result.OpsPerSecond() / 1000.0, result.counters};
}

// --- Host-parallel geometry ladder (64..256 simulated CPUs) -----------------
//
// Past the one-socket rows the bench switches to cpus == threads geometry
// with a per-CPU VFS lock-domain front end (FsOptions::lock_domains): each
// simulated thread owns its CPU's journal/allocator pool/VFS domain, the
// shard-purity contract of ParallelRunner's sharded mode. The classic rows
// above keep lock_domains=1 (the historical global 150 ns path and its
// plateau) bit-for-bit.

struct LadderPoint {
  double kops = -1;
  wload::ParallelResult par;
};

LadderPoint MeasureLadder(const std::string& fs_name, uint32_t threads, uint64_t ops,
                          uint32_t host_workers) {
  auto bed = benchutil::MakeBed(fs_name, kDeviceBytes, /*num_cpus=*/threads,
                                /*numa_nodes=*/1, /*lock_domains=*/threads);
  ExecContext setup;
  for (uint32_t t = 0; t < threads; t++) {
    if (!bed.fs->Mkdir(setup, "/t" + std::to_string(t)).ok()) {
      return {};
    }
  }
  std::vector<uint8_t> buf(4096, 0x3d);
  auto op = [&](uint32_t tid, uint64_t i, ExecContext& ctx) -> bool {
    const std::string path = "/t" + std::to_string(tid) + "/f" + std::to_string(i);
    vfs::OpBatch batch;
    const size_t open_index = batch.Open(path, vfs::OpenFlags::Create());
    for (int a = 0; a < 4; a++) {
      batch.Append(vfs::FdRef::From(open_index), buf.data(), buf.size());
    }
    batch.Fsync(vfs::FdRef::From(open_index));
    batch.Close(vfs::FdRef::From(open_index));
    batch.Unlink(path);
    std::vector<vfs::OpResult> results;
    bed.fs->ExecuteBatch(ctx, batch, results);
    for (const vfs::OpResult& r : results) {
      if (!r.ok()) {
        return false;
      }
    }
    return true;
  };
  wload::ParallelRunner runner(threads, threads, setup.clock.NowNs());
  runner.SetWorkers(host_workers, *bed.fs);
  LadderPoint point;
  point.par = runner.Run(ops, op);
  point.kops = point.par.run.OpsPerSecond() / 1000.0;
  return point;
}

// Deterministic-merge self-check: the modeled outputs of a {2, 8}-worker run
// must be bit-identical to the 1-worker schedule on the same geometry. Any
// field that diverges is printed; a divergence fails the whole bench.
bool VerifyParallelIdentity(const std::string& fs_name, uint32_t threads, uint64_t ops) {
  const LadderPoint base = MeasureLadder(fs_name, threads, ops, 1);
  bool ok = base.kops >= 0;
  for (uint32_t workers : {2u, 8u}) {
    const LadderPoint par = MeasureLadder(fs_name, threads, ops, workers);
    if (par.kops < 0) {
      ok = false;
      continue;
    }
    if (par.par.run.total_ops != base.par.run.total_ops ||
        par.par.run.wall_ns != base.par.run.wall_ns) {
      std::printf("  DIVERGED %s w=%u: ops %llu vs %llu, wall %llu vs %llu\n",
                  fs_name.c_str(), workers,
                  static_cast<unsigned long long>(par.par.run.total_ops),
                  static_cast<unsigned long long>(base.par.run.total_ops),
                  static_cast<unsigned long long>(par.par.run.wall_ns),
                  static_cast<unsigned long long>(base.par.run.wall_ns));
      ok = false;
    }
    for (const common::CounterField& field : common::kCounterFields) {
      const uint64_t a = par.par.run.counters.*field.member;
      const uint64_t b = base.par.run.counters.*field.member;
      if (a != b) {
        std::printf("  DIVERGED %s w=%u: counter %s %llu vs %llu\n", fs_name.c_str(),
                    workers, field.name, static_cast<unsigned long long>(a),
                    static_cast<unsigned long long>(b));
        ok = false;
      }
    }
  }
  return ok;
}

}  // namespace

int main() {
  benchutil::Banner("fig10_scalability: create+append+fsync+unlink vs #threads",
                    "Figure 10");
  const std::vector<uint32_t> threads{1, 2, 4, 8, 16, 28, 56};
  std::vector<std::string> header{"fs"};
  for (uint32_t t : threads) {
    header.push_back(std::to_string(t) + "th");
  }
  Row(header, 10);
  obs::BenchReport report("fig10_scalability");
  report.AddConfig("device_mib", static_cast<double>(kDeviceBytes / kMiB));
  report.AddConfig("cpus", static_cast<double>(kCpus));
  report.AddConfig("ops_per_thread", static_cast<double>(kOpsPerThread));
  // Gauge time series and the profiler's per-op attribution and contention
  // are collected on the one-socket (28-thread) run of each filesystem. One
  // sampler per filesystem so samples never bleed across rows. Per-fs
  // profilers stay alive past the loop so the collapsed zone stacks of every
  // filesystem land in one FLAME_fig10_scalability.txt.
  std::vector<obs::NamedProfiler> profiled;
  std::vector<std::unique_ptr<obs::Profiler>> profilers;
  for (const std::string fs_name :
       {"ext4-dax", "xfs-dax", "pmfs", "nova", "splitfs", "winefs"}) {
    std::vector<std::string> cells{fs_name};
    obs::TimeSeriesSampler sampler;
    profilers.push_back(std::make_unique<obs::Profiler>());
    obs::Profiler& profiler = *profilers.back();
    for (uint32_t t : threads) {
      const bool observe = t == kCpus;
      const ScalePoint point = MeasureKops(fs_name, t, observe ? &sampler : nullptr,
                                           observe ? &profiler : nullptr);
      cells.push_back(point.kops < 0 ? "FAIL" : Fmt(point.kops, 0));
      if (point.kops >= 0) {
        report.AddMetric(fs_name, "threads" + std::to_string(t) + "_kops", point.kops);
      }
      if (observe) {
        report.SetCounters(fs_name, point.counters);
        report.AddTimeSeries(fs_name, sampler.series());
        // Contention + attribution for the one-socket run: which lock every
        // thread queues on, and which layer the modeled time goes to.
        report.AddContention(fs_name, profiler);
        report.AddAttribution(fs_name, profiler);
        report.AddConfig("top_contended_site_" + fs_name, profiler.TopContendedSite());
        report.AddMetric(fs_name, "top_site_wait_ns",
                         static_cast<double>(profiler.TopContendedWaitNs()));
        profiled.push_back(obs::NamedProfiler{fs_name, &profiler});
      }
    }
    Row(cells, 10);
  }
  std::printf("\ncontention at %u threads (top site by total wait):\n", kCpus);
  for (const obs::NamedProfiler& track : profiled) {
    uint64_t acquisitions = 0;
    for (const obs::LockSiteStats& site : track.profiler->LockSites()) {
      acquisitions += site.acquisitions;
    }
    std::printf("  %-10s top_contended_site=%-24s wait %.2f ms (%llu acquisitions total)\n",
                track.name.c_str(), track.profiler->TopContendedSite().c_str(),
                static_cast<double>(track.profiler->TopContendedWaitNs()) / 1e6,
                static_cast<unsigned long long>(acquisitions));
  }
  benchutil::EmitFlame(report.name(), profiled);
  std::printf("\nexpected shape: WineFS/NOVA/PMFS scale to ~16-28 threads then plateau\n"
              "(VFS); ext4-DAX/xfs-DAX/SplitFS flatten early (global JBD2 commit).\n");

  // --- Geometry ladder: 64 -> 256 simulated CPUs (cpus == threads, sharded
  // VFS lock domains). WINEFS_FIG10_QUICK pins the CTest lane to the small
  // rung with few ops; the full run sweeps the whole ladder.
  const bool quick = std::getenv("WINEFS_FIG10_QUICK") != nullptr;
  const std::vector<uint32_t> ladder =
      quick ? std::vector<uint32_t>{64} : std::vector<uint32_t>{64, 128, 256};
  const uint64_t ladder_ops = quick ? 25 : 100;
  report.AddConfig("ladder_ops_per_thread", static_cast<double>(ladder_ops));
  report.AddConfig("ladder_max_cpus", static_cast<double>(ladder.back()));
  std::printf("\ngeometry ladder (cpus == threads, per-CPU VFS lock domains):\n");
  std::vector<std::string> ladder_header{"fs"};
  for (uint32_t t : ladder) {
    ladder_header.push_back(std::to_string(t) + "cpu");
  }
  Row(ladder_header, 10);
  for (const std::string fs_name :
       {"ext4-dax", "xfs-dax", "pmfs", "nova", "splitfs", "winefs"}) {
    std::vector<std::string> cells{fs_name};
    for (uint32_t t : ladder) {
      const LadderPoint point = MeasureLadder(fs_name, t, ladder_ops, 1);
      cells.push_back(point.kops < 0 ? "FAIL" : Fmt(point.kops, 0));
      if (point.kops >= 0) {
        report.AddMetric(fs_name, "ladder" + std::to_string(t) + "_kops", point.kops);
      }
    }
    Row(cells, 10);
  }

  // --- Deterministic-merge self-check: the sharded filesystems at {1,2,8}
  // host workers, bit-identical modeled outputs (shard purity). The others
  // always run on one worker.
  std::printf("\nhost-parallel determinism self-check ({1,2,8} workers):\n");
  bool identical = true;
  for (const std::string fs_name : {"nova", "winefs"}) {
    const bool fs_ok = VerifyParallelIdentity(fs_name, /*threads=*/16, /*ops=*/25);
    std::printf("  %-10s %s\n", fs_name.c_str(), fs_ok ? "bit-identical" : "DIVERGED");
    identical = identical && fs_ok;
  }
  report.AddConfig("host_parallel_identical", identical ? 1.0 : 0.0);

  // --- host_parallel block: host wall-clock of the 64-CPU WineFS rung at 1
  // vs 4 workers. Modeled outputs are schedule-invariant (checked above and
  // for every pair here); only the host-side wall time may change, and the
  // speedup gate in bench_json_check is hardware-aware via host_cores. The
  // published pair is the median of kParPairs alternating 1-/4-worker pairs.
  const uint32_t host_cores = std::max(1u, std::thread::hardware_concurrency());
  report.AddConfig("host_cores", static_cast<double>(host_cores));
  {
    const uint64_t par_ops = quick ? 40 : 150;
    constexpr int kParPairs = 5;
    report.AddConfig("host_par_pairs", static_cast<double>(kParPairs));
    const auto median = benchutil::MedianSpeedupPair(
        kParPairs,
        [&](uint32_t workers) { return MeasureLadder("winefs", 64, par_ops, workers); },
        [](const LadderPoint& w1, const LadderPoint& w4) {
          return w1.kops >= 0 && w4.kops >= 0 && w1.par.run.wall_ns == w4.par.run.wall_ns &&
                 w1.par.run.total_ops == w4.par.run.total_ops;
        },
        [](const LadderPoint& point) { return point.par.host_wall_ns; });
    if (!median.has_value()) {
      std::printf("host_parallel: FAILED (modeled divergence between 1 and 4 workers)\n");
      identical = false;
    } else {
      const LadderPoint& w1 = median->w1;
      const LadderPoint& w4 = median->w4;
      const double speedup = median->speedup;
      report.AddMetric("winefs", "host_par_wall_w1_ns",
                       static_cast<double>(w1.par.host_wall_ns));
      report.AddMetric("winefs", "host_par_wall_w4_ns",
                       static_cast<double>(w4.par.host_wall_ns));
      report.AddMetric("winefs", "host_par_speedup_4w", speedup);
      report.AddMetric("winefs", "host_par_hazards",
                       static_cast<double>(w4.par.hazards));
      report.AddMetric("winefs", "host_par_workers", static_cast<double>(w4.par.workers));
      std::printf("\nhost_parallel (winefs, 64 cpus, median of %d pairs): wall %7.2f ms -> "
                  "%7.2f ms at 4 workers (%.2fx, %u host cores, %llu hazards)\n",
                  kParPairs,
                  static_cast<double>(w1.par.host_wall_ns) / 1e6,
                  static_cast<double>(w4.par.host_wall_ns) / 1e6, speedup, host_cores,
                  static_cast<unsigned long long>(w4.par.hazards));
    }
  }

  benchutil::EmitReport(report);
  if (!identical) {
    std::printf("FAILED: host-parallel modeled outputs diverged from the scalar schedule\n");
    return 1;
  }
  return 0;
}
