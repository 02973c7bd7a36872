// Contention & latency-attribution profiler unit tests: histogram bucket
// invariants, lock-site accounting against hand-computed busy-interval
// overlaps, zone exclusive-time decomposition, per-op sampling semantics, and
// the profiler's core bit-identical invariant — attaching it to a contended
// multi-threaded run on every filesystem must not move the simulated clock or
// any counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/common/exec_context.h"
#include "src/common/histogram.h"
#include "src/common/prof.h"
#include "src/common/prof_zone.h"
#include "src/common/sim_clock.h"
#include "src/common/sim_mutex.h"
#include "src/common/units.h"
#include "src/fs/registry.h"
#include "src/obs/profiler.h"
#include "src/vfs/op_batch.h"
#include "src/vmem/mmap_engine.h"
#include "src/wload/parallel_runner.h"

namespace {

using common::ExecContext;
using common::kMiB;

// Every recorded value must land in a bucket whose upper bound is >= the
// value and within the ~1.04x geometric spacing of it — this pins the
// table-driven BucketFor against the log-formula spacing it replaces.
TEST(ProfilerHistogram, BucketSpacingTightAcrossRange) {
  // Stay below the last bucket's lower bound (~1.04^511 ≈ 5e8 ns), where the
  // geometric spacing necessarily saturates.
  for (uint64_t v = 1; v < (uint64_t{1} << 28); v = v * 29 / 16 + 1) {
    common::LatencyHistogram h;
    h.Record(v);
    const uint64_t p100 = h.Percentile(100.0);
    EXPECT_GE(p100 + 1, v) << "value " << v;
    EXPECT_LE(static_cast<double>(p100), static_cast<double>(v) * 1.09 + 2.0)
        << "value " << v;
    EXPECT_EQ(h.MinNanos(), v);
    EXPECT_EQ(h.MaxNanos(), v);
    EXPECT_EQ(h.count(), 1u);
  }
}

TEST(ProfilerHistogram, MergeAndPercentileOrdering) {
  common::LatencyHistogram a;
  common::LatencyHistogram b;
  for (uint64_t v = 100; v <= 1000; v += 100) {
    a.Record(v);
  }
  for (uint64_t v = 10000; v <= 20000; v += 1000) {
    b.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), 21u);
  EXPECT_EQ(a.MinNanos(), 100u);
  EXPECT_EQ(a.MaxNanos(), 20000u);
  uint64_t prev = 0;
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const uint64_t q = a.Percentile(p);
    EXPECT_GE(q, prev) << "percentile " << p;
    prev = q;
  }
  EXPECT_GE(a.Percentile(90.0), 10000u);  // upper decile is all from b
  EXPECT_LE(a.Percentile(25.0), 1100u);   // lower quartile is all from a
}

// SimMutex contention against a hand-computed overlap: A holds [0, 1000);
// B arrives at 500, so B queues exactly 500ns. Totals are exact (inline
// cell), the wait histogram holds only the contended release, and the
// uncontended release stays out of the sampled histograms (1-in-1024).
TEST(ProfilerLockSites, SimMutexWaitMatchesHandComputedOverlap) {
  obs::Profiler profiler(/*sample_shift=*/0);
  common::SimMutex mutex("test.mutex");

  ExecContext a;
  ExecContext b;
  a.AttachProfiler(&profiler);
  b.AttachProfiler(&profiler);

  mutex.Lock(a);
  a.clock.Advance(1000);
  mutex.Unlock(a);  // busy interval [0, 1000), uncontended

  b.clock.SetNs(500);
  mutex.Lock(b);  // lands inside [0, 1000) -> waits 500
  EXPECT_EQ(b.clock.NowNs(), 1000u);
  b.clock.Advance(200);
  mutex.Unlock(b);  // contended: wait 500, hold 200

  EXPECT_EQ(mutex.total_wait_ns(), 500u);

  const std::vector<obs::LockSiteStats> sites = profiler.LockSites();
  ASSERT_EQ(sites.size(), 1u);
  const obs::LockSiteStats& s = sites[0];
  EXPECT_EQ(s.site, "test.mutex");
  EXPECT_EQ(s.acquisitions, 2u);
  EXPECT_EQ(s.total_wait_ns, 500u);
  EXPECT_EQ(s.total_hold_ns, 1200u);
  EXPECT_EQ(s.contended, 1u);
  EXPECT_EQ(s.max_wait_ns, 500u);
  EXPECT_EQ(s.wait.count(), 1u);  // contended acquisitions only
  EXPECT_GE(s.wait.MaxNanos(), 500u);
  EXPECT_EQ(s.hold.count(), 1u);  // the contended hold; uncontended unsampled

  EXPECT_EQ(profiler.TopContendedSite(), "test.mutex");
  EXPECT_EQ(profiler.TopContendedWaitNs(), 500u);
  ASSERT_EQ(profiler.LockEvents().size(), 1u);  // ring keeps contended events
  EXPECT_EQ(profiler.LockEvents()[0].wait_ns, 500u);
  EXPECT_EQ(profiler.LockEvents()[0].hold_ns, 200u);

  // ResetWaitStats clears the mutex's own total; the profiler's aggregates
  // drop through ResetSamples but registered site names survive.
  mutex.ResetWaitStats();
  EXPECT_EQ(mutex.total_wait_ns(), 0u);
  profiler.ResetSamples();
  EXPECT_TRUE(profiler.LockSites().empty());
  EXPECT_EQ(profiler.SiteName(0), "test.mutex");
}

// ProfiledAcquire on a ResourceClock: B queues behind A's full hold, and the
// inline cell totals are exact across both acquisitions.
TEST(ProfilerLockSites, ProfiledAcquireResourceClockTotals) {
  obs::Profiler profiler(/*sample_shift=*/0);
  common::ResourceClock resource("test.resource");
  common::LockSiteRef ref;

  ExecContext a;
  ExecContext b;
  a.AttachProfiler(&profiler);
  b.AttachProfiler(&profiler);

  EXPECT_EQ(common::ProfiledAcquire(a, resource, "test.resource", ref, 100), 0u);
  EXPECT_EQ(common::ProfiledAcquire(b, resource, "test.resource", ref, 50), 100u);
  EXPECT_EQ(b.clock.NowNs(), 150u);

  const std::vector<obs::LockSiteStats> sites = profiler.LockSites();
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0].site, "test.resource");
  EXPECT_EQ(sites[0].acquisitions, 2u);
  EXPECT_EQ(sites[0].total_wait_ns, 100u);
  EXPECT_EQ(sites[0].total_hold_ns, 150u);
  EXPECT_EQ(sites[0].contended, 1u);
}

// Nested zones decompose an op into exclusive per-layer buckets: the inner
// device zone's span never double-counts into the outer vfs zone.
TEST(ProfilerZones, ExclusiveTimeAndFoldedStacks) {
  obs::Profiler profiler(/*sample_shift=*/0);
  ExecContext ctx;
  ctx.AttachProfiler(&profiler);

  {
    common::ProfileZone vfs(ctx, common::ProfLayer::kVfs);
    ctx.clock.Advance(100);
    {
      common::ProfileZone device(ctx, common::ProfLayer::kDevice);
      ctx.clock.Advance(40);
    }
    ctx.clock.Advance(60);
  }
  EXPECT_EQ(ctx.zones.layer_ns[static_cast<size_t>(common::ProfLayer::kVfs)], 160u);
  EXPECT_EQ(ctx.zones.layer_ns[static_cast<size_t>(common::ProfLayer::kDevice)], 40u);

  profiler.EndOp(ctx, "testop");
  // The flush zeroes the context's buckets and lands in the attribution.
  EXPECT_EQ(ctx.zones.layer_ns[static_cast<size_t>(common::ProfLayer::kVfs)], 0u);
  const std::vector<obs::Profiler::OpAttribution> attr = profiler.Attribution();
  ASSERT_EQ(attr.size(), 1u);
  EXPECT_EQ(attr[0].op, "testop");
  EXPECT_EQ(attr[0].ops_sampled, 1u);
  EXPECT_EQ(attr[0].total.count(), 1u);
  EXPECT_EQ(attr[0].total.MaxNanos(), 200u);
  EXPECT_EQ(attr[0].layers[static_cast<size_t>(common::ProfLayer::kVfs)].MaxNanos(), 160u);
  EXPECT_EQ(attr[0].layers[static_cast<size_t>(common::ProfLayer::kDevice)].MaxNanos(), 40u);

  // Folded stacks carry the same split keyed by the packed path.
  uint64_t vfs_ns = 0;
  uint64_t vfs_device_ns = 0;
  for (const obs::Profiler::FoldedFrame& frame : profiler.FoldedStacks()) {
    if (frame.stack == "vfs") {
      vfs_ns = frame.ns;
    } else if (frame.stack == "vfs;device") {
      vfs_device_ns = frame.ns;
    }
  }
  EXPECT_EQ(vfs_ns, 160u);
  EXPECT_EQ(vfs_device_ns, 40u);
}

TEST(ProfilerZones, DecodeZonePath) {
  const uint32_t vfs = static_cast<uint32_t>(common::ProfLayer::kVfs) + 1;
  const uint32_t device = static_cast<uint32_t>(common::ProfLayer::kDevice) + 1;
  const uint32_t journal = static_cast<uint32_t>(common::ProfLayer::kJournal) + 1;
  EXPECT_EQ(obs::DecodeZonePath(vfs), "vfs");
  EXPECT_EQ(obs::DecodeZonePath((vfs << 3) | device), "vfs;device");
  EXPECT_EQ(obs::DecodeZonePath((((vfs << 3) | journal) << 3) | device),
            "vfs;journal;device");
  EXPECT_EQ(obs::DecodeZonePath(0), "");
}

// A mapped call is an op of its own: the modeled time of its mmu zone and of
// its faults' allocator and device zones is attributed to it when it ends,
// not carried into the next syscall's op. ext4-DAX faults the sparse 4 MiB
// mapping 4 KiB at a time, so the write collects all three layers; each stat
// after a mapped call must be attributed exactly its own modeled time.
TEST(ProfilerZones, MappedCallEndsItsOwnOp) {
  pmem::PmemDevice dev(64 * kMiB);
  auto fs = fsreg::Create("ext4-dax", &dev, 1);
  ExecContext ctx;
  ASSERT_TRUE(fs->Mkfs(ctx).ok());
  auto fd = fs->Open(ctx, "/m", vfs::OpenFlags::Create());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs->Ftruncate(ctx, *fd, 4 * kMiB).ok());
  auto ino = fs->InodeOf(ctx, *fd);
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs->Close(ctx, *fd).ok());
  vmem::MmapEngine engine(&dev, vmem::MmuParams{}, 1);
  auto map = engine.Mmap(fs.get(), *ino, 4 * kMiB, /*writable=*/true);

  obs::Profiler profiler(/*sample_shift=*/0);
  ctx.AttachProfiler(&profiler);
  std::vector<uint8_t> data(4 * kMiB, 0x6b);
  std::vector<vmem::LineOp> lines(64);
  for (size_t i = 0; i < lines.size(); i++) {
    lines[i].offset = i * 64 * 1024;
  }
  // Modeled ns of each finished call, in call order.
  std::vector<uint64_t> took;
  auto timed = [&](auto&& call) {
    const uint64_t start = ctx.clock.NowNs();
    ASSERT_TRUE(call());
    took.push_back(ctx.clock.NowNs() - start);
  };
  auto stat = [&] { return fs->Stat(ctx, "/m").ok(); };
  timed([&] { return map->Write(ctx, 0, data.data(), data.size()).ok(); });
  timed(stat);
  timed([&] { return map->Read(ctx, 0, data.data(), data.size()).ok(); });
  timed(stat);
  timed([&] { return map->AccessLines(ctx, lines.data(), lines.size(), false).ok(); });
  timed(stat);
  ASSERT_EQ(took.size(), 6u);

  std::map<std::string, obs::Profiler::OpAttribution> by_op;
  for (obs::Profiler::OpAttribution& op : profiler.Attribution()) {
    by_op[op.op] = std::move(op);
  }
  auto layer_ns = [&](const std::string& op, common::ProfLayer layer) {
    return by_op[op].layers[static_cast<size_t>(layer)].MaxNanos();
  };
  // The three stats together are attributed exactly their own time.
  const common::LatencyHistogram& stats = by_op["stat"].total;
  const std::vector<uint64_t> stat_ns{took[1], took[3], took[5]};
  EXPECT_EQ(by_op["stat"].ops_sampled, 3u);
  EXPECT_EQ(stats.MinNanos(), *std::min_element(stat_ns.begin(), stat_ns.end()));
  EXPECT_EQ(stats.MaxNanos(), *std::max_element(stat_ns.begin(), stat_ns.end()));
  EXPECT_DOUBLE_EQ(stats.MeanNanos() * 3, static_cast<double>(took[1] + took[3] + took[5]));

  // Each mapped call is attributed exactly its own time.
  EXPECT_EQ(by_op["mmap_write"].ops_sampled, 1u);
  EXPECT_EQ(by_op["mmap_write"].total.MaxNanos(), took[0]);
  EXPECT_GT(layer_ns("mmap_write", common::ProfLayer::kMmu), 0u);
  EXPECT_GT(layer_ns("mmap_write", common::ProfLayer::kAllocator), 0u);
  EXPECT_GT(layer_ns("mmap_write", common::ProfLayer::kDevice), 0u);
  EXPECT_EQ(by_op["mmap_read"].ops_sampled, 1u);
  EXPECT_EQ(by_op["mmap_read"].total.MaxNanos(), took[2]);
  EXPECT_EQ(by_op["mmap_lines"].ops_sampled, 1u);
  EXPECT_EQ(by_op["mmap_lines"].total.MaxNanos(), took[4]);
}

// Per-op sampling: the gaps between sampled ops are drawn at random with mean
// 2^shift, seeded per attach, so an op stream with a short period cannot
// alias with the sampler. Checks the mean rate, that a seed fixes the sampled
// positions, that every position of an 8-op cycle (fig10's batch, opperf's
// op mix) gets its share, and that shift 0 samples every op.
TEST(ProfilerZones, TickSamplingCadence) {
  constexpr int kOps = 1 << 20;
  constexpr uint32_t kShift = 4;  // 1-in-16 on average
  auto sampled_positions = [](uint64_t seed, uint32_t shift) {
    common::ZoneState zones;
    zones.StartSampling(seed, shift);
    std::vector<int> positions;
    for (int i = 0; i < kOps; i++) {
      if (zones.Tick()) {
        positions.push_back(i);
      }
    }
    return positions;
  };

  const std::vector<int> a = sampled_positions(1, kShift);
  const double expected = static_cast<double>(kOps) / (1u << kShift);
  EXPECT_NEAR(static_cast<double>(a.size()), expected, expected * 0.02);
  EXPECT_EQ(sampled_positions(1, kShift), a);  // deterministic per seed
  EXPECT_NE(sampled_positions(2, kShift), a);  // and different across seeds

  std::vector<int> per_slot(8, 0);
  for (int position : a) {
    per_slot[position % 8]++;
  }
  for (int slot = 0; slot < 8; slot++) {
    EXPECT_NEAR(per_slot[slot], static_cast<double>(a.size()) / 8, a.size() / 8 * 0.05)
        << "slot " << slot;
  }

  EXPECT_EQ(sampled_positions(7, 0).size(), static_cast<size_t>(kOps));

  // The profiler hands every attach a fresh seed, and its shift.
  obs::Profiler profiler(/*sample_shift=*/kShift);
  ExecContext ctx;
  ctx.AttachProfiler(&profiler);
  const common::ZoneState first = ctx.zones;
  ctx.AttachProfiler(&profiler);
  EXPECT_NE(ctx.zones.rng, first.rng);
  EXPECT_EQ(ctx.zones.gap_span, (2u << kShift) - 1);

  // Zones stay dead while inactive: no frames open, no time accumulates.
  ctx.zones.active = false;
  {
    common::ProfileZone z(ctx, common::ProfLayer::kVfs);
    ctx.clock.Advance(100);
    EXPECT_EQ(ctx.zones.depth, 0);
  }
  EXPECT_EQ(ctx.zones.layer_ns[static_cast<size_t>(common::ProfLayer::kVfs)], 0u);
}

// The tentpole invariant, enforced per filesystem: a contended eight-thread
// metadata workload runs on twin instances, one with the profiler attached
// (sampling every op), one without. Simulated wall time and every registered
// counter must match bit-exactly, and the profiled run must actually have
// seen lock traffic — observation, never perturbation.
class ProfilerFsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ProfilerFsTest, ModeledOutputBitIdenticalWithProfilerAttached) {
  const std::string fs_name = GetParam();
  constexpr uint32_t kThreads = 8;
  constexpr uint32_t kCpus = 4;
  constexpr uint64_t kOpsPerThread = 150;

  std::vector<uint8_t> payload(4096, 0x5a);
  auto run = [&](obs::Profiler* profiler) -> wload::RunResult {
    pmem::PmemDevice dev(512 * kMiB);
    auto fs = fsreg::Create(fs_name, &dev, kCpus);
    ExecContext setup;
    EXPECT_TRUE(fs->Mkfs(setup).ok());
    for (uint32_t t = 0; t < kThreads; t++) {
      EXPECT_TRUE(fs->Mkdir(setup, "/t" + std::to_string(t)).ok());
    }
    auto op = [&](uint32_t tid, uint64_t i, ExecContext& ctx) -> bool {
      const std::string path = "/t" + std::to_string(tid) + "/f" + std::to_string(i);
      auto fd = fs->Open(ctx, path, vfs::OpenFlags::Create());
      if (!fd.ok()) {
        return false;
      }
      for (int a = 0; a < 2; a++) {
        if (!fs->Append(ctx, *fd, payload.data(), payload.size()).ok()) {
          return false;
        }
      }
      if (!fs->Fsync(ctx, *fd).ok() || !fs->Close(ctx, *fd).ok()) {
        return false;
      }
      return fs->Unlink(ctx, path).ok();
    };
    wload::ParallelRunner runner(kThreads, kCpus, setup.clock.NowNs());
    if (profiler != nullptr) {
      runner.SetObservers(nullptr, profiler);
    }
    return runner.Run(kOpsPerThread, op).run;
  };

  obs::Profiler profiler(/*sample_shift=*/0);
  const wload::RunResult plain = run(nullptr);
  const wload::RunResult profiled = run(&profiler);

  ASSERT_EQ(plain.total_ops, kThreads * kOpsPerThread) << fs_name;
  ASSERT_EQ(profiled.total_ops, plain.total_ops) << fs_name;
  ASSERT_EQ(profiled.wall_ns, plain.wall_ns)
      << fs_name << ": simulated wall time moved when the profiler attached";
  for (const common::CounterField& field : common::kCounterFields) {
    ASSERT_EQ(profiled.counters.*field.member, plain.counters.*field.member)
        << fs_name << ": counter " << field.name << " moved when the profiler attached";
  }

  // The run must have produced real profile content, not vacuous equality.
  uint64_t acquisitions = 0;
  for (const obs::LockSiteStats& site : profiler.LockSites()) {
    acquisitions += site.acquisitions;
  }
  EXPECT_GT(acquisitions, 0u) << fs_name;
  EXPECT_FALSE(profiler.Attribution().empty()) << fs_name;
  EXPECT_GT(profiler.ops_sampled(), 0u) << fs_name;
}

INSTANTIATE_TEST_SUITE_P(Filesystems, ProfilerFsTest,
                         ::testing::Values("winefs", "ext4-dax", "xfs-dax", "pmfs",
                                           "nova", "splitfs"),
                         [](const ::testing::TestParamInfo<std::string>& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
