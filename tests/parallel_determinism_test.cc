// Deterministic-merge contract of wload::ParallelRunner: for each sharded
// filesystem (WineFS, NOVA), a run fanned across {2, 8} host worker threads
// must produce modeled outputs (total_ops, wall_ns, every PerfCounters field)
// bit-identical to a separate one-worker run on a fresh bed, and the logical
// post-run filesystem state (namespace + sizes + bytes, remounted through the
// normal recovery path) must hash identically. Every other stock filesystem
// asked for 8 workers runs on one and reproduces the one-worker run.
// Host-side values (host_wall_ns, hazard counts) are deliberately NOT
// compared — they describe the machine, not the model.
//
// The torn-schedule case re-runs the sharded filesystems with pseudo-random
// host yields injected between ops, so a TSan build explores adversarial
// interleavings; modeled outputs must still not move. The campaign case fans
// the crash-exploration campaign across host workers and requires
// order-independent totals plus identical recovered-state hash sets.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/exec_context.h"
#include "src/common/perf_counters.h"
#include "src/crashmk/campaign.h"
#include "src/vfs/file_system.h"
#include "src/wload/harness.h"
#include "src/wload/parallel_runner.h"

namespace {

constexpr uint64_t kMiB = 1024ull * 1024;
constexpr uint32_t kThreads = 8;    // cpus == threads: the sharded geometry
constexpr uint64_t kOps = 30;

const char* kStockFs[] = {"ext4-dax", "xfs-dax", "pmfs", "splitfs", "winefs", "nova"};
const char* kShardedFs[] = {"winefs", "nova"};
const char* kSerialFs[] = {"ext4-dax", "xfs-dax", "pmfs", "splitfs"};

wload::Bed MakeParallelBed(const std::string& fs_name) {
  wload::BedSpec spec;
  spec.fs_name = fs_name;
  spec.device_bytes = 64 * kMiB;
  spec.num_cpus = kThreads;
  spec.lock_domains = kThreads;
  auto bed = wload::MakeBed(spec);
  EXPECT_TRUE(bed.ok()) << fs_name;
  // Shard purity: each simulated thread owns its own namespace subtree.
  for (uint32_t t = 0; t < kThreads; t++) {
    EXPECT_TRUE(bed->fs->Mkdir(bed->setup, "/t" + std::to_string(t)).ok());
  }
  return std::move(bed.value());
}

// The measured op mix: create/append/fsync/close with periodic mkdir and
// unlink, entirely inside the thread's own subtree. Deterministic in
// (tid, op_index) so every schedule performs the same logical work.
wload::ParallelRunner::OpFn MakeOp(vfs::FileSystem* fs) {
  return [fs](uint32_t tid, uint64_t i, common::ExecContext& ctx) {
    const std::string dir = "/t" + std::to_string(tid);
    if (i % 5 == 4) {
      (void)fs->Mkdir(ctx, dir + "/d" + std::to_string(i));
      return true;
    }
    if (i % 7 == 3) {
      (void)fs->Unlink(ctx, dir + "/f" + std::to_string((i + 1) % 3));
      return true;
    }
    const std::string path = dir + "/f" + std::to_string(i % 3);
    auto fd = fs->Open(ctx, path, vfs::OpenFlags::Create());
    if (!fd.ok()) {
      return false;
    }
    std::vector<uint8_t> buf(512 + 256 * (i % 3),
                             static_cast<uint8_t>(0x20 + tid * 8 + i % 8));
    if (!fs->Append(ctx, *fd, buf.data(), buf.size()).ok()) {
      return false;
    }
    if (!fs->Fsync(ctx, *fd).ok()) {
      return false;
    }
    return fs->Close(ctx, *fd).ok();
  };
}

uint64_t Fnv1a(uint64_t h, const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; i++) {
    h = (h ^ p[i]) * 0x100000001b3ull;
  }
  return h;
}

uint64_t HashStr(uint64_t h, const std::string& s) { return Fnv1a(h, s.data(), s.size()); }

void HashTree(vfs::FileSystem* fs, common::ExecContext& ctx, const std::string& path,
              uint64_t& h) {
  auto entries = fs->ReadDir(ctx, path);
  ASSERT_TRUE(entries.ok()) << path;
  std::vector<vfs::DirEntry> sorted = *entries;
  std::sort(sorted.begin(), sorted.end(),
            [](const vfs::DirEntry& a, const vfs::DirEntry& b) { return a.name < b.name; });
  for (const vfs::DirEntry& e : sorted) {
    if (e.name == "." || e.name == "..") {
      continue;
    }
    const std::string child = (path == "/" ? "" : path) + "/" + e.name;
    h = HashStr(h, child);
    h = Fnv1a(h, &e.is_dir, sizeof(e.is_dir));
    if (e.is_dir) {
      HashTree(fs, ctx, child, h);
      continue;
    }
    auto st = fs->Stat(ctx, child);
    ASSERT_TRUE(st.ok()) << child;
    h = Fnv1a(h, &st->size, sizeof(st->size));
    auto fd = fs->Open(ctx, child, vfs::OpenFlags::ReadOnly());
    ASSERT_TRUE(fd.ok()) << child;
    std::vector<uint8_t> buf(st->size);
    if (st->size > 0) {
      auto io = fs->Pread(ctx, *fd, buf.data(), buf.size(), 0);
      ASSERT_TRUE(io.ok()) << child;
      ASSERT_EQ(io.bytes(), buf.size()) << child;
      h = Fnv1a(h, buf.data(), buf.size());
    }
    ASSERT_TRUE(fs->Close(ctx, *fd).ok());
  }
}

// Remounts through the normal recovery path, then hashes the logical
// namespace: paths, dir-ness, sizes, file bytes. Deliberately excludes inode
// numbers, fds, and raw device bytes — those are representation, not model.
uint64_t RecoveredStateHash(wload::Bed& bed) {
  common::ExecContext ctx;
  EXPECT_TRUE(bed.fs->Unmount(ctx).ok());
  EXPECT_TRUE(bed.fs->Mount(ctx).ok());
  uint64_t h = 0xcbf29ce484222325ull;
  HashTree(bed.fs.get(), ctx, "/", h);
  return h;
}

struct Outcome {
  wload::RunResult run;
  uint64_t state_hash = 0;
  uint32_t workers = 0;  // host workers the runner actually used
};

Outcome RunParallel(const std::string& fs_name, uint32_t workers, bool stress) {
  wload::Bed bed = MakeParallelBed(fs_name);
  wload::ParallelRunner runner(kThreads, kThreads, bed.setup.clock.NowNs());
  runner.SetWorkers(workers, *bed.fs);
  if (stress) {
    runner.SetStressYields(0x7ea5ull * workers);
  }
  Outcome out;
  const wload::ParallelResult par = runner.Run(kOps, MakeOp(bed.fs.get()));
  out.run = par.run;
  out.workers = par.workers;
  out.state_hash = RecoveredStateHash(bed);
  return out;
}

void ExpectIdentical(const std::string& label, const Outcome& got, const Outcome& want) {
  EXPECT_EQ(got.run.total_ops, want.run.total_ops) << label;
  EXPECT_EQ(got.run.wall_ns, want.run.wall_ns) << label;
  for (const common::CounterField& field : common::kCounterFields) {
    EXPECT_EQ(got.run.counters.*field.member, want.run.counters.*field.member)
        << label << " counter " << field.name;
  }
  EXPECT_EQ(got.state_hash, want.state_hash) << label << " recovered-state hash";
}

TEST(ParallelPolicy, PerCpuFilesystemsDeclareSharded) {
  for (const char* fs_name : kStockFs) {
    wload::Bed bed = MakeParallelBed(fs_name);
    const bool sharded = bed.fs->parallel_policy() == vfs::ParallelPolicy::kSharded;
    const bool per_cpu = std::string(fs_name) == "winefs" || std::string(fs_name) == "nova";
    EXPECT_EQ(sharded, per_cpu) << fs_name;
  }
}

TEST(ParallelDeterminism, BitIdenticalAcrossWorkerCounts) {
  for (const char* fs_name : kShardedFs) {
    const Outcome one = RunParallel(fs_name, 1, /*stress=*/false);
    EXPECT_EQ(one.run.total_ops, uint64_t{kThreads * kOps}) << fs_name;
    EXPECT_EQ(one.workers, 1u) << fs_name;
    for (uint32_t workers : {2u, 8u}) {
      const Outcome par = RunParallel(fs_name, workers, /*stress=*/false);
      EXPECT_EQ(par.workers, workers) << fs_name;
      ExpectIdentical(std::string(fs_name) + " w=" + std::to_string(workers), par, one);
    }
  }
}

TEST(ParallelDeterminism, SerialFilesystemsRunOnOneWorker) {
  for (const char* fs_name : kSerialFs) {
    const Outcome one = RunParallel(fs_name, 1, /*stress=*/false);
    EXPECT_EQ(one.run.total_ops, uint64_t{kThreads * kOps}) << fs_name;
    const Outcome asked = RunParallel(fs_name, 8, /*stress=*/false);
    EXPECT_EQ(asked.workers, 1u) << fs_name;
    ExpectIdentical(std::string(fs_name) + " asked for 8 workers", asked, one);
  }
}

TEST(ParallelDeterminism, TornScheduleStressDoesNotMoveModeledOutputs) {
  // The sharded filesystems free-run under a yield storm. Under TSan this is
  // the race hunt; under a plain build it still proves schedule independence.
  for (const char* fs_name : kShardedFs) {
    const Outcome one = RunParallel(fs_name, 1, /*stress=*/false);
    for (uint32_t workers : {2u, 8u}) {
      const Outcome par = RunParallel(fs_name, workers, /*stress=*/true);
      ExpectIdentical(std::string(fs_name) + " stressed w=" + std::to_string(workers), par,
                      one);
    }
  }
}

TEST(ParallelDeterminism, CampaignFanOutMatchesSequentialTotals) {
  crashmk::CampaignConfig config;
  config.fs = "winefs";
  config.include_data_ops = false;
  config.collect_state_hashes = true;
  auto run = [&](uint32_t workers) {
    config.host_workers = workers;
    auto result = crashmk::RunCampaign(config);
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  };
  const crashmk::CampaignResult seq = run(1);
  const crashmk::CampaignResult par = run(2);
  EXPECT_TRUE(seq.ok());
  EXPECT_TRUE(par.ok());
  EXPECT_EQ(par.workloads, seq.workloads);
  EXPECT_EQ(par.totals.ops_executed, seq.totals.ops_executed);
  EXPECT_EQ(par.totals.crash_states, seq.totals.crash_states);
  EXPECT_EQ(par.totals.oracle_replays, seq.totals.oracle_replays);
  EXPECT_EQ(par.totals.pruned_replays, seq.totals.pruned_replays);
  EXPECT_EQ(par.totals.distinct_images, seq.totals.distinct_images);
  EXPECT_EQ(par.totals.recovered_state_hashes, seq.totals.recovered_state_hashes);
}

}  // namespace
