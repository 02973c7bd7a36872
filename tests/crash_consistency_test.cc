// §5.2 reproduction: CrashMonkey/ACE-style crash-consistency exploration of
// WineFS, plus PMFS for the cases that judge the undo journal both share.
// Every generated workload is executed op by op; at every fence boundary
// inside each syscall, all subsets of in-flight cachelines are materialized
// as crash images; each image is mounted (running journal recovery +
// rebuild) and its logical state must equal the pre-op or post-op oracle.
// "Currently, WineFS passes all the CrashMonkey tests."
#include <gtest/gtest.h>

#include <string>

#include "src/common/units.h"
#include "src/crashmk/explorer.h"
#include "src/fs/pmfs/pmfs.h"
#include "src/fs/winefs/winefs.h"

namespace {

using common::kKiB;
using common::kMiB;

// 256 journal blocks over 2 CPUs: two rings of 8192 entries (512 KiB).
crashmk::Explorer::FsFactory WineFsFactory(bool per_cpu_journals = true,
                                           uint64_t journal_blocks = 256) {
  return [per_cpu_journals, journal_blocks](pmem::PmemDevice* device)
             -> std::unique_ptr<vfs::FileSystem> {
    winefs::WineFsOptions options;
    options.base.max_inodes = 1024;   // small table keeps crash images cheap
    options.base.journal_blocks = journal_blocks;
    options.base.num_cpus = 2;
    options.per_cpu_journals = per_cpu_journals;
    return std::make_unique<winefs::WineFs>(device, options);
  };
}

// One ring of journal_blocks * 64 entries: 8192 by default, like each of
// WineFsFactory's two.
crashmk::Explorer::FsFactory PmfsFactory(uint64_t journal_blocks = 128) {
  return [journal_blocks](pmem::PmemDevice* device) -> std::unique_ptr<vfs::FileSystem> {
    pmfs::PmfsOptions options;
    options.base.max_inodes = 1024;
    options.base.journal_blocks = journal_blocks;
    return std::make_unique<pmfs::Pmfs>(device, options);
  };
}

class CrashConsistencyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CrashConsistencyTest, WineFsRecoversToPreOrPostState) {
  const auto workloads = crashmk::Explorer::GenerateAceWorkloads(/*include_data_ops=*/true);
  ASSERT_LT(GetParam(), workloads.size());
  crashmk::Explorer explorer(WineFsFactory(), crashmk::Explorer::Config{});
  const auto result = explorer.RunWorkload(workloads[GetParam()]);
  EXPECT_GT(result.crash_states, 0u);
  EXPECT_TRUE(result.ok()) << result.first_failure << "\n(mount_failures="
                           << result.mount_failures
                           << " oracle_failures=" << result.oracle_failures
                           << " states=" << result.crash_states << ")";
}

INSTANTIATE_TEST_SUITE_P(
    AceWorkloads, CrashConsistencyTest,
    ::testing::Range<size_t>(0, crashmk::Explorer::GenerateAceWorkloads(true).size()),
    [](const ::testing::TestParamInfo<size_t>& param_info) {
      auto workloads = crashmk::Explorer::GenerateAceWorkloads(true);
      std::string name = workloads[param_info.param][0].Describe();
      if (workloads[param_info.param].size() > 1) {
        name += " then " + workloads[param_info.param][1].Describe();
      }
      std::string safe;
      for (char c : name) {
        safe += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
      }
      return safe;
    });

TEST(CrashConsistencyGlobalTest, SingleJournalModeAlsoRecovers) {
  const auto workloads = crashmk::Explorer::GenerateAceWorkloads(false);
  crashmk::Explorer explorer(WineFsFactory(/*per_cpu_journals=*/false),
                             crashmk::Explorer::Config{});
  for (size_t i = 0; i < 5; i++) {
    const auto result = explorer.RunWorkload(workloads[i]);
    EXPECT_TRUE(result.ok()) << "workload " << i << ": " << result.first_failure;
  }
}

TEST(CrashConsistencyGlobalTest, DataJournalBlobPathRecovers) {
  // Overwriting an aligned (hugepage) region uses the compact blob undo
  // records; a crash mid-overwrite must roll the old data back intact.
  using K = crashmk::CrashOp::Kind;
  crashmk::Workload workload{
      {K::kFallocate, "/A", "", 0, 2 * 1024 * 1024},  // one aligned extent
      {K::kPwrite, "/A", "", 0, 2000},                // blob-journaled overwrite
      {K::kPwrite, "/A", "", 4096, 1500},
  };
  crashmk::Explorer explorer(WineFsFactory(), crashmk::Explorer::Config{});
  const auto result = explorer.RunWorkload(workload);
  EXPECT_TRUE(result.ok()) << result.first_failure;
  EXPECT_EQ(result.ops_executed, 3u);
  EXPECT_GT(result.crash_states, 0u);
}

TEST(CrashConsistencyGlobalTest, TornBlobUndoRecordsRollBackIntact) {
  // The data-journal blob path writes multi-line undo images; torn blob
  // cachelines must be caught by the payload checksum, never rolled back.
  using K = crashmk::CrashOp::Kind;
  crashmk::Workload workload{
      {K::kFallocate, "/A", "", 0, 2 * 1024 * 1024},
      {K::kPwrite, "/A", "", 0, 2000},
  };
  crashmk::Explorer::Config config;
  config.torn_writes = true;
  crashmk::Explorer explorer(WineFsFactory(), config);
  const auto result = explorer.RunWorkload(workload);
  EXPECT_TRUE(result.ok()) << result.first_failure;
  EXPECT_GT(result.crash_states, 0u);
}

// A data-journaled overwrite larger than its ring. A transaction that wrote
// more entries than its ring holds overwrote its own kStart and first undo
// blobs, so a crash mid-overwrite left a torn write; the overwrite now copies
// on write whatever would not fit. Sizes on both sides of the 512 KiB rings.
class RingCapacityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RingCapacityTest, OverwriteLargerThanRingRecovers) {
  using K = crashmk::CrashOp::Kind;
  crashmk::Workload workload{
      {K::kCreate, "/E", "", 0, 0},
      {K::kFallocate, "/E", "", 0, 2 * kMiB},  // one aligned extent
      {K::kPwrite, "/E", "", 0, GetParam()},
  };
  crashmk::Explorer::Config config;
  config.prune = true;
  crashmk::Explorer explorer(WineFsFactory(), config);
  const auto result = explorer.RunWorkload(workload);
  EXPECT_EQ(result.ops_executed, 3u);
  EXPECT_GT(result.crash_states, 0u);
  EXPECT_TRUE(result.ok()) << result.first_failure << "\n(mount_failures="
                           << result.mount_failures
                           << " oracle_failures=" << result.oracle_failures << ")";
}

INSTANTIATE_TEST_SUITE_P(PwriteBytes, RingCapacityTest,
                         ::testing::Values(448 * kKiB, 640 * kKiB, 1 * kMiB),
                         [](const ::testing::TestParamInfo<uint64_t>& param_info) {
                           return std::to_string(param_info.param / kKiB) + "KiB";
                         });

// The torn-write, multi-file and wrap-point cases run on WineFS and on PMFS:
// both crash verdicts rest on the undo journal the two share.

void ExpectTornWritesRecover(const crashmk::Explorer::FsFactory& factory) {
  // Acceptance gate for the torn-store composition: x86 persists only 8 bytes
  // atomically, so each crash state admits partially-persisted cachelines.
  // The filesystem must recover from every torn state too (the journal-entry
  // checksum makes torn undo records detectable). At least 500 states across
  // the swept workloads keeps this a meaningful exploration, not a smoke test.
  crashmk::Explorer::Config config;
  config.torn_writes = true;
  config.torn_seed = 0x5eed;
  crashmk::Explorer explorer(factory, config);
  const auto workloads = crashmk::Explorer::GenerateAceWorkloads(/*include_data_ops=*/true);
  uint64_t total_states = 0;
  for (size_t i = 0; i < 8; i++) {
    const auto result = explorer.RunWorkload(workloads[i]);
    EXPECT_TRUE(result.ok()) << "workload " << i << ": " << result.first_failure;
    total_states += result.crash_states;
  }
  EXPECT_GE(total_states, 500u);
}

TEST(CrashConsistencyGlobalTest, TornWritesFindNoOracleViolations) {
  ExpectTornWritesRecover(WineFsFactory());
}

TEST(CrashConsistencyGlobalTest, PmfsTornWritesFindNoOracleViolations) {
  ExpectTornWritesRecover(PmfsFactory());
}

void ExpectMultiFileChainRecovers(const crashmk::Explorer::FsFactory& factory) {
  // §5.2: per-CPU journals + VFS locks mean at most one pending transaction
  // per file; a chain touching several files must still recover.
  using K = crashmk::CrashOp::Kind;
  crashmk::Workload workload{
      {K::kCreate, "/w1", "", 0, 0},
      {K::kCreate, "/w2", "", 0, 0},
      {K::kRename, "/w1", "/w3", 0, 0},
      {K::kAppend, "/w2", "", 0, 600},
      {K::kUnlink, "/w3", "", 0, 0},
  };
  crashmk::Explorer explorer(factory, crashmk::Explorer::Config{});
  const auto result = explorer.RunWorkload(workload);
  EXPECT_TRUE(result.ok()) << result.first_failure;
  EXPECT_EQ(result.ops_executed, 5u);
}

TEST(CrashConsistencyGlobalTest, MultiFileWorkloadSerializedByVfsLocks) {
  ExpectMultiFileChainRecovers(WineFsFactory());
}

TEST(CrashConsistencyGlobalTest, PmfsMultiFileWorkloadSerializedByVfsLocks) {
  ExpectMultiFileChainRecovers(PmfsFactory());
}

// Metadata ops for the wrap-point cases: with the fixture's ~50 journal
// entries they write ~140 in all, lapping a 64-entry ring twice.
crashmk::Workload WrapPointWorkload() {
  using K = crashmk::CrashOp::Kind;
  return {
      {K::kCreate, "/w1", "", 0, 0},
      {K::kAppend, "/w1", "", 0, 600},
      {K::kCreate, "/w2", "", 0, 0},
      {K::kRename, "/w1", "/w3", 0, 0},
      {K::kAppend, "/w2", "", 0, 5000},
      {K::kRename, "/A", "/w2", 0, 0},
      {K::kMkdir, "/E", "", 0, 0},
      {K::kRename, "/w3", "/E/w3", 0, 0},
      {K::kUnlink, "/E/w3", "", 0, 0},
      {K::kRmdir, "/E", "", 0, 0},
  };
}

// Crashes inside transactions that straddle a ring's wrap point: recovery
// must order the entries across it.
void ExpectRollbackAcrossWrapPoint(const crashmk::Explorer::FsFactory& factory,
                                   const crashmk::Workload& workload) {
  crashmk::Explorer::Config config;
  config.prune = true;
  crashmk::Explorer explorer(factory, config);
  const auto result = explorer.RunWorkload(workload);
  EXPECT_TRUE(result.ok()) << result.first_failure;
  EXPECT_EQ(result.ops_executed, workload.size());
  EXPECT_GT(result.crash_states, 0u);
}

TEST(CrashConsistencyGlobalTest, PmfsRollbackAcrossRingWrapPoint) {
  ExpectRollbackAcrossWrapPoint(PmfsFactory(/*journal_blocks=*/1), WrapPointWorkload());
}

TEST(CrashConsistencyGlobalTest, WineFsRollbackAcrossRingWrapPoint) {
  // 128-entry rings: a blob and its reserve do not fit in 64. The
  // overwrites of an aligned extent add ~150 entries, so one blob image
  // straddles a wrap point too. Each overwrites the tail of the one before,
  // so an old image misread across the wrap point would show.
  using K = crashmk::CrashOp::Kind;
  crashmk::Workload workload = WrapPointWorkload();
  workload.push_back({K::kCreate, "/W", "", 0, 0});
  workload.push_back({K::kFallocate, "/W", "", 0, 2 * kMiB});
  for (const uint64_t off : {1500, 1000, 500, 0}) {
    workload.push_back({K::kPwrite, "/W", "", off, 2000});
  }
  ExpectRollbackAcrossWrapPoint(WineFsFactory(/*per_cpu_journals=*/true, /*journal_blocks=*/4),
                                workload);
}

}  // namespace
