// Workload-library tests: each application stand-in runs against a real
// filesystem + mmap engine and must behave correctly (values round-trip,
// counters move in the expected directions).
#include <gtest/gtest.h>

#include <memory>

#include "src/common/units.h"
#include "src/fs/registry.h"
#include "src/wload/filebench.h"
#include "src/wload/mmap_btree.h"
#include "src/wload/mmap_lsm.h"
#include "src/wload/oltp.h"
#include "src/wload/part.h"
#include "src/wload/pool_kv.h"
#include "src/wload/parallel_runner.h"
#include "src/wload/wtiger.h"
#include "src/wload/ycsb.h"

namespace {

using common::ExecContext;
using common::kMiB;

class WloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dev_ = std::make_unique<pmem::PmemDevice>(1024 * kMiB);
    fs_ = fsreg::Create("winefs", dev_.get());
    ASSERT_TRUE(fs_->Mkfs(ctx_).ok());
    engine_ = std::make_unique<vmem::MmapEngine>(dev_.get(), vmem::MmuParams{}, 8);
  }

  ExecContext ctx_;
  std::unique_ptr<pmem::PmemDevice> dev_;
  std::unique_ptr<vfs::FileSystem> fs_;
  std::unique_ptr<vmem::MmapEngine> engine_;
};

TEST_F(WloadTest, RunnerAggregates) {
  wload::ParallelRunner runner(4, 4);
  const wload::RunResult result = runner.Run(100, [](uint32_t, uint64_t, ExecContext& ctx) {
    ctx.clock.Advance(10);
    return true;
  }).run;
  EXPECT_EQ(result.total_ops, 400u);
  EXPECT_EQ(result.wall_ns, 1000u);  // threads in parallel: 100 ops x 10 ns
  EXPECT_GT(result.OpsPerSecond(), 0.0);
}

TEST_F(WloadTest, RunnerStopsEarly) {
  wload::ParallelRunner runner(2, 2);
  const wload::RunResult result =
      runner.Run(100, [](uint32_t, uint64_t i, ExecContext&) { return i < 10; }).run;
  EXPECT_EQ(result.total_ops, 20u);
}

TEST_F(WloadTest, MmapLsmRoundTrip) {
  wload::MmapLsm lsm(fs_.get(), engine_.get(), wload::MmapLsmConfig{.segment_bytes = 8 * kMiB});
  ASSERT_TRUE(lsm.Open(ctx_).ok());
  std::vector<uint8_t> value(1024);
  for (size_t i = 0; i < value.size(); i++) {
    value[i] = static_cast<uint8_t>(i * 3);
  }
  for (uint64_t k = 0; k < 100; k++) {
    value[0] = static_cast<uint8_t>(k);
    ASSERT_TRUE(lsm.Put(ctx_, k, value.data(), value.size()).ok());
  }
  std::vector<uint8_t> out(1024);
  for (uint64_t k = 0; k < 100; k++) {
    auto n = lsm.Get(ctx_, k, out.data());
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 1024u);
    EXPECT_EQ(out[0], static_cast<uint8_t>(k));
    EXPECT_EQ(out[500], value[500]);
  }
  EXPECT_EQ(lsm.Get(ctx_, 99999, out.data()).status().code(), common::ErrorCode::kNotFound);
}

TEST_F(WloadTest, MmapLsmRollsSegments) {
  wload::MmapLsm lsm(fs_.get(), engine_.get(), wload::MmapLsmConfig{.segment_bytes = 1 * kMiB});
  ASSERT_TRUE(lsm.Open(ctx_).ok());
  std::vector<uint8_t> value(4096, 9);
  for (uint64_t k = 0; k < 600; k++) {  // ~2.4 MiB total -> multiple segments
    ASSERT_TRUE(lsm.Put(ctx_, k, value.data(), value.size()).ok());
  }
  std::vector<uint8_t> out(4096);
  auto n = lsm.Get(ctx_, 599, out.data());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(out[0], 9);
}

TEST_F(WloadTest, MmapLsmScan) {
  wload::MmapLsm lsm(fs_.get(), engine_.get(), wload::MmapLsmConfig{.segment_bytes = 8 * kMiB});
  ASSERT_TRUE(lsm.Open(ctx_).ok());
  std::vector<uint8_t> value(128, 4);
  for (uint64_t k = 0; k < 200; k += 2) {
    ASSERT_TRUE(lsm.Put(ctx_, k, value.data(), value.size()).ok());
  }
  std::vector<uint8_t> out(8192);
  auto n = lsm.Scan(ctx_, 100, 10, out.data());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 10u);
}

TEST_F(WloadTest, MmapBtreeBatchedPutsVisible) {
  wload::MmapBtree btree(fs_.get(), engine_.get(),
                         wload::MmapBtreeConfig{.map_bytes = 64 * kMiB, .batch_size = 10});
  ASSERT_TRUE(btree.Open(ctx_).ok());
  std::vector<uint8_t> value(512);
  std::vector<uint8_t> out(4096);
  for (uint64_t k = 0; k < 105; k++) {
    value[0] = static_cast<uint8_t>(k * 7);
    ASSERT_TRUE(btree.Put(ctx_, k, value.data(), value.size()).ok());
  }
  // 100 committed + 5 pending; both must be readable.
  for (uint64_t k : {0ull, 55ull, 99ull, 103ull}) {
    auto n = btree.Get(ctx_, k, out.data());
    ASSERT_TRUE(n.ok()) << k;
    EXPECT_EQ(out[0], static_cast<uint8_t>(k * 7));
  }
  EXPECT_GT(btree.pages_used(), 10u);
}

TEST_F(WloadTest, MmapBtreeFaultsAreAllocating) {
  // The sparse map means writes fault-allocate; verify blocks appear.
  wload::MmapBtree btree(fs_.get(), engine_.get(),
                         wload::MmapBtreeConfig{.map_bytes = 64 * kMiB, .batch_size = 4});
  ASSERT_TRUE(btree.Open(ctx_).ok());
  auto st0 = fs_->Stat(ctx_, "/lmdb.mdb");
  // WineFS's hugepage-allocating write fault materializes a whole 2 MiB chunk
  // on first touch; write past it to prove faults keep allocating.
  std::vector<uint8_t> value(1024, 1);
  for (uint64_t k = 0; k < 4000; k++) {
    ASSERT_TRUE(btree.Put(ctx_, k, value.data(), value.size()).ok());
  }
  auto st1 = fs_->Stat(ctx_, "/lmdb.mdb");
  EXPECT_GT(st1->blocks, st0->blocks);
  EXPECT_GT(st1->blocks, common::kBlocksPerHugepage);
  EXPECT_GT(ctx_.counters.total_page_faults(), 0u);
}

TEST_F(WloadTest, PoolKvExtendsPools) {
  wload::PoolKv kv(fs_.get(), engine_.get(), wload::PoolKvConfig{.pool_bytes = 32 * kMiB});
  ASSERT_TRUE(kv.Open(ctx_).ok());
  std::vector<uint8_t> value(4096);
  std::vector<uint8_t> out(4096);
  for (uint64_t k = 0; k < 6000; k++) {  // ~24 MiB of values -> pool 0 (16 MiB
                                         // reserved) overflows into pool 1
    value[5] = static_cast<uint8_t>(k);
    ASSERT_TRUE(kv.Put(ctx_, k, value.data(), value.size()).ok());
  }
  EXPECT_GE(kv.pool_count(), 2u);
  for (uint64_t k : {0ull, 3000ull, 5999ull}) {
    auto n = kv.Get(ctx_, k, out.data());
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(out[5], static_cast<uint8_t>(k));
  }
}

TEST_F(WloadTest, PArtInsertLookup) {
  wload::PArt part(fs_.get(), engine_.get(),
                   wload::PArtConfig{.pool_bytes = 64 * kMiB, .prefault = false});
  ASSERT_TRUE(part.Open(ctx_).ok());
  for (uint64_t k = 0; k < 5000; k++) {
    ASSERT_TRUE(part.Insert(ctx_, k * 977, k + 1).ok()) << k;
  }
  for (uint64_t k = 0; k < 5000; k += 7) {
    auto v = part.Lookup(ctx_, k * 977);
    ASSERT_TRUE(v.ok()) << k;
    EXPECT_EQ(*v, k + 1);
  }
  EXPECT_FALSE(part.Lookup(ctx_, 123456789).ok());
}

TEST_F(WloadTest, PArtUpdatesInPlace) {
  wload::PArt part(fs_.get(), engine_.get(),
                   wload::PArtConfig{.pool_bytes = 16 * kMiB, .prefault = false});
  ASSERT_TRUE(part.Open(ctx_).ok());
  ASSERT_TRUE(part.Insert(ctx_, 42, 1).ok());
  ASSERT_TRUE(part.Insert(ctx_, 42, 2).ok());
  EXPECT_EQ(*part.Lookup(ctx_, 42), 2u);
}

TEST_F(WloadTest, PArtNodeGrowthAdaptive) {
  wload::PArt part(fs_.get(), engine_.get(),
                   wload::PArtConfig{.pool_bytes = 64 * kMiB, .prefault = false});
  ASSERT_TRUE(part.Open(ctx_).ok());
  // 300 keys differing only in the last byte force 4 -> 16 -> 48 -> 256 growth
  // of one node (255 distinct bytes + spill to the next byte position).
  for (uint64_t k = 0; k < 300; k++) {
    ASSERT_TRUE(part.Insert(ctx_, k, k).ok()) << k;
  }
  for (uint64_t k = 0; k < 300; k++) {
    auto v = part.Lookup(ctx_, k);
    ASSERT_TRUE(v.ok()) << k;
    EXPECT_EQ(*v, k);
  }
}

TEST_F(WloadTest, YcsbOnMmapLsm) {
  wload::MmapLsm lsm(fs_.get(), engine_.get(), wload::MmapLsmConfig{.segment_bytes = 16 * kMiB});
  ASSERT_TRUE(lsm.Open(ctx_).ok());
  wload::YcsbConfig config;
  config.record_count = 2000;
  config.operation_count = 2000;
  config.value_bytes = 256;
  config.num_threads = 2;
  wload::YcsbDriver driver(&lsm, config);
  auto load = driver.Load();
  EXPECT_EQ(load.run.total_ops, 2000u);
  for (auto workload : {wload::YcsbWorkload::kA, wload::YcsbWorkload::kB,
                        wload::YcsbWorkload::kC, wload::YcsbWorkload::kD,
                        wload::YcsbWorkload::kE, wload::YcsbWorkload::kF}) {
    auto result = driver.Run(workload);
    EXPECT_EQ(result.run.total_ops, 2000u) << wload::YcsbName(workload);
    EXPECT_EQ(result.not_found, 0u) << wload::YcsbName(workload);
    EXPECT_GT(result.run.OpsPerSecond(), 0.0);
  }
}

TEST_F(WloadTest, FilebenchPersonalitiesRun) {
  for (auto personality :
       {wload::FilebenchPersonality::kVarmail, wload::FilebenchPersonality::kFileserver,
        wload::FilebenchPersonality::kWebserver, wload::FilebenchPersonality::kWebproxy}) {
    SetUp();  // fresh filesystem per personality
    wload::FilebenchConfig config;
    config.num_threads = 4;
    config.num_files = 100;
    config.ops_per_thread = 30;
    config.mean_file_bytes = 8192;
    wload::Filebench bench(fs_.get(), personality, config);
    auto result = bench.Run();
    ASSERT_TRUE(result.ok()) << wload::FilebenchName(personality)
                             << ": " << result.status().message();
    EXPECT_EQ(result->run.total_ops, 120u);
    EXPECT_GT(result->KopsPerSecond(), 0.0);
  }
}

TEST_F(WloadTest, OltpTransactionsComplete) {
  wload::OltpConfig config;
  config.accounts = 10000;
  config.num_threads = 4;
  config.transactions_per_thread = 50;
  wload::OltpEngine oltp(fs_.get(), config);
  ASSERT_TRUE(oltp.Setup(ctx_).ok());
  auto result = oltp.RunReadWrite();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_ops, 200u);
  EXPECT_GT(result->counters.fsync_count, 0u);
}

TEST_F(WloadTest, WtigerFillAndRead) {
  wload::WtigerConfig config;
  config.num_keys = 800;
  config.num_threads = 4;
  wload::Wtiger wt(fs_.get(), config);
  ASSERT_TRUE(wt.Setup(ctx_).ok());
  auto fill = wt.FillRandom();
  ASSERT_TRUE(fill.ok());
  EXPECT_EQ(fill->total_ops, 800u);
  auto read = wt.ReadRandom();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->total_ops, 800u);
  // Unaligned appends: the log must not be block-aligned in size.
  auto st = fs_->Stat(ctx_, "/wt_log");
  EXPECT_NE(st->size % common::kBlockSize, 0u);
}

}  // namespace
