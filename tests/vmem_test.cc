// Unit tests for the virtual-memory simulator: TLB, LLC, page table, and the
// mmap engine's fault/translation paths with a scripted fault handler.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/perf_counters.h"
#include "src/common/units.h"
#include "src/obs/profiler.h"
#include "src/pmem/device.h"
#include "src/vmem/llc_cache.h"
#include "src/vmem/mmap_engine.h"
#include "src/vmem/page_table.h"
#include "src/vmem/tlb.h"

namespace {

using common::ExecContext;
using common::kBlockSize;
using common::kHugepageSize;
using vmem::MmuParams;
using vmem::Tlb;
using vmem::TlbResult;

TEST(TlbTest, MissThenHit) {
  Tlb tlb(MmuParams{});
  EXPECT_EQ(tlb.Lookup(0x1000, false), TlbResult::kMiss);
  tlb.Insert(0x1000, false);
  EXPECT_EQ(tlb.Lookup(0x1000, false), TlbResult::kL1Hit);
}

TEST(TlbTest, CapacityEvictsToL2) {
  MmuParams params;
  params.l1_tlb_4k_entries = 4;
  params.l2_tlb_entries = 64;
  Tlb tlb(params);
  for (uint64_t p = 0; p < 8; p++) {
    tlb.Insert(p * kBlockSize, false);
  }
  // The oldest entries fell out of L1 but remain in L2.
  EXPECT_EQ(tlb.Lookup(0, false), TlbResult::kL2Hit);
  // And an L2 hit promotes back into L1.
  EXPECT_EQ(tlb.Lookup(0, false), TlbResult::kL1Hit);
}

TEST(TlbTest, HugeAndBaseDoNotAlias) {
  Tlb tlb(MmuParams{});
  tlb.Insert(0, true);
  EXPECT_EQ(tlb.Lookup(0, false), TlbResult::kMiss);
  EXPECT_EQ(tlb.Lookup(0, true), TlbResult::kL1Hit);
}

TEST(TlbTest, OneHugeEntryCovers512Pages) {
  Tlb tlb(MmuParams{});
  tlb.Insert(0, true);
  for (uint64_t off = 0; off < kHugepageSize; off += kBlockSize) {
    EXPECT_EQ(tlb.Lookup(off, true), TlbResult::kL1Hit);
  }
}

TEST(TlbTest, InvalidateAndFlush) {
  Tlb tlb(MmuParams{});
  tlb.Insert(0x2000, false);
  tlb.InvalidatePage(0x2000, false);
  EXPECT_EQ(tlb.Lookup(0x2000, false), TlbResult::kMiss);
  tlb.Insert(0x3000, false);
  tlb.Flush();
  EXPECT_EQ(tlb.Lookup(0x3000, false), TlbResult::kMiss);
}

// A 0-entry STLB holds nothing, like a 0-entry L1 array: pages evicted
// from L1 walk again instead of hitting in L2.
TEST(TlbTest, ZeroEntryStlbHoldsNothing) {
  MmuParams params;
  params.l1_tlb_4k_entries = 2;
  params.l2_tlb_entries = 0;
  Tlb tlb(params);
  for (uint64_t p = 0; p < 4; p++) {
    EXPECT_EQ(tlb.Lookup(p * kBlockSize, false), TlbResult::kMiss);
    tlb.Insert(p * kBlockSize, false);
  }
  EXPECT_EQ(tlb.Lookup(3 * kBlockSize, false), TlbResult::kL1Hit);
  EXPECT_EQ(tlb.Lookup(0, false), TlbResult::kMiss);
  tlb.InvalidatePage(3 * kBlockSize, false);
  EXPECT_EQ(tlb.Lookup(3 * kBlockSize, false), TlbResult::kMiss);
}

TEST(TlbDeathTest, L1ArrayLargerThanSmallLruSetIsFatal) {
  MmuParams params;
  params.l1_tlb_4k_entries = vmem::SmallLruSet::kMaxCapacity + 1;
  EXPECT_DEATH(Tlb tlb(params), "SmallLruSet: capacity 65");
}

TEST(LlcTest, HitAfterFill) {
  MmuParams params;
  vmem::LlcCache llc(params);
  EXPECT_FALSE(llc.Access(0x1000));
  EXPECT_TRUE(llc.Access(0x1000));
}

TEST(LlcTest, CapacityEviction) {
  MmuParams params;
  params.llc_bytes = 64 * 16;  // one set, 16 ways
  params.llc_ways = 16;
  vmem::LlcCache llc(params);
  for (uint64_t i = 0; i < 17; i++) {
    llc.Access(i * 64);
  }
  EXPECT_FALSE(llc.Access(0));  // LRU victim was line 0
}

// A hit makes its line the most recent, so the next eviction takes the line
// filled after it.
TEST(LlcTest, HitRefreshesRecency) {
  MmuParams params;
  params.llc_bytes = 64 * 16;  // one set, 16 ways
  params.llc_ways = 16;
  vmem::LlcCache llc(params);
  for (uint64_t i = 0; i < 16; i++) {
    EXPECT_FALSE(llc.Access(i * 64));
  }
  EXPECT_TRUE(llc.Access(0));
  EXPECT_FALSE(llc.Access(16 * 64));
  EXPECT_TRUE(llc.Access(0));
  EXPECT_FALSE(llc.Access(1 * 64));  // the victim was line 1
}

TEST(LlcDeathTest, WaysOutsideOneToSixteenAreFatal) {
  MmuParams params;
  params.llc_ways = 0;
  EXPECT_DEATH(vmem::LlcCache llc(params), "llc_ways = 0, but a set holds 1 to 16 ways");
  params.llc_ways = vmem::LlcCache::kMaxWays + 1;
  EXPECT_DEATH(vmem::LlcCache llc(params), "llc_ways = 17, but a set holds 1 to 16 ways");
}

// Tags are 32 bits: a one-set cache tags line numbers below 2^32 (addresses
// below 2^38) and must abort above, not alias line 2^32 with line 0.
TEST(LlcDeathTest, TagWiderThan32BitsIsFatal) {
  MmuParams params;
  params.llc_bytes = 64 * 4;  // one set, 4 ways
  params.llc_ways = 4;
  vmem::LlcCache llc(params);
  EXPECT_FALSE(llc.Access((1ull << 38) - 64));
  EXPECT_TRUE(llc.Access((1ull << 38) - 64));
  EXPECT_DEATH(llc.Access(1ull << 38), "tag wider than 32 bits");
}

TEST(PageTableTest, MapWalk4k) {
  vmem::PageTable pt(1ull << 40);
  pt.Map(0x7f0000001000, 0x5000, /*huge=*/false, /*writable=*/true);
  auto walk = pt.Walk(0x7f0000001234);
  ASSERT_TRUE(walk.pte.present);
  EXPECT_FALSE(walk.pte.huge);
  EXPECT_EQ(walk.pte.phys, 0x5000u);
  EXPECT_EQ(walk.pte_line_count, 4u);  // 4-level walk
}

TEST(PageTableTest, MapWalkHugeStopsAtPmd) {
  vmem::PageTable pt(1ull << 40);
  pt.Map(0x7f0000000000, 2 * common::kMiB, /*huge=*/true, /*writable=*/true);
  auto walk = pt.Walk(0x7f0000000000 + 12345);
  ASSERT_TRUE(walk.pte.present);
  EXPECT_TRUE(walk.pte.huge);
  EXPECT_EQ(walk.pte_line_count, 3u);  // PGD, PUD, PMD
}

TEST(PageTableTest, UnmapRemoves) {
  vmem::PageTable pt(1ull << 40);
  pt.Map(0x1000, 0x2000, false, true);
  pt.Unmap(0x1000, false);
  EXPECT_FALSE(pt.Walk(0x1000).pte.present);
}

TEST(PageTableTest, NodeCountGrowsWithSparseMappings) {
  vmem::PageTable pt(1ull << 40);
  const uint64_t before = pt.node_count();
  pt.Map(0x7f0000000000, 0x1000, false, true);
  pt.Map(0x7e0000000000, 0x2000, false, true);  // different PGD entry subtree
  EXPECT_GT(pt.node_count(), before + 3);
}

// Scripted fault handler: maps file offsets 1:1 onto a device region,
// optionally with hugepages.
class FakeHandler : public vmem::FaultHandler {
 public:
  FakeHandler(uint64_t phys_base, bool huge) : phys_base_(phys_base), huge_(huge) {}

  common::Result<FaultMapping> HandleFault(ExecContext& ctx, uint64_t ino,
                                           uint64_t page_offset, bool write) override {
    (void)ctx;
    (void)ino;
    (void)write;
    faults_++;
    if (huge_) {
      const uint64_t chunk = common::RoundDown(page_offset, kHugepageSize);
      return FaultMapping{phys_base_ + chunk, true};
    }
    return FaultMapping{phys_base_ + page_offset, false};
  }

  int faults_ = 0;

 private:
  uint64_t phys_base_;
  bool huge_;
};

class MmapEngineTest : public ::testing::Test {
 protected:
  MmapEngineTest() : dev_(64 * common::kMiB), engine_(&dev_, MmuParams{}, 2) {}

  pmem::PmemDevice dev_;
  vmem::MmapEngine engine_;
};

TEST_F(MmapEngineTest, HugeMappingFaultsOncePer2MiB) {
  FakeHandler handler(4 * common::kMiB, /*huge=*/true);
  auto map = engine_.Mmap(&handler, 1, 4 * common::kMiB, true);
  ExecContext ctx;
  std::vector<uint8_t> buf(4 * common::kMiB, 0x5a);
  ASSERT_TRUE(map->Write(ctx, 0, buf.data(), buf.size()).ok());
  EXPECT_EQ(ctx.counters.page_faults_2m, 2u);
  EXPECT_EQ(ctx.counters.page_faults_4k, 0u);
  EXPECT_EQ(handler.faults_, 2);
  EXPECT_DOUBLE_EQ(map->HugeMappedFraction(), 1.0);
}

TEST_F(MmapEngineTest, BaseMappingFaults512xMore) {
  FakeHandler handler(4 * common::kMiB, /*huge=*/false);
  auto map = engine_.Mmap(&handler, 1, 2 * common::kMiB, true);
  ExecContext ctx;
  std::vector<uint8_t> buf(2 * common::kMiB, 0x5a);
  ASSERT_TRUE(map->Write(ctx, 0, buf.data(), buf.size()).ok());
  EXPECT_EQ(ctx.counters.page_faults_4k, 512u);
  EXPECT_EQ(ctx.counters.page_faults_2m, 0u);
  EXPECT_DOUBLE_EQ(map->HugeMappedFraction(), 0.0);
}

TEST_F(MmapEngineTest, HugeFaultsAreCheaperInTotal) {
  FakeHandler huge_handler(4 * common::kMiB, true);
  FakeHandler base_handler(8 * common::kMiB, false);
  auto huge_map = engine_.Mmap(&huge_handler, 1, 2 * common::kMiB, true);
  auto base_map = engine_.Mmap(&base_handler, 2, 2 * common::kMiB, true);
  std::vector<uint8_t> buf(2 * common::kMiB, 1);
  obs::Profiler huge_profiler(/*sample_shift=*/0);
  obs::Profiler base_profiler(/*sample_shift=*/0);
  ExecContext huge_ctx(0);
  huge_ctx.AttachProfiler(&huge_profiler);
  ExecContext base_ctx(1);
  base_ctx.AttachProfiler(&base_profiler);
  ASSERT_TRUE(huge_map->Write(huge_ctx, 0, buf.data(), buf.size()).ok());
  ASSERT_TRUE(base_map->Write(base_ctx, 0, buf.data(), buf.size()).ok());
  // Fig 2: with hugepages the 2 MiB write is ~2x faster end to end.
  EXPECT_LT(huge_ctx.clock.NowNs() * 3 / 2, base_ctx.clock.NowNs());
  // Fault handling is the write's fscore zone (the scripted handler opens no
  // zones of its own, so it is the one "mmu;fscore" stack).
  auto fault_ns = [](const obs::Profiler& profiler) {
    uint64_t ns = 0;
    for (const obs::Profiler::FoldedFrame& frame : profiler.FoldedStacks()) {
      if (frame.stack == "mmu;fscore") {
        ns += frame.ns;
      }
    }
    return ns;
  };
  EXPECT_GT(fault_ns(huge_profiler), 0u);
  EXPECT_GT(fault_ns(base_profiler), fault_ns(huge_profiler) * 10);
}

TEST_F(MmapEngineTest, ReadBackMatchesWrite) {
  FakeHandler handler(4 * common::kMiB, true);
  auto map = engine_.Mmap(&handler, 1, 2 * common::kMiB, true);
  ExecContext ctx;
  std::vector<uint8_t> out(1024, 0);
  std::vector<uint8_t> in(1024);
  for (size_t i = 0; i < in.size(); i++) {
    in[i] = static_cast<uint8_t>(i * 7);
  }
  ASSERT_TRUE(map->Write(ctx, 12345, in.data(), in.size()).ok());
  ASSERT_TRUE(map->Read(ctx, 12345, out.data(), out.size()).ok());
  EXPECT_EQ(in, out);
}

TEST_F(MmapEngineTest, LoadLineChargesTlbAndCache) {
  FakeHandler handler(4 * common::kMiB, false);
  auto map = engine_.Mmap(&handler, 1, 16 * common::kMiB, true);
  ExecContext ctx;
  ASSERT_TRUE(map->Prefault(ctx, true).ok());
  const auto faults = ctx.counters.total_page_faults();
  ctx.counters.Reset();

  uint64_t out;
  // Touch many distinct pages: TLB misses accumulate, no new faults.
  for (uint64_t off = 0; off < 16 * common::kMiB; off += kBlockSize) {
    ASSERT_TRUE(map->LoadLine(ctx, off, &out).ok());
  }
  EXPECT_EQ(ctx.counters.total_page_faults(), 0u);
  EXPECT_GT(faults, 0u);
  EXPECT_GT(ctx.counters.tlb_l2_misses, 0u);
}

TEST_F(MmapEngineTest, OutOfBoundsAccessFails) {
  FakeHandler handler(4 * common::kMiB, true);
  auto map = engine_.Mmap(&handler, 1, 1 * common::kMiB, true);
  ExecContext ctx;
  uint8_t b = 0;
  EXPECT_FALSE(map->Write(ctx, 2 * common::kMiB, &b, 1).ok());
  EXPECT_FALSE(map->LoadLine(ctx, 1 * common::kMiB + 1, &b).ok());
}

// A line op moves 8 bytes, which must stay inside its 64 B line: past the
// line they could cross into the physically next device block, which another
// file may own. One 4 KB-mapped page, whose device neighbour is watched.
TEST(MmapLineBoundsTest, OpLeavingItsLineFailsAndSparesTheNextBlock) {
  pmem::PmemDevice dev(16 * common::kMiB);
  vmem::MmapEngine engine(&dev, MmuParams{}, 1);
  FakeHandler handler(4 * common::kMiB, /*huge=*/false);
  auto map = engine.Mmap(&handler, 1, kBlockSize, /*writable=*/true);
  const uint64_t neighbour = 4 * common::kMiB + kBlockSize;
  std::memset(dev.raw_span(neighbour, common::kCacheline), 0xa5, common::kCacheline);
  auto neighbour_intact = [&] {
    const uint8_t* bytes = dev.raw_span(neighbour, common::kCacheline);
    for (uint64_t i = 0; i < common::kCacheline; i++) {
      if (bytes[i] != 0xa5) {
        return false;
      }
    }
    return true;
  };
  ExecContext ctx;
  const uint64_t ones = ~0ull;
  uint64_t out = 0;

  EXPECT_EQ(map->StoreLine(ctx, kBlockSize - 4, &ones).status().code(),
            common::ErrorCode::kInvalidArgument);
  EXPECT_EQ(map->LoadLine(ctx, kBlockSize - 4, &out).status().code(),
            common::ErrorCode::kInvalidArgument);
  EXPECT_EQ(map->StoreLine(ctx, 60, &ones).status().code(), common::ErrorCode::kInvalidArgument);
  EXPECT_TRUE(neighbour_intact());

  // Op 2 of a batch: the ops before it land, it and the ops after do not.
  std::vector<vmem::LineOp> ops = {
      {0, 1, 0}, {64, 2, 0}, {kBlockSize - 4, ones, 0}, {128, 3, 0}};
  EXPECT_EQ(map->AccessLines(ctx, ops.data(), ops.size(), /*write=*/true).code(),
            common::ErrorCode::kInvalidArgument);
  EXPECT_TRUE(neighbour_intact());
  ASSERT_TRUE(map->LoadLine(ctx, 0, &out).ok());
  EXPECT_EQ(out, 1u);
  ASSERT_TRUE(map->LoadLine(ctx, 64, &out).ok());
  EXPECT_EQ(out, 2u);
  ASSERT_TRUE(map->LoadLine(ctx, 128, &out).ok());
  EXPECT_EQ(out, 0u);
  std::vector<vmem::LineOp> reads = {{0, 0, 0}, {kBlockSize - 4, 0, 0}};
  EXPECT_EQ(map->AccessLines(ctx, reads.data(), reads.size(), /*write=*/false).code(),
            common::ErrorCode::kInvalidArgument);
  EXPECT_EQ(reads[0].value, 1u);

  // The last 8 bytes of a line are still one op's to move.
  ASSERT_TRUE(map->StoreLine(ctx, kBlockSize - 8, &ones).ok());
  ASSERT_TRUE(map->LoadLine(ctx, kBlockSize - 8, &out).ok());
  EXPECT_EQ(out, ones);
  EXPECT_TRUE(neighbour_intact());
}

// A length that wraps offset + len past 2^64 is out of range, and the call
// fails before it faults, copies or charges anything.
class MmapWrappingLengthTest : public MmapEngineTest {
 protected:
  static constexpr uint64_t kMapBytes = 64 * common::kKiB;
  static constexpr uint64_t kPhysBase = 4 * common::kMiB;

  MmapWrappingLengthTest() : handler_(kPhysBase, /*huge=*/false) {
    map_ = engine_.Mmap(&handler_, 1, kMapBytes, /*writable=*/true);
    uint8_t* bytes = dev_.raw_span(kPhysBase, kMapBytes);
    for (uint64_t i = 0; i < kMapBytes; i++) {
      bytes[i] = static_cast<uint8_t>(i * 29 + 3);
    }
    before_.assign(bytes, bytes + kMapBytes);
  }

  void ExpectNothingHappened(const ExecContext& ctx) {
    EXPECT_EQ(ctx.clock.NowNs(), 0u);
    for (const common::CounterField& field : common::kCounterFields) {
      EXPECT_EQ(ctx.counters.*field.member, 0u) << "counter " << field.name;
    }
    EXPECT_EQ(handler_.faults_, 0);
    EXPECT_EQ(std::memcmp(dev_.raw_span(kPhysBase, kMapBytes), before_.data(), kMapBytes), 0);
  }

  FakeHandler handler_;
  std::unique_ptr<vmem::MappedFile> map_;
  std::vector<uint8_t> before_;
};

TEST_F(MmapWrappingLengthTest, WriteRejectsLengthThatWraps) {
  std::vector<uint8_t> src(kMapBytes, 0xee);
  ExecContext ctx;
  EXPECT_EQ(map_->Write(ctx, 8, src.data(), UINT64_MAX).code(),
            common::ErrorCode::kInvalidArgument);
  EXPECT_EQ(map_->Write(ctx, UINT64_MAX - 7, src.data(), 16).code(),
            common::ErrorCode::kInvalidArgument);
  ExpectNothingHappened(ctx);
}

TEST_F(MmapWrappingLengthTest, ReadRejectsLengthThatWraps) {
  std::vector<uint8_t> dst(kMapBytes, 0xee);
  ExecContext ctx;
  EXPECT_EQ(map_->Read(ctx, 8, dst.data(), UINT64_MAX).code(),
            common::ErrorCode::kInvalidArgument);
  EXPECT_EQ(map_->Read(ctx, UINT64_MAX - 7, dst.data(), 16).code(),
            common::ErrorCode::kInvalidArgument);
  ExpectNothingHappened(ctx);
  EXPECT_EQ(dst, std::vector<uint8_t>(kMapBytes, 0xee));
}

TEST_F(MmapEngineTest, ReadOnlyMappingRejectsWrites) {
  FakeHandler handler(4 * common::kMiB, true);
  auto map = engine_.Mmap(&handler, 1, 1 * common::kMiB, false);
  ExecContext ctx;
  uint8_t b = 1;
  EXPECT_FALSE(map->Write(ctx, 0, &b, 1).ok());
}

TEST_F(MmapEngineTest, UnmapAllDropsTranslations) {
  FakeHandler handler(4 * common::kMiB, true);
  auto map = engine_.Mmap(&handler, 1, 2 * common::kMiB, true);
  ExecContext ctx;
  uint8_t b = 1;
  ASSERT_TRUE(map->Write(ctx, 0, &b, 1).ok());
  EXPECT_EQ(handler.faults_, 1);
  map->UnmapAll(ctx);
  ASSERT_TRUE(map->Write(ctx, 0, &b, 1).ok());
  EXPECT_EQ(handler.faults_, 2);  // refaulted
}

TEST_F(MmapEngineTest, PageTableBytesGrow) {
  FakeHandler handler(4 * common::kMiB, false);
  auto map = engine_.Mmap(&handler, 1, 8 * common::kMiB, true);
  const uint64_t before = engine_.PageTableBytes();
  ExecContext ctx;
  ASSERT_TRUE(map->Prefault(ctx, true).ok());
  EXPECT_GT(engine_.PageTableBytes(), before);
}

}  // namespace
