// Unit tests for fscore building blocks: ExtentMap and FreeSpaceMap.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/fs/fscore/extent.h"
#include "src/fs/fscore/free_space_map.h"
#include "src/fs/fscore/pm_format.h"

namespace {

using fscore::Extent;
using fscore::ExtentMap;
using fscore::FreeSpaceMap;

TEST(ExtentMapTest, InsertLookup) {
  ExtentMap map;
  map.Insert(0, 100, 10);
  auto m = map.Lookup(5);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->phys_block, 105u);
  EXPECT_EQ(m->contiguous_blocks, 5u);
  EXPECT_FALSE(map.Lookup(10).has_value());
}

TEST(ExtentMapTest, MergesAdjacentRuns) {
  ExtentMap map;
  map.Insert(0, 100, 4);
  map.Insert(4, 104, 4);  // logically and physically contiguous
  EXPECT_EQ(map.FragmentCount(), 1u);
  auto m = map.Lookup(0);
  EXPECT_EQ(m->contiguous_blocks, 8u);
}

TEST(ExtentMapTest, NoMergeWhenPhysicallyDiscontiguous) {
  ExtentMap map;
  map.Insert(0, 100, 4);
  map.Insert(4, 300, 4);
  EXPECT_EQ(map.FragmentCount(), 2u);
}

TEST(ExtentMapTest, MergeWithSuccessor) {
  ExtentMap map;
  map.Insert(4, 104, 4);
  map.Insert(0, 100, 4);
  EXPECT_EQ(map.FragmentCount(), 1u);
}

TEST(ExtentMapTest, RemoveMiddleSplitsRun) {
  ExtentMap map;
  map.Insert(0, 100, 10);
  auto freed = map.Remove(3, 4);
  ASSERT_EQ(freed.size(), 1u);
  EXPECT_EQ(freed[0].phys_block, 103u);
  EXPECT_EQ(freed[0].num_blocks, 4u);
  EXPECT_EQ(map.Lookup(0)->contiguous_blocks, 3u);
  EXPECT_FALSE(map.Lookup(3).has_value());
  EXPECT_EQ(map.Lookup(7)->phys_block, 107u);
  EXPECT_EQ(map.MappedBlocks(), 6u);
}

TEST(ExtentMapTest, RemoveAcrossMultipleRuns) {
  ExtentMap map;
  map.Insert(0, 100, 4);
  map.Insert(4, 300, 4);
  auto freed = map.Remove(2, 4);
  EXPECT_EQ(freed.size(), 2u);
  EXPECT_EQ(map.MappedBlocks(), 4u);
}

TEST(ExtentMapTest, EntriesSorted) {
  ExtentMap map;
  map.Insert(8, 500, 2);
  map.Insert(0, 100, 2);
  auto entries = map.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, 0u);
  EXPECT_EQ(entries[1].first, 8u);
}

TEST(FreeSpaceMapTest, ReleaseMerges) {
  FreeSpaceMap map;
  map.Release(0, 10);
  map.Release(20, 10);
  map.Release(10, 10);  // bridges the two runs
  EXPECT_EQ(map.free_blocks(), 30u);
  EXPECT_EQ(map.runs().size(), 1u);
  EXPECT_EQ(map.LargestRun(), 30u);
}

TEST(FreeSpaceMapTest, FirstFitFromGoalWraps) {
  FreeSpaceMap map;
  map.Release(0, 10);
  map.Release(100, 10);
  auto ext = map.AllocFirstFit(5, 50);
  ASSERT_TRUE(ext.has_value());
  EXPECT_EQ(ext->phys_block, 100u);  // first run at/after the goal
  ext = map.AllocFirstFit(8, 200);   // wraps to the start
  ASSERT_TRUE(ext.has_value());
  EXPECT_EQ(ext->phys_block, 0u);
}

TEST(FreeSpaceMapTest, BestFitPrefersSnugRun) {
  FreeSpaceMap map;
  map.Release(0, 100);
  map.Release(200, 6);
  auto ext = map.AllocBestFit(5);
  ASSERT_TRUE(ext.has_value());
  EXPECT_EQ(ext->phys_block, 200u);
}

TEST(FreeSpaceMapTest, AllocAlignedReturnsAlignedStart) {
  FreeSpaceMap map;
  map.Release(100, 2000);
  auto ext = map.AllocAligned(512);
  ASSERT_TRUE(ext.has_value());
  EXPECT_EQ(ext->phys_block % 512, 0u);
  EXPECT_EQ(ext->phys_block, 512u);
}

TEST(FreeSpaceMapTest, AllocAlignedFailsWhenNoAlignedRun) {
  FreeSpaceMap map;
  map.Release(100, 300);  // contains no aligned 512-run
  EXPECT_FALSE(map.AllocAligned(512).has_value());
}

TEST(FreeSpaceMapTest, ReserveRangeCutsMiddle) {
  FreeSpaceMap map;
  map.Release(0, 100);
  map.ReserveRange(40, 20);
  EXPECT_EQ(map.free_blocks(), 80u);
  EXPECT_EQ(map.runs().size(), 2u);
  EXPECT_FALSE(map.ContainsRange(45, 1));
  EXPECT_TRUE(map.ContainsRange(0, 40));
  EXPECT_TRUE(map.ContainsRange(60, 40));
}

TEST(FreeSpaceMapTest, CountAlignedFreeRegions) {
  FreeSpaceMap map;
  map.Release(0, 512 * 3);  // three aligned chunks
  EXPECT_EQ(map.CountAlignedFreeRegions(), 3u);
  map.ReserveRange(512, 1);  // puncture the middle chunk
  EXPECT_EQ(map.CountAlignedFreeRegions(), 2u);
}

// The statistics FreeSpaceMap keeps incrementally, recounted from runs().
// Also checks that the runs are disjoint and fully merged.
struct RecountedStats {
  uint64_t free_blocks = 0;
  uint64_t aligned_regions = 0;
  uint64_t largest_run = 0;
  FreeSpaceMap::RunLengthHistogram hist;
};

RecountedStats Recount(const FreeSpaceMap& map) {
  RecountedStats stats;
  uint64_t prev_end = 0;
  bool first = true;
  for (const auto& [start, len] : map.runs()) {
    EXPECT_GT(len, 0u);
    EXPECT_TRUE(first || start > prev_end) << "runs at " << start << " not merged";
    first = false;
    prev_end = start + len;
    stats.free_blocks += len;
    stats.largest_run = std::max(stats.largest_run, len);
    for (uint64_t b = common::RoundUp(start, common::kBlocksPerHugepage);
         b + common::kBlocksPerHugepage <= start + len; b += common::kBlocksPerHugepage) {
      stats.aligned_regions++;
    }
    if (len < 16) {
      stats.hist.lt_16++;
    } else if (len < 128) {
      stats.hist.lt_128++;
    } else if (len < 512) {
      stats.hist.lt_512++;
    } else {
      stats.hist.ge_512++;
    }
  }
  return stats;
}

// Seeded random Release / Alloc* / ReserveRange calls. After every call the
// incrementally kept statistics must equal a brute-force recount, and
// AllocBestFit (which searches by the run-length index) must pick the run a
// scan of runs() picks: the lowest-addressed of the smallest runs that fit.
TEST(FreeSpaceMapTest, IncrementalStatisticsMatchRecount) {
  constexpr uint64_t kBase = 37;  // unaligned start exercises the 2 MiB math
  constexpr uint64_t kBlocks = 16 * common::kBlocksPerHugepage + 300;
  constexpr int kCalls = 120000;
  common::Rng rng(0x5eed);
  FreeSpaceMap map;
  map.Release(kBase, kBlocks);
  std::vector<Extent> owned;  // taken from the map and not yet released

  uint64_t aligned_changes = 0;  // calls that changed the aligned-region count
  uint64_t last_aligned = map.CountAlignedFreeRegions();
  bool draining = false;
  for (int call = 0; call < kCalls; call++) {
    // Alternate between fragmenting the map down to a quarter free and
    // draining it back to one whole run.
    if (map.free_blocks() < kBlocks / 4) {
      draining = true;
    } else if (owned.empty()) {
      draining = false;
    }
    const uint64_t op = rng.NextBelow(100);
    const uint64_t len = rng.NextBool(0.2) ? 1 + rng.NextBelow(2 * common::kBlocksPerHugepage)
                                           : 1 + rng.NextBelow(64);
    const uint64_t goal = kBase + rng.NextBelow(kBlocks);
    std::optional<Extent> got;
    if (!owned.empty() && rng.NextBool(draining ? 0.95 : 0.3)) {
      // Release all or part of an owned extent; the rest stays owned.
      const size_t idx = rng.NextBelow(owned.size());
      Extent& ext = owned[idx];
      const uint64_t off = rng.NextBool(0.5) ? 0 : rng.NextBelow(ext.num_blocks);
      const uint64_t n = 1 + rng.NextBelow(ext.num_blocks - off);
      map.Release(ext.phys_block + off, n);
      const Extent tail{ext.phys_block + off + n, ext.num_blocks - off - n};
      ext.num_blocks = off;
      if (tail.num_blocks > 0) {
        owned.push_back(tail);
      }
      if (owned[idx].num_blocks == 0) {
        owned[idx] = owned.back();
        owned.pop_back();
      }
    } else if (op < 20) {
      std::optional<Extent> expect;
      for (const auto& [start, run_len] : map.runs()) {
        if (run_len >= len && (!expect || run_len < expect->num_blocks)) {
          expect = Extent{start, run_len};
        }
      }
      got = map.AllocBestFit(len);
      ASSERT_EQ(got.has_value(), expect.has_value());
      if (got) {
        EXPECT_EQ(got->phys_block, expect->phys_block);
      }
    } else if (op < 50) {
      got = map.AllocFirstFit(len, goal);
    } else if (op < 65) {
      got = map.AllocFirstFitPreferAligned(len, goal);
    } else if (op < 75) {
      got = map.AllocAligned(std::min<uint64_t>(len, common::kBlocksPerHugepage));
    } else if (op < 90) {
      got = map.AllocAny(len);
    } else if (!map.runs().empty()) {
      // Reserve a random piece of a random free run.
      auto it = map.runs().begin();
      std::advance(it, rng.NextBelow(map.runs().size()));
      const uint64_t off = rng.NextBelow(it->second);
      const Extent piece{it->first + off, 1 + rng.NextBelow(it->second - off)};
      map.ReserveRange(piece.phys_block, piece.num_blocks);
      got = piece;
    }
    if (got) {
      ASSERT_GT(got->num_blocks, 0u);
      EXPECT_FALSE(map.ContainsRange(got->phys_block, 1));
      owned.push_back(*got);
    }

    const RecountedStats want = Recount(map);
    aligned_changes += want.aligned_regions != last_aligned ? 1 : 0;
    last_aligned = want.aligned_regions;
    ASSERT_EQ(map.free_blocks(), want.free_blocks) << "after call " << call;
    ASSERT_EQ(map.CountAlignedFreeRegions(), want.aligned_regions) << "after call " << call;
    ASSERT_EQ(map.LargestRun(), want.largest_run) << "after call " << call;
    const FreeSpaceMap::RunLengthHistogram hist = map.RunHistogram();
    ASSERT_EQ(hist.lt_16, want.hist.lt_16) << "after call " << call;
    ASSERT_EQ(hist.lt_128, want.hist.lt_128) << "after call " << call;
    ASSERT_EQ(hist.lt_512, want.hist.lt_512) << "after call " << call;
    ASSERT_EQ(hist.ge_512, want.hist.ge_512) << "after call " << call;
  }
  // Every block is either free or owned, exactly once.
  uint64_t owned_blocks = 0;
  for (const Extent& ext : owned) {
    owned_blocks += ext.num_blocks;
  }
  EXPECT_EQ(owned_blocks + map.free_blocks(), kBlocks);
  // The aligned-region count moved often, not only in the first calls.
  EXPECT_GT(aligned_changes, kCalls / 100);
}

TEST(PmFormatTest, StructSizes) {
  EXPECT_EQ(sizeof(fscore::PmInode), 256u);
  EXPECT_EQ(sizeof(fscore::PmDirent), 64u);
  EXPECT_LE(sizeof(fscore::PmIndirectBlock), common::kBlockSize);
  EXPECT_LE(sizeof(fscore::PmSuperblock), common::kBlockSize);
}

TEST(PmFormatTest, ExtentPacking) {
  const uint64_t packed = fscore::PmExtent::Pack(0x123456789abull, 0x1234);
  fscore::PmExtent ext{7, packed};
  EXPECT_EQ(ext.phys_block(), 0x123456789abull);
  EXPECT_EQ(ext.len(), 0x1234u);
}

}  // namespace
