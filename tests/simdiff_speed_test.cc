// Host-speed gate for the simulator's MMU structures, measured next to their
// oracle. vmem::Tlb + vmem::LlcCache and refsim::ReferenceTlb +
// refsim::ReferenceLlc replay simperf's per_line stream (bench/simperf.cc):
// one fixed line in each of 1300 random 4 KiB pages of a 64 MiB range, and
// 400k reads drawn from them, driven the way MappedFile::AccessLines drives a
// CPU's structures — a TLB lookup, on a miss four page-walk probes through
// the LLC and an Insert, then the data line through the LLC.
//
// First an untimed pass on each side records every TLB result and LLC
// hit/miss; the two records must agree access for access. Then 9 timed pairs
// alternate which side goes first, and the fastest pass of the flat
// structures must be at least kMinSpeedup times faster than the fastest pass
// of the oracle. Host noise only ever adds time, so the minimum of several
// passes is the best estimate of each side's cost. A round that reads below
// the floor is followed by up to two more, each side keeping its fastest pass
// over all rounds — the retry rule opperf's profiler-overhead gate uses — as
// a neighbour on a shared host can slow one side's every pass of a round.
// This times the structures alone: the per-access work both sides share in
// AccessLines (counters, clock, device bytes) is left out, so the ratio reads
// higher here than on the whole path. The test runs RUN_SERIAL so that
// concurrent tests do not take its host CPU.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/vmem/llc_cache.h"
#include "src/vmem/mmu_params.h"
#include "src/vmem/tlb.h"
#include "tests/ref_sim.h"

namespace {

using common::kBlockSize;
using common::kMiB;
using vmem::MmuParams;
using vmem::TlbResult;

constexpr double kMinSpeedup = 3.0;
constexpr int kPairs = 9;
constexpr int kRounds = 3;

// Where the synthetic address space puts things: the mapping's virtual base,
// the physical base of its data, and one physical region per page-table
// level.
constexpr uint64_t kVaBase = 0x7f0000000000ull;
constexpr uint64_t kDataBase = 1ull << 30;
constexpr uint64_t kTableBase = 1ull << 34;
constexpr uint64_t kLevelSpan = 1ull << 30;

struct Access {
  uint64_t vaddr;
  uint64_t paddr;
};

// simperf's per_line stream (seed 13). The mapping is identity-mapped onto
// kDataBase: only the TLB and LLC decisions matter here, not which device
// block backs a page.
std::vector<Access> PerLineStream() {
  constexpr uint64_t kArrayBytes = 64 * kMiB;
  constexpr uint64_t kHotPages = 1300;
  constexpr uint64_t kReads = 400000;
  common::Rng rng(13);
  const uint64_t pages_total = kArrayBytes / kBlockSize;
  std::vector<uint64_t> hot(kHotPages);
  for (auto& line : hot) {
    line = rng.NextBelow(pages_total) * kBlockSize +
           common::RoundDown(rng.NextBelow(kBlockSize - 64), 64);
  }
  std::vector<Access> stream(kReads);
  for (Access& a : stream) {
    const uint64_t offset = hot[rng.NextBelow(kHotPages)];
    a = Access{kVaBase + offset, kDataBase + offset};
  }
  return stream;
}

// The PTE line that level `level` of a 4 KB walk reads: each level indexes
// its own table region by the address bits above it, so neighbouring pages
// share upper-level lines as in a real radix table.
uint64_t WalkLine(uint64_t vaddr, uint32_t level) {
  const uint32_t shift = 39 - 9 * level;
  return kTableBase + level * kLevelSpan + (vaddr >> shift) * 8;
}

// Drives one TLB/LLC pair over the stream and returns a digest of every
// outcome. With `trace` set, also records one byte per access: the
// TlbResult in bits 0-1, the walk probes' hits in bits 2-5 and the data
// line's hit in bit 6.
template <typename TlbT, typename LlcT>
uint64_t Drive(TlbT& tlb, LlcT& llc, uint32_t walk_levels, const std::vector<Access>& stream,
               std::vector<uint8_t>* trace) {
  uint64_t digest = 0;
  for (const Access& a : stream) {
    const TlbResult hit = tlb.Lookup(a.vaddr, /*huge=*/false);
    uint32_t outcome = static_cast<uint32_t>(hit);
    if (hit == TlbResult::kMiss) {
      for (uint32_t level = 0; level < walk_levels; level++) {
        outcome |= static_cast<uint32_t>(llc.Access(WalkLine(a.vaddr, level))) << (2 + level);
      }
      tlb.Insert(a.vaddr, /*huge=*/false);
    }
    outcome |= static_cast<uint32_t>(llc.Access(a.paddr)) << 6;
    digest = digest * 131 + outcome;
    if (trace != nullptr) {
      trace->push_back(static_cast<uint8_t>(outcome));
    }
  }
  return digest;
}

// One pass on fresh structures; returns its host nanoseconds and checks the
// digest against the untimed pass.
template <typename TlbT, typename LlcT>
uint64_t TimedPass(const MmuParams& params, const std::vector<Access>& stream,
                   uint64_t want_digest) {
  TlbT tlb(params);
  LlcT llc(params);
  const auto start = std::chrono::steady_clock::now();
  const uint64_t digest = Drive(tlb, llc, params.walk_levels_4k, stream, nullptr);
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  EXPECT_EQ(digest, want_digest);
  return static_cast<uint64_t>(ns);
}

TEST(SimDiffSpeed, FlatStructuresBeatOracleOnPerLineStream) {
  const MmuParams params;
  const std::vector<Access> stream = PerLineStream();

  // Differential pass.
  vmem::Tlb tlb(params);
  vmem::LlcCache llc(params);
  refsim::ReferenceTlb ref_tlb(params);
  refsim::ReferenceLlc ref_llc(params);
  std::vector<uint8_t> got;
  std::vector<uint8_t> want;
  got.reserve(stream.size());
  want.reserve(stream.size());
  const uint64_t digest = Drive(tlb, llc, params.walk_levels_4k, stream, &got);
  const uint64_t ref_digest = Drive(ref_tlb, ref_llc, params.walk_levels_4k, stream, &want);
  ASSERT_EQ(got.size(), want.size());
  const auto diverged = std::mismatch(got.begin(), got.end(), want.begin());
  ASSERT_TRUE(diverged.first == got.end())
      << "first divergence at access " << (diverged.first - got.begin()) << ": outcome 0x"
      << std::hex << int{*diverged.first} << " vs oracle 0x" << int{*diverged.second};
  ASSERT_EQ(digest, ref_digest);
  ASSERT_EQ(llc.StateHash(), ref_llc.StateHash());
  // The stream must exercise every TLB outcome, or the gate times the wrong
  // path.
  for (const TlbResult result : {TlbResult::kL1Hit, TlbResult::kL2Hit, TlbResult::kMiss}) {
    EXPECT_TRUE(std::any_of(got.begin(), got.end(), [&](uint8_t outcome) {
      return (outcome & 3) == static_cast<uint8_t>(result);
    })) << "no access with TlbResult " << static_cast<int>(result);
  }

  uint64_t flat_min = UINT64_MAX;
  uint64_t ref_min = UINT64_MAX;
  double ratio = 0;
  int passes = 0;
  for (int round = 0; round < kRounds && ratio < kMinSpeedup; round++) {
    for (int pair = 0; pair < kPairs; pair++) {
      auto flat = [&] {
        flat_min =
            std::min(flat_min, TimedPass<vmem::Tlb, vmem::LlcCache>(params, stream, digest));
      };
      auto ref = [&] {
        ref_min = std::min(ref_min, TimedPass<refsim::ReferenceTlb, refsim::ReferenceLlc>(
                                        params, stream, digest));
      };
      if (pair % 2 == 0) {
        flat();
        ref();
      } else {
        ref();
        flat();
      }
    }
    passes += kPairs;
    ratio = static_cast<double>(ref_min) / static_cast<double>(std::max<uint64_t>(flat_min, 1));
    std::printf("simdiff speed: flat %.2f ms, oracle %.2f ms (fastest of %d), ratio %.2fx\n",
                static_cast<double>(flat_min) / 1e6, static_cast<double>(ref_min) / 1e6, passes,
                ratio);
  }
  RecordProperty("speedup_x100", static_cast<int>(ratio * 100));
  EXPECT_GE(ratio, kMinSpeedup) << "flat structures " << flat_min << " ns vs oracle " << ref_min
                                << " ns, fastest of " << passes << " passes each";
}

}  // namespace
