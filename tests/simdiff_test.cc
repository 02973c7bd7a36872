// Differential tests for the simulator's MMU structures and mapped-access
// paths: the flat-array TLB and packed LLC against the reference oracle in
// ref_sim.h, the batched / chunk-spanning MappedFile paths against their
// one-call-per-unit loops, and whole-engine runs against totals recorded
// from the reference simulator. Every test asserts bit-identical modeled
// output — result sequences, final state, simulated clock, and all
// registered counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>

#include "src/common/perf_counters.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/pmem/device.h"
#include "src/vmem/llc_cache.h"
#include "src/vmem/mmap_engine.h"
#include "src/vmem/tlb.h"
#include "tests/ref_sim.h"

namespace {

using common::ExecContext;
using common::kBlockSize;
using common::kHugepageSize;
using common::kMiB;
using vmem::LlcCache;
using vmem::MmuParams;
using vmem::Tlb;
using vmem::TlbResult;

void ExpectCountersEqual(const common::PerfCounters& a, const common::PerfCounters& b) {
  for (const common::CounterField& field : common::kCounterFields) {
    EXPECT_EQ(a.*field.member, b.*field.member) << "counter " << field.name;
  }
}

// Asserts a run's final clock and counters equal totals recorded from the
// reference simulator: `nonzero` names every counter that was not 0.
void ExpectReferenceTotals(const ExecContext& ctx, uint64_t clock_ns,
                           std::initializer_list<std::pair<std::string, uint64_t>> nonzero) {
  EXPECT_EQ(ctx.clock.NowNs(), clock_ns);
  for (const common::CounterField& field : common::kCounterFields) {
    uint64_t want = 0;
    for (const auto& [name, value] : nonzero) {
      if (name == field.name) {
        want = value;
      }
    }
    EXPECT_EQ(ctx.counters.*field.member, want) << "counter " << field.name;
  }
}

// Replays one pseudo-random TLB trace through the oracle and vmem::Tlb and
// asserts the full result sequence matches. The trace mimics the engine's
// usage: Lookup, Insert on miss, occasional shootdowns and full flushes.
void ReplayTlbTrace(MmuParams params, uint64_t ops, uint64_t base_pages, uint64_t huge_chunks,
                    uint32_t invalidate_percent, uint64_t seed) {
  refsim::ReferenceTlb reference(params);
  Tlb fast(params);

  common::Rng rng(seed);
  uint64_t mismatches = 0;
  for (uint64_t i = 0; i < ops; i++) {
    const bool huge = rng.NextBelow(4) == 0;
    const uint64_t vaddr = huge ? rng.NextBelow(huge_chunks) * kHugepageSize + rng.NextBelow(kHugepageSize)
                                : rng.NextBelow(base_pages) * kBlockSize + rng.NextBelow(kBlockSize);
    const uint64_t op = rng.NextBelow(100);
    if (op < invalidate_percent) {
      reference.InvalidatePage(vaddr, huge);
      fast.InvalidatePage(vaddr, huge);
    } else if (op == 99 && i % 4096 == 0) {
      reference.Flush();
      fast.Flush();
    } else {
      const TlbResult want = reference.Lookup(vaddr, huge);
      const TlbResult got = fast.Lookup(vaddr, huge);
      if (want != got) {
        mismatches++;
        ASSERT_LE(mismatches, 5u) << "too many TLB divergences; first ops around " << i;
        ADD_FAILURE() << "TLB divergence at op " << i << ": reference="
                      << static_cast<int>(want) << " fast=" << static_cast<int>(got);
      }
      if (want == TlbResult::kMiss) {
        reference.Insert(vaddr, huge);
        fast.Insert(vaddr, huge);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(SimDiffTlb, MillionOpTraceDefaultCapacities) {
  // Page space chosen to straddle the default capacities (64/32 L1, 1536 L2):
  // plenty of L1 hits, L2 promotions, walks, and evictions from both levels.
  ReplayTlbTrace(MmuParams{}, 1000000, /*base_pages=*/4096, /*huge_chunks=*/64,
                 /*invalidate_percent=*/8, /*seed=*/1);
}

TEST(SimDiffTlb, TinyCapacitiesHammerEvictionAndErase) {
  MmuParams params;
  params.l1_tlb_4k_entries = 4;
  params.l1_tlb_2m_entries = 2;
  params.l2_tlb_entries = 16;
  // Heavy invalidation exercises FlatLruSet's backward-shift hash deletion
  // and free-slot reuse on every few ops.
  ReplayTlbTrace(params, 200000, /*base_pages=*/64, /*huge_chunks=*/8,
                 /*invalidate_percent=*/25, /*seed=*/2);
}

TEST(SimDiffTlb, ZeroEntryStlbHoldsNothing) {
  MmuParams params;
  params.l1_tlb_4k_entries = 4;
  params.l1_tlb_2m_entries = 2;
  params.l2_tlb_entries = 0;
  ReplayTlbTrace(params, 100000, /*base_pages=*/64, /*huge_chunks=*/8,
                 /*invalidate_percent=*/10, /*seed=*/4);
}

// Replays ~2 M accesses through the oracle and vmem::LlcCache on a
// `sets` x `ways` geometry, flushing twice, and asserts the same hit/miss on
// every access and the same StateHash every 50 k. The addresses mix three
// bands: ~47% in a hot half-cache (hits refresh recency), ~50% over four
// times the cache (fills and evictions), and ~3% in a cache-sized band at
// 2^40, where the engine puts page-table lines. A one-set geometry tags
// addresses only below 2^38 (32-bit tags), so there the band sits just
// below that, the highest tags the geometry holds.
void ReplayLlcTrace(uint64_t sets, uint32_t ways, uint64_t seed) {
  MmuParams params;
  params.llc_bytes = sets * ways * common::kCacheline;
  params.llc_ways = ways;
  refsim::ReferenceLlc reference(params);
  LlcCache fast(params);
  ASSERT_EQ(fast.num_sets(), sets);
  EXPECT_EQ(reference.StateHash(), fast.StateHash());

  const uint64_t cache_bytes = params.llc_bytes;
  const uint64_t high_base = std::min<uint64_t>(1ull << 40, (sets << 38) - cache_bytes);
  common::Rng rng(seed);
  constexpr uint64_t kOps = 2000000;
  for (uint64_t i = 0; i < kOps; i++) {
    if (i == 700000 || i == 1400000) {
      // Flush resets the valid state and the oracle's LRU tick; replacement
      // decisions right after must still agree.
      reference.Flush();
      fast.Flush();
      ASSERT_EQ(reference.StateHash(), fast.StateHash()) << "state after flush at op " << i;
    }
    const uint64_t band = rng.NextBelow(100);
    const uint64_t paddr = band < 3    ? high_base + rng.NextBelow(cache_bytes)
                           : band < 50 ? rng.NextBelow(cache_bytes / 2)
                                       : rng.NextBelow(4 * cache_bytes);
    const bool want = reference.Access(paddr);
    const bool got = fast.Access(paddr);
    ASSERT_EQ(want, got) << "LLC hit/miss divergence at op " << i << ", address 0x" << std::hex
                         << paddr;
    if (i % 50000 == 0) {
      ASSERT_EQ(reference.StateHash(), fast.StateHash()) << "state divergence at op " << i;
    }
  }
  EXPECT_EQ(reference.StateHash(), fast.StateHash());
}

TEST(SimDiffLlc, TraceWithFlushTickReset) { ReplayLlcTrace(64, 16, /*seed=*/3); }

// Every geometry the layout must hold exactly: the default, set counts that
// are not a power of two (48 and 37, the % and / path), one set, and fewer
// than 16 ways (1, 3, 4 and 8).
TEST(SimDiffLlc, EveryGeometryMatchesOracle) {
  const std::pair<uint64_t, uint32_t> kGeometries[] = {
      {8192, 16}, {48, 16}, {1, 16}, {64, 1}, {64, 4}, {37, 8}, {1, 3}};
  for (const auto& [sets, ways] : kGeometries) {
    SCOPED_TRACE(testing::Message() << sets << " sets x " << ways << " ways");
    ReplayLlcTrace(sets, ways, /*seed=*/sets * 31 + ways);
    if (HasFatalFailure()) {
      return;
    }
  }
}

// Scripted fault handler (same shape as vmem_test's): maps file offsets 1:1
// onto a device region, optionally with hugepages.
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
      return FaultMapping{phys_base_ + common::RoundDown(page_offset, kHugepageSize), true};
    }
    return FaultMapping{phys_base_ + page_offset, false};
  }

  int faults_ = 0;

 private:
  uint64_t phys_base_;
  bool huge_;
};

// One independent device + engine + mapping per side, so the two replays
// share nothing. The second constructor maps the file on a COW fork of `base`.
struct Bed {
  Bed(MmuParams params, uint64_t map_bytes, bool huge)
      : dev(64 * kMiB),
        engine(&dev, params, 1),
        handler(4 * kMiB, huge),
        map(engine.Mmap(&handler, 1, map_bytes, /*writable=*/true)) {}
  Bed(const pmem::DeviceSnapshot& base, MmuParams params, uint64_t map_bytes, bool huge)
      : dev(base),
        engine(&dev, params, 1),
        handler(4 * kMiB, huge),
        map(engine.Mmap(&handler, 1, map_bytes, /*writable=*/true)) {}

  pmem::PmemDevice dev;
  vmem::MmapEngine engine;
  FakeHandler handler;
  std::unique_ptr<vmem::MappedFile> map;
};

std::vector<uint64_t> RandomLineOffsets(uint64_t count, uint64_t map_bytes, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<uint64_t> offsets(count);
  for (auto& offset : offsets) {
    offset = common::RoundDown(rng.NextBelow(map_bytes - 64), 64);
  }
  return offsets;
}

std::vector<vmem::LineOp> LineOps(const std::vector<uint64_t>& offsets, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<vmem::LineOp> ops(offsets.size());
  for (size_t i = 0; i < ops.size(); i++) {
    ops[i].offset = offsets[i];
    ops[i].value = rng.Next();
  }
  return ops;
}

// Runs `ops` as one AccessLines batch on `batched`, and as a per-op
// LoadLine/StoreLine loop on `looped`, stopping at the first failure as
// AccessLines does. Both must agree on the status, every op's value and
// latency, the clock, every counter, the faults and the COW chunks copied.
void ExpectBatchMatchesLoop(Bed& batched, Bed& looped, std::vector<vmem::LineOp> ops,
                            bool write) {
  std::vector<vmem::LineOp> loop_ops = ops;
  ExecContext batched_ctx;
  const common::Status batched_status =
      batched.map->AccessLines(batched_ctx, ops.data(), ops.size(), write);
  ExecContext looped_ctx;
  common::Status looped_status;
  for (vmem::LineOp& op : loop_ops) {
    auto latency = write ? looped.map->StoreLine(looped_ctx, op.offset, &op.value)
                         : looped.map->LoadLine(looped_ctx, op.offset, &op.value);
    if (!latency.ok()) {
      looped_status = latency.status();
      break;
    }
    op.latency_ns = *latency;
  }

  EXPECT_EQ(batched_status.code(), looped_status.code());
  EXPECT_EQ(batched_ctx.clock.NowNs(), looped_ctx.clock.NowNs());
  ExpectCountersEqual(batched_ctx.counters, looped_ctx.counters);
  EXPECT_EQ(batched.handler.faults_, looped.handler.faults_);
  EXPECT_EQ(batched.dev.cow_chunks_copied(), looped.dev.cow_chunks_copied());
  for (size_t i = 0; i < ops.size(); i++) {
    ASSERT_EQ(ops[i].value, loop_ops[i].value) << "value divergence at op " << i;
    ASSERT_EQ(ops[i].latency_ns, loop_ops[i].latency_ns) << "latency divergence at op " << i;
  }
}

// The device bytes under the two beds' mappings are equal. On a COW fork,
// reading them copies chunks, so call this after comparing chunk counts.
void ExpectMappedBytesEqual(Bed& a, Bed& b) {
  const uint64_t map_bytes = a.map->length();
  EXPECT_EQ(std::memcmp(a.dev.raw_span(4 * kMiB, map_bytes), b.dev.raw_span(4 * kMiB, map_bytes),
                        map_bytes),
            0);
}

// The pipelined AccessLines against its per-op loop, for reads and writes on
// fresh 2 MiB- and 4 KB-mapped files, so faults fall inside the batch. 8 MiB of base pages = 2048 PTEs overflows the 1536-entry
// L2, so the 4 KB trace also exercises promotions, walks and LLC fills.
TEST(SimDiffEngine, AccessLinesMatchesLoadLineLoop) {
  constexpr uint64_t kMapBytes = 8 * kMiB;
  for (const bool huge : {true, false}) {
    for (const bool write : {false, true}) {
      SCOPED_TRACE(std::string(huge ? "2 MiB-mapped" : "4 KB-mapped") +
                   (write ? " writes" : " reads"));
      Bed batched(MmuParams{}, kMapBytes, huge);
      Bed looped(MmuParams{}, kMapBytes, huge);
      // Distinct bytes everywhere, so every read value says where it came from.
      for (Bed* bed : {&batched, &looped}) {
        uint8_t* bytes = bed->dev.raw_span(4 * kMiB, kMapBytes);
        for (uint64_t i = 0; i < kMapBytes; i++) {
          bytes[i] = static_cast<uint8_t>(i * 131 + i / 4096);
        }
      }
      const auto ops = LineOps(RandomLineOffsets(100000, kMapBytes, 7), 5);
      ExpectBatchMatchesLoop(batched, looped, ops, write);
      ExpectMappedBytesEqual(batched, looped);
    }
  }
}

// An invalid op at index j stops both paths at j with the same status and
// the same modeled state, however many ops the pipeline had looked past it.
TEST(SimDiffEngine, PipelinedAccessLinesStopsAtInvalidOp) {
  constexpr uint64_t kMapBytes = 4 * kMiB;
  // (j, offset): past the mapping, or 8 bytes leaving their line.
  const std::pair<size_t, uint64_t> kInvalid[] = {
      {0, kMapBytes + 64}, {1, 64 * 1000 + 60}, {7, kMapBytes - 4}, {300, kMapBytes + 64},
      {300, 64 * 1000 + 60}};
  for (const bool huge : {true, false}) {
    for (const bool write : {false, true}) {
      for (const auto& [j, bad] : kInvalid) {
        SCOPED_TRACE(testing::Message() << (huge ? "huge" : "base") << (write ? " write" : " read")
                                        << " bad offset " << bad << " at op " << j);
        Bed batched(MmuParams{}, kMapBytes, huge);
        Bed looped(MmuParams{}, kMapBytes, huge);
        auto ops = LineOps(RandomLineOffsets(400, kMapBytes, 31 + j), 9);
        ops[j].offset = bad;
        ExpectBatchMatchesLoop(batched, looped, ops, write);
        ExpectMappedBytesEqual(batched, looped);
      }
    }
  }
}

// On a COW fork, hints for the ops past a failing op must copy no chunk: the
// batch copies exactly the chunks the per-op loop copies.
TEST(SimDiffEngine, PipelinedAccessLinesCopiesNoChunkPastFailingOp) {
  constexpr uint64_t kMapBytes = 4 * kMiB;
  pmem::PmemDevice image(64 * kMiB);
  uint8_t* bytes = image.raw_span(4 * kMiB, kMapBytes);
  for (uint64_t i = 0; i < kMapBytes; i++) {
    bytes[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  const pmem::DeviceSnapshot base = image.Snapshot();
  for (const bool huge : {true, false}) {
    for (const bool write : {false, true}) {
      SCOPED_TRACE(std::string(huge ? "huge" : "base") + (write ? " write" : " read"));
      Bed batched(base, MmuParams{}, kMapBytes, huge);
      Bed looped(base, MmuParams{}, kMapBytes, huge);
      // Map every page up front (no device byte is touched), so the pipeline
      // has an address to hint for every op.
      for (Bed* bed : {&batched, &looped}) {
        ExecContext ctx;
        ASSERT_TRUE(bed->map->Prefault(ctx, write).ok());
        ASSERT_TRUE(bed->dev.is_cow_fork());
        ASSERT_EQ(bed->dev.cow_chunks_copied(), 0u);
      }
      // Ops 0..15 stay in the file's first COW chunk and op 16 is invalid;
      // the ops after it each sit in a chunk of their own.
      std::vector<uint64_t> offsets;
      for (uint64_t i = 0; i < 16; i++) {
        offsets.push_back(i * 4096 + 64);
      }
      offsets.push_back(kMapBytes - 4);
      for (uint64_t c = 1; c < kMapBytes / pmem::kSnapChunkBytes; c++) {
        offsets.push_back(c * pmem::kSnapChunkBytes + 128);
      }
      ExpectBatchMatchesLoop(batched, looped, LineOps(offsets, 3), write);
      EXPECT_EQ(batched.dev.cow_chunks_copied(), 1u);
      ExpectMappedBytesEqual(batched, looped);
    }
  }
}

// Random reads over an 8 MiB 4 KB-mapped file (faults, STLB hits and misses,
// LLC fills) must reproduce, op for op, what the reference simulator
// recorded for the same stream: every latency (FNV-1a over the sequence),
// the clock, the faults and every counter.
TEST(SimDiffEngine, LineAccessesIdenticalAcrossSimulators) {
  constexpr uint64_t kMapBytes = 8 * kMiB;
  Bed bed(MmuParams{}, kMapBytes, /*huge=*/false);
  const auto offsets = RandomLineOffsets(100000, kMapBytes, 11);
  std::vector<vmem::LineOp> ops(offsets.size());
  for (size_t i = 0; i < offsets.size(); i++) {
    ops[i].offset = offsets[i];
  }
  ExecContext ctx;
  ASSERT_TRUE(bed.map->AccessLines(ctx, ops.data(), ops.size(), /*write=*/false).ok());

  uint64_t latency_hash = 0xcbf29ce484222325ull;
  for (const vmem::LineOp& op : ops) {
    for (int i = 0; i < 8; i++) {
      latency_hash = (latency_hash ^ ((op.latency_ns >> (i * 8)) & 0xff)) * 0x100000001b3ull;
    }
  }
  EXPECT_EQ(latency_hash, 0xed13f89251741fcbull);
  EXPECT_EQ(bed.handler.faults_, 2048);
  ExpectReferenceTotals(ctx, 26825415,
                        {{"page_faults_4k", 2048},
                         {"tlb_hits", 3074},
                         {"tlb_l1_misses", 71010},
                         {"tlb_l2_misses", 23868},
                         {"llc_hits", 133490},
                         {"llc_misses", 70168},
                         {"pm_read_bytes", 6400000}});
}

// The chunk-spanning bulk fast path must charge exactly what the reference
// per-4KB-span loop charges: same clock, same counters, for an unaligned
// write crossing hugepage chunk boundaries.
TEST(SimDiffEngine, BulkWriteMatchesPerPageSpanLoop) {
  constexpr uint64_t kMapBytes = 6 * kMiB;
  constexpr uint64_t kOffset = 100;                 // unaligned head
  constexpr uint64_t kLen = 2 * kMiB + 1234;        // unaligned tail, crosses a chunk
  Bed bulk(MmuParams{}, kMapBytes, /*huge=*/true);
  Bed spans(MmuParams{}, kMapBytes, /*huge=*/true);
  std::vector<uint8_t> buf(kLen, 0x5a);

  ExecContext bulk_ctx;
  ASSERT_TRUE(bulk.map->Write(bulk_ctx, kOffset, buf.data(), kLen).ok());

  // Reference loop: one Write call per page-bounded span, the unit the
  // pre-optimization loop iterated in.
  ExecContext span_ctx;
  uint64_t offset = kOffset;
  uint64_t done = 0;
  while (done < kLen) {
    const uint64_t page_end = common::RoundDown(offset, kBlockSize) + kBlockSize;
    const uint64_t span = std::min(kLen - done, page_end - offset);
    ASSERT_TRUE(spans.map->Write(span_ctx, offset, buf.data() + done, span).ok());
    offset += span;
    done += span;
  }

  EXPECT_EQ(bulk_ctx.clock.NowNs(), span_ctx.clock.NowNs());
  ExpectCountersEqual(bulk_ctx.counters, span_ctx.counters);
  EXPECT_EQ(bulk.handler.faults_, spans.handler.faults_);

  // Both replays must also have moved the same bytes to the same place.
  std::vector<uint8_t> bulk_back(kLen), span_back(kLen);
  ExecContext check_ctx;
  ASSERT_TRUE(bulk.map->Read(check_ctx, kOffset, bulk_back.data(), kLen).ok());
  ASSERT_TRUE(spans.map->Read(check_ctx, kOffset, span_back.data(), kLen).ok());
  EXPECT_EQ(bulk_back, span_back);
  EXPECT_EQ(bulk_back, buf);
}

TEST(SimDiffEngine, BulkReadMatchesPerPageSpanLoop) {
  constexpr uint64_t kMapBytes = 6 * kMiB;
  constexpr uint64_t kOffset = 4096 - 7;
  constexpr uint64_t kLen = 4 * kMiB + 33;
  Bed bulk(MmuParams{}, kMapBytes, /*huge=*/true);
  Bed spans(MmuParams{}, kMapBytes, /*huge=*/true);
  std::vector<uint8_t> buf(kLen);

  ExecContext bulk_ctx;
  ASSERT_TRUE(bulk.map->Read(bulk_ctx, kOffset, buf.data(), kLen).ok());

  ExecContext span_ctx;
  uint64_t offset = kOffset;
  uint64_t done = 0;
  while (done < kLen) {
    const uint64_t page_end = common::RoundDown(offset, kBlockSize) + kBlockSize;
    const uint64_t span = std::min(kLen - done, page_end - offset);
    ASSERT_TRUE(spans.map->Read(span_ctx, offset, buf.data() + done, span).ok());
    offset += span;
    done += span;
  }

  EXPECT_EQ(bulk_ctx.clock.NowNs(), span_ctx.clock.NowNs());
  ExpectCountersEqual(bulk_ctx.counters, span_ctx.counters);
}

// Prefault over hugepage chunks steps 2 MiB at a time but must report the
// same modeled fault and TLB-hit counts the per-4KB walk reported.
TEST(SimDiffEngine, PrefaultFactoredChargingPinsCounts) {
  constexpr uint64_t kMapBytes = 4 * kMiB;
  Bed bed(MmuParams{}, kMapBytes, /*huge=*/true);
  ExecContext ctx;
  ASSERT_TRUE(bed.map->Prefault(ctx, /*write=*/true).ok());
  EXPECT_EQ(bed.handler.faults_, 2);
  // 1024 pages total; the first page of each chunk faults, the remaining 511
  // per chunk are the L1 hits the old loop recorded one by one.
  ExpectReferenceTotals(ctx, 4460,
                        {{"page_faults_2m", 2}, {"tlb_hits", 1022}, {"llc_hits", 1},
                         {"llc_misses", 3}});
}

TEST(SimDiffEngine, PrefaultBaseMappingUnchanged) {
  constexpr uint64_t kMapBytes = 2 * kMiB;
  Bed bed(MmuParams{}, kMapBytes, /*huge=*/false);
  ExecContext ctx;
  ASSERT_TRUE(bed.map->Prefault(ctx, /*write=*/false).ok());
  EXPECT_EQ(bed.handler.faults_, 512);
  ExpectReferenceTotals(ctx, 659320,
                        {{"page_faults_4k", 512}, {"llc_hits", 1978}, {"llc_misses", 67}});
}

}  // namespace
