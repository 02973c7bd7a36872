// Unit tests for the PM device: persistence semantics, cost accounting,
// crash-state capture, and snapshot byte ownership (Snapshot() hands the
// device's bytes over; forks skip the copy of known-zero chunks).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "src/common/exec_context.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/pmem/device.h"
#include "src/vmem/mmap_engine.h"

namespace {

using common::ExecContext;
using pmem::PmemDevice;

TEST(PmemDeviceTest, StoreLoadRoundTrip) {
  PmemDevice dev(1 * common::kMiB);
  ExecContext ctx;
  const char msg[] = "hello persistent world";
  dev.Store(ctx, 4096, msg, sizeof(msg));
  char out[sizeof(msg)] = {};
  dev.Load(ctx, 4096, out, sizeof(msg));
  EXPECT_STREQ(out, msg);
}

TEST(PmemDeviceTest, CostsAccrue) {
  PmemDevice dev(1 * common::kMiB);
  ExecContext ctx;
  const uint64_t t0 = ctx.clock.NowNs();
  uint8_t buf[256] = {};
  dev.Store(ctx, 0, buf, sizeof(buf));
  EXPECT_GT(ctx.clock.NowNs(), t0);
  EXPECT_EQ(ctx.counters.pm_write_bytes, 256u);
  dev.Load(ctx, 0, buf, sizeof(buf));
  EXPECT_EQ(ctx.counters.pm_read_bytes, 256u);
  dev.Clwb(ctx, 0, 256);
  EXPECT_EQ(ctx.counters.clwb_count, 4u);
  dev.Fence(ctx);
  EXPECT_EQ(ctx.counters.fence_count, 1u);
}

TEST(PmemDeviceTest, SequentialCheaperThanRandom) {
  PmemDevice dev(1 * common::kMiB);
  ExecContext seq;
  ExecContext rnd;
  uint8_t buf[64];
  dev.Load(seq, 0, buf, 64, /*sequential=*/true);
  dev.Load(rnd, 0, buf, 64, /*sequential=*/false);
  EXPECT_LT(seq.clock.NowNs(), rnd.clock.NowNs());
}

TEST(PmemDeviceTest, NumaNodeOfSplitsRange) {
  PmemDevice dev(4 * common::kMiB, pmem::CostModel{}, 2);
  EXPECT_EQ(dev.NumaNodeOf(0), 0u);
  EXPECT_EQ(dev.NumaNodeOf(3 * common::kMiB), 1u);
}

TEST(PmemCrashTest, UnflushedStoreNotInPersistentImage) {
  PmemDevice dev(256 * common::kKiB);
  ExecContext ctx;
  dev.EnableCrashTracking();
  const uint64_t value = 0xdeadbeef;
  dev.Store(ctx, 128, &value, sizeof(value));
  // Not flushed, not fenced: persistent image still has zeros.
  auto image = dev.PersistentImage();
  uint64_t persisted;
  std::memcpy(&persisted, image.data() + 128, sizeof(persisted));
  EXPECT_EQ(persisted, 0u);
  EXPECT_EQ(dev.PendingLines().size(), 1u);
}

TEST(PmemCrashTest, FlushedAndFencedBecomesPersistent) {
  PmemDevice dev(256 * common::kKiB);
  ExecContext ctx;
  dev.EnableCrashTracking();
  const uint64_t value = 0x12345678;
  dev.Store(ctx, 128, &value, sizeof(value));
  dev.Clwb(ctx, 128, sizeof(value));
  dev.Fence(ctx);
  auto image = dev.PersistentImage();
  uint64_t persisted;
  std::memcpy(&persisted, image.data() + 128, sizeof(persisted));
  EXPECT_EQ(persisted, value);
  EXPECT_TRUE(dev.PendingLines().empty());
}

TEST(PmemCrashTest, FlushWithoutFenceStaysPending) {
  PmemDevice dev(256 * common::kKiB);
  ExecContext ctx;
  dev.EnableCrashTracking();
  const uint64_t value = 0x77;
  dev.Store(ctx, 0, &value, sizeof(value));
  dev.Clwb(ctx, 0, sizeof(value));
  EXPECT_EQ(dev.PendingLines().size(), 1u);
  EXPECT_TRUE(dev.PendingLines()[0].flushed);
}

TEST(PmemCrashTest, CrashImageAppliesChosenSubset) {
  PmemDevice dev(256 * common::kKiB);
  ExecContext ctx;
  dev.EnableCrashTracking();
  const uint64_t a = 0xaaaa;
  const uint64_t b = 0xbbbb;
  dev.Store(ctx, 0, &a, sizeof(a));
  dev.Store(ctx, 4096, &b, sizeof(b));
  ASSERT_EQ(dev.PendingLines().size(), 2u);

  // Apply only the second store: models cacheline eviction reordering.
  auto image = dev.CrashImage({1});
  uint64_t va;
  uint64_t vb;
  std::memcpy(&va, image.data() + 0, 8);
  std::memcpy(&vb, image.data() + 4096, 8);
  EXPECT_EQ(va, 0u);
  EXPECT_EQ(vb, b);
}

TEST(PmemCrashTest, NtStorePersistsAtFence) {
  PmemDevice dev(256 * common::kKiB);
  ExecContext ctx;
  dev.EnableCrashTracking();
  const uint64_t value = 0xfeed;
  dev.NtStore(ctx, 64, &value, sizeof(value));
  EXPECT_EQ(dev.PendingLines().size(), 1u);
  EXPECT_TRUE(dev.PendingLines()[0].flushed);
  dev.Fence(ctx);
  EXPECT_TRUE(dev.PendingLines().empty());
}

// One NtStore over several lines must be indistinguishable from one NtStore
// per line: the same charges, the same pending lines (offset, payload, flush
// state, store order) and, after a fence, the same persistent image. WineFS
// streams each ring run of a journal blob as one call on this basis.
TEST(PmemCrashTest, MultiLineNtStoreEqualsPerLineNtStores) {
  constexpr uint64_t kOffset = 8 * common::kKiB;
  constexpr uint64_t kLines = 6;
  // The last line is partial; its tail keeps bytes stored before tracking.
  std::vector<uint8_t> data((kLines - 1) * common::kCacheline + 24);
  for (size_t i = 0; i < data.size(); i++) {
    data[i] = static_cast<uint8_t>(0x21 + i % 89);
  }
  const std::vector<uint8_t> old_tail(common::kCacheline, 0xee);

  PmemDevice whole(256 * common::kKiB);
  PmemDevice per_line(256 * common::kKiB);
  ExecContext setup;
  for (PmemDevice* dev : {&whole, &per_line}) {
    dev->PersistStore(setup, kOffset + (kLines - 1) * common::kCacheline, old_tail.data(),
                      old_tail.size());
    dev->EnableCrashTracking();
  }

  ExecContext ctx_whole;
  ExecContext ctx_per_line;
  whole.NtStore(ctx_whole, kOffset, data.data(), data.size());
  for (uint64_t done = 0; done < data.size(); done += common::kCacheline) {
    const uint64_t chunk = std::min<uint64_t>(common::kCacheline, data.size() - done);
    per_line.NtStore(ctx_per_line, kOffset + done, data.data() + done, chunk);
  }
  EXPECT_EQ(ctx_whole.clock.NowNs(), ctx_per_line.clock.NowNs());
  EXPECT_EQ(ctx_whole.counters.pm_write_bytes, ctx_per_line.counters.pm_write_bytes);

  const std::vector<pmem::PendingLine> lines_whole = whole.PendingLines();
  const std::vector<pmem::PendingLine> lines_per_line = per_line.PendingLines();
  ASSERT_EQ(lines_whole.size(), kLines);
  ASSERT_EQ(lines_per_line.size(), kLines);
  for (size_t i = 0; i < kLines; i++) {
    EXPECT_EQ(lines_whole[i].line_offset, lines_per_line[i].line_offset) << "line " << i;
    EXPECT_EQ(lines_whole[i].flushed, lines_per_line[i].flushed) << "line " << i;
    EXPECT_EQ(lines_whole[i].seq, lines_per_line[i].seq) << "line " << i;
    EXPECT_EQ(0, std::memcmp(lines_whole[i].data, lines_per_line[i].data, common::kCacheline))
        << "line " << i;
  }
  EXPECT_EQ(lines_whole.back().data[common::kCacheline - 1], 0xee);

  whole.Fence(ctx_whole);
  per_line.Fence(ctx_per_line);
  EXPECT_EQ(ctx_whole.clock.NowNs(), ctx_per_line.clock.NowNs());
  EXPECT_TRUE(whole.PendingLines().empty());
  EXPECT_TRUE(whole.PersistentImage() == per_line.PersistentImage());
}

TEST(PmemCrashTest, RestoreImageReplacesContents) {
  PmemDevice dev(256 * common::kKiB);
  ExecContext ctx;
  dev.EnableCrashTracking();
  const uint64_t value = 0xabc;
  dev.PersistStore(ctx, 0, &value, sizeof(value));
  auto snapshot = dev.PersistentImage();

  const uint64_t other = 0xdef;
  dev.PersistStore(ctx, 0, &other, sizeof(other));
  dev.RestoreImage(snapshot);
  uint64_t out;
  dev.Load(ctx, 0, &out, sizeof(out));
  EXPECT_EQ(out, value);
}

TEST(PmemCrashTest, OverwriteSameLineKeepsLatestPayload) {
  PmemDevice dev(256 * common::kKiB);
  ExecContext ctx;
  dev.EnableCrashTracking();
  const uint64_t first = 1;
  const uint64_t second = 2;
  dev.Store(ctx, 0, &first, sizeof(first));
  dev.Store(ctx, 0, &second, sizeof(second));
  ASSERT_EQ(dev.PendingLines().size(), 1u);
  auto image = dev.CrashImage({0});
  uint64_t out;
  std::memcpy(&out, image.data(), 8);
  EXPECT_EQ(out, second);
}

TEST(PmemDeviceTest, ZeroFills) {
  PmemDevice dev(256 * common::kKiB);
  ExecContext ctx;
  const uint64_t junk = ~0ull;
  dev.Store(ctx, 0, &junk, sizeof(junk));
  dev.Zero(ctx, 0, 4096);
  uint64_t out = 1;
  dev.Load(ctx, 0, &out, sizeof(out));
  EXPECT_EQ(out, 0u);
}

TEST(PmemDeviceTest, StoreUnchargedWritesWithoutCost) {
  PmemDevice dev(256 * common::kKiB);
  ExecContext ctx;
  const uint64_t value = 42;
  dev.StoreUncharged(0, &value, sizeof(value));
  EXPECT_EQ(ctx.clock.NowNs(), 0u);
  EXPECT_EQ(ctx.counters.pm_write_bytes, 0u);
  uint64_t out;
  dev.Load(ctx, 0, &out, sizeof(out));
  EXPECT_EQ(out, value);
}

// Restoring an image onto a fork, or onto a device that just handed its
// bytes to a snapshot, makes it a plain device holding exactly that image and
// leaves the earlier snapshot as it was.
TEST(PmemCrashTest, RestoreImageEndsForkAndKeepsSnapshot) {
  PmemDevice source(4 * pmem::kSnapChunkBytes);
  ExecContext ctx;
  const uint64_t marker = 0x5157;
  source.Store(ctx, pmem::kSnapChunkBytes + 8, &marker, sizeof(marker));
  const pmem::DeviceSnapshot snap = source.Snapshot();
  const std::vector<uint8_t> before = *snap.bytes;
  std::vector<uint8_t> image(source.size());
  for (size_t i = 0; i < image.size(); i++) {
    image[i] = static_cast<uint8_t>(i * 13 + 5);
  }

  PmemDevice fork(snap);
  uint64_t out = 0;
  ASSERT_TRUE(fork.Load(ctx, pmem::kSnapChunkBytes + 8, &out, sizeof(out)).ok());
  ASSERT_TRUE(fork.is_cow_fork());
  for (PmemDevice* dev : {&fork, &source}) {
    SCOPED_TRACE(dev == &fork ? "fork" : "just snapshotted");
    dev->RestoreImage(image);
    EXPECT_FALSE(dev->is_cow_fork());
    EXPECT_TRUE(std::equal(image.begin(), image.end(), dev->raw()));
  }
  EXPECT_EQ(*snap.bytes, before);
}

// Minimal fault handler: file page p maps to device offset phys_base + p.
class FlatHandler : public vmem::FaultHandler {
 public:
  explicit FlatHandler(uint64_t phys_base) : phys_base_(phys_base) {}
  common::Result<FaultMapping> HandleFault(ExecContext&, uint64_t, uint64_t page_offset,
                                           bool) override {
    return FaultMapping{phys_base_ + page_offset, false};
  }

 private:
  uint64_t phys_base_;
};

// Zero map of `bytes` counted afresh, one entry per kSnapChunkBytes chunk.
std::vector<bool> RecountZeroChunks(const std::vector<uint8_t>& bytes) {
  std::vector<bool> zero(pmem::ChunkCount(bytes.size()));
  for (uint64_t c = 0; c < zero.size(); c++) {
    const auto first = bytes.begin() + static_cast<std::ptrdiff_t>(c * pmem::kSnapChunkBytes);
    const auto last = bytes.begin() + static_cast<std::ptrdiff_t>(std::min<uint64_t>(
                                          (c + 1) * pmem::kSnapChunkBytes, bytes.size()));
    zero[c] = std::all_of(first, last, [](uint8_t b) { return b == 0; });
  }
  return zero;
}

// After Snapshot() the snapshot owns the bytes it was handed: no write path
// of the device, with crash tracking on or off, reaches them.
TEST(PmemSnapshotTest, WritesAfterSnapshotLeaveItsBytesAlone) {
  constexpr uint64_t kMapBase = 2 * pmem::kSnapChunkBytes;
  const uint64_t payload = 0x0123456789abcdefull;
  const std::vector<uint8_t> page(common::kBlockSize, 0x3c);
  const std::vector<std::pair<std::string, std::function<void(PmemDevice&, ExecContext&)>>>
      writes = {
          {"Store", [&](PmemDevice& d, ExecContext& c) { d.Store(c, 64, &payload, 8); }},
          {"NtStore", [&](PmemDevice& d, ExecContext& c) { d.NtStore(c, 64, &payload, 8); }},
          {"Zero", [](PmemDevice& d, ExecContext& c) { d.Zero(c, 0, 4096); }},
          {"ScrubUncharged", [](PmemDevice& d, ExecContext&) { d.ScrubUncharged(0, 4096); }},
          {"raw_span", [&](PmemDevice& d, ExecContext&) {
             std::memcpy(d.raw_span(64, 8), &payload, 8);
           }},
          {"raw", [&](PmemDevice& d, ExecContext&) { std::memcpy(d.raw() + 64, &payload, 8); }},
          {"MappedFile::Write", [&](PmemDevice& d, ExecContext& c) {
             vmem::MmapEngine engine(&d, vmem::MmuParams{}, 1);
             FlatHandler handler(kMapBase);
             auto map = engine.Mmap(&handler, 1, page.size(), /*writable=*/true);
             ASSERT_TRUE(map->Write(c, 0, page.data(), page.size()).ok());
           }},
      };
  for (const bool tracking : {false, true}) {
    for (const auto& [name, write] : writes) {
      SCOPED_TRACE(name + (tracking ? " with crash tracking" : ""));
      PmemDevice dev(4 * pmem::kSnapChunkBytes);
      ExecContext ctx;
      std::vector<uint8_t> fill(4096, 0xe7);
      dev.Store(ctx, 0, fill.data(), fill.size());
      dev.Store(ctx, kMapBase, fill.data(), fill.size());
      if (tracking) {
        dev.EnableCrashTracking();
      }
      const pmem::DeviceSnapshot snap = dev.Snapshot();
      const std::vector<uint8_t> before = *snap.bytes;
      EXPECT_TRUE(dev.is_cow_fork());
      write(dev, ctx);
      EXPECT_EQ(*snap.bytes, before);
      // The device itself sees its write.
      EXPECT_NE(std::vector<uint8_t>(dev.raw(), dev.raw() + dev.size()), before);
    }
  }
}

// Snapshot() of a device that has not changed since its last one hands back
// that snapshot, and the zero map Snapshot() fills matches a recount.
TEST(PmemSnapshotTest, UntouchedDeviceReturnsSameSnapshot) {
  PmemDevice dev(5 * pmem::kSnapChunkBytes + 4096);
  ExecContext ctx;
  const uint8_t one = 1;
  dev.Store(ctx, pmem::kSnapChunkBytes + 17, &one, 1);
  dev.Store(ctx, dev.size() - 1, &one, 1);
  const pmem::DeviceSnapshot first = dev.Snapshot();
  const pmem::DeviceSnapshot second = dev.Snapshot();
  EXPECT_EQ(second.bytes, first.bytes);
  EXPECT_EQ(first.zero_chunks, RecountZeroChunks(*first.bytes));
  EXPECT_EQ(first.zero_chunks, (std::vector<bool>{true, false, true, true, true, false}));

  PmemDevice fork(first);
  EXPECT_EQ(fork.Snapshot().bytes, first.bytes);
  uint8_t byte = 0;
  ASSERT_TRUE(fork.Load(ctx, 0, &byte, 1).ok());
  const pmem::DeviceSnapshot third = fork.Snapshot();
  EXPECT_NE(third.bytes, first.bytes);
  EXPECT_EQ(*third.bytes, *first.bytes);
  EXPECT_EQ(third.zero_chunks, first.zero_chunks);
}

// A fork of a snapshot that mixes zero and non-zero chunks, and the device
// that handed its bytes to that snapshot, read exactly what a deep copy of
// the snapshot reads under the same seeded loads, stores and raw() reads.
TEST(PmemSnapshotTest, ForksReadWhatADeepCopyReads) {
  for (const uint64_t size : {8 * pmem::kSnapChunkBytes, 6 * pmem::kSnapChunkBytes + 3000}) {
    SCOPED_TRACE("device bytes " + std::to_string(size));
    PmemDevice source(size);
    ExecContext ctx;
    common::Rng fill_rng(size);
    for (uint64_t c = 0; c < pmem::ChunkCount(size); c++) {
      if (c % 3 == 1 || c + 1 == pmem::ChunkCount(size)) {
        std::vector<uint8_t> junk(512);
        for (uint8_t& b : junk) {
          b = static_cast<uint8_t>(fill_rng.Next() | 1);
        }
        const uint64_t off = std::min(c * pmem::kSnapChunkBytes + 4000, size - junk.size());
        source.Store(ctx, off, junk.data(), junk.size());
      }
    }
    const pmem::DeviceSnapshot snap = source.Snapshot();
    ASSERT_NE(std::count(snap.zero_chunks.begin(), snap.zero_chunks.end(), true), 0);
    ASSERT_NE(std::count(snap.zero_chunks.begin(), snap.zero_chunks.end(), false), 0);

    PmemDevice copy(size);
    std::memcpy(copy.raw(), snap.bytes->data(), size);
    PmemDevice fork(snap);
    for (PmemDevice* dev : {&fork, &source}) {
      SCOPED_TRACE(dev == &fork ? "fork" : "device that was snapshotted");
      PmemDevice reference(size);
      std::memcpy(reference.raw(), copy.raw(), size);
      common::Rng rng(7);
      for (int op = 0; op < 400; op++) {
        const uint64_t len = 1 + rng.NextBelow(2 * common::kBlockSize);
        const uint64_t off = rng.NextBelow(size - len + 1);
        std::vector<uint8_t> got(len);
        std::vector<uint8_t> want(len);
        switch (rng.NextBelow(4)) {
          case 0: {
            std::vector<uint8_t> data(len, static_cast<uint8_t>(op));
            dev->Store(ctx, off, data.data(), len);
            reference.Store(ctx, off, data.data(), len);
            break;
          }
          case 3:
            if (op % 50 == 3) {
              ASSERT_EQ(std::memcmp(dev->raw(), reference.raw(), size), 0) << "op " << op;
              break;
            }
            [[fallthrough]];
          default:
            ASSERT_TRUE(dev->Load(ctx, off, got.data(), len).ok());
            ASSERT_TRUE(reference.Load(ctx, off, want.data(), len).ok());
            ASSERT_EQ(got, want) << "op " << op << " at " << off;
        }
      }
      EXPECT_EQ(std::memcmp(dev->raw(), reference.raw(), size), 0);
      EXPECT_FALSE(dev->is_cow_fork());
    }
    EXPECT_EQ(std::memcmp(snap.bytes->data(), copy.raw(), size), 0);
  }
}

}  // namespace
