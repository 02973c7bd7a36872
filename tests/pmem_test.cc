// Unit tests for the PM device: persistence semantics, cost accounting, and
// crash-state capture.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/common/exec_context.h"
#include "src/common/units.h"
#include "src/pmem/device.h"

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

}  // namespace
