// WineFS journal mechanics under stress: ring wraparound with ongoing
// transactions, crash-recovery after many wraps, blob records against the
// ring's capacity, ENOSPC on the mmap fault path, recovery idempotence, and
// real-thread safety of the whole filesystem stack.
#include <gtest/gtest.h>

#include <thread>

#include "src/common/units.h"
#include "src/fs/winefs/winefs.h"
#include "src/vmem/mmap_engine.h"

namespace {

using common::ErrorCode;
using common::ExecContext;
using common::kBlockSize;
using common::kMiB;

std::unique_ptr<winefs::WineFs> TinyJournalFs(pmem::PmemDevice* device) {
  // 16 blocks of journal across 2 CPUs = 512 entries per ring: a few hundred
  // metadata ops wrap it many times.
  winefs::WineFsOptions options;
  options.base.max_inodes = 4096;
  options.base.journal_blocks = 16;
  options.base.num_cpus = 2;
  return std::make_unique<winefs::WineFs>(device, options);
}

TEST(WineFsJournalTest, RingWrapsManyTimesWithoutCorruption) {
  pmem::PmemDevice dev(128 * kMiB);
  auto fs = TinyJournalFs(&dev);
  ExecContext ctx;
  ASSERT_TRUE(fs->Mkfs(ctx).ok());
  std::vector<uint8_t> buf(kBlockSize, 0x2e);
  // Thousands of journaled ops across both per-CPU rings.
  for (int i = 0; i < 1500; i++) {
    ctx.cpu = i % 2;
    const std::string path = "/wrap" + std::to_string(i % 50);
    auto fd = fs->Open(ctx, path, vfs::OpenFlags::Create());
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(fs->Append(ctx, *fd, buf.data(), buf.size()).ok());
    ASSERT_TRUE(fs->Close(ctx, *fd).ok());
    if (i % 3 == 0) {
      ASSERT_TRUE(fs->Unlink(ctx, path).ok());
    }
  }
  // Crash (no unmount) and recover: the wrapped rings must parse cleanly.
  auto fs2 = TinyJournalFs(&dev);
  ExecContext rctx;
  ASSERT_TRUE(fs2->Mount(rctx).ok());
  auto entries = fs2->ReadDir(rctx, "/");
  ASSERT_TRUE(entries.ok());
  EXPECT_GT(entries->size(), 0u);
  // Every surviving file is fully readable.
  for (const auto& entry : *entries) {
    auto fd = fs2->Open(rctx, "/" + entry.name, vfs::OpenFlags::ReadOnly());
    ASSERT_TRUE(fd.ok());
    auto size = fs2->SizeOf(rctx, *fd);
    ASSERT_TRUE(size.ok());
    std::vector<uint8_t> out(*size);
    ASSERT_TRUE(fs2->Pread(rctx, *fd, out.data(), out.size(), 0).ok());
  }
}

// Fills a fresh 2 MiB aligned extent at /aligned, overwrites 256 KiB of it,
// checks the content round-trips, and reports the file's hugepage-mapped
// fraction afterwards.
void OverwriteAlignedExtent(pmem::PmemDevice* dev, winefs::WineFs* fs, double* huge_fraction) {
  ExecContext ctx;
  ASSERT_TRUE(fs->Mkfs(ctx).ok());
  auto fd = fs->Open(ctx, "/aligned", vfs::OpenFlags::Create());
  ASSERT_TRUE(fs->Fallocate(ctx, *fd, 0, 2 * kMiB).ok());
  std::vector<uint8_t> data(256 * 1024);
  for (size_t i = 0; i < data.size(); i++) {
    data[i] = static_cast<uint8_t>(i * 31);
  }
  ASSERT_TRUE(fs->Pwrite(ctx, *fd, data.data(), data.size(), 4096).ok());
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(fs->Pread(ctx, *fd, out.data(), out.size(), 4096).ok());
  EXPECT_EQ(out, data);
  vmem::MmapEngine engine(dev, vmem::MmuParams{}, 2);
  auto ino = fs->InodeOf(ctx, *fd);
  auto map = engine.Mmap(fs, *ino, 2 * kMiB, false);
  ASSERT_TRUE(map->Prefault(ctx, false).ok());
  *huge_fraction = map->HugeMappedFraction();
}

TEST(WineFsJournalTest, BlobSegmentsRespectRingCapacity) {
  // 256 blocks of journal across 2 CPUs = 8192 entries per ring: room for the
  // whole 256 KiB overwrite, data-journaled in 64 KiB blob segments, so the
  // layout stays aligned (data journaling, not CoW).
  pmem::PmemDevice dev(128 * kMiB);
  winefs::WineFsOptions options;
  options.base.max_inodes = 4096;
  options.base.journal_blocks = 256;
  options.base.num_cpus = 2;
  winefs::WineFs fs(&dev, options);
  double huge_fraction = 0;
  OverwriteAlignedExtent(&dev, &fs, &huge_fraction);
  EXPECT_DOUBLE_EQ(huge_fraction, 1.0);
}

TEST(WineFsJournalTest, OverwriteLargerThanRingCopiesOnWrite) {
  // A 512-entry ring holds 32 KiB of blob: the 256 KiB overwrite cannot be
  // data-journaled in one transaction without overrunning the ring, so its
  // segments are copied on write and the extent loses its hugepage.
  pmem::PmemDevice dev(128 * kMiB);
  auto fs = TinyJournalFs(&dev);
  double huge_fraction = 1;
  OverwriteAlignedExtent(&dev, fs.get(), &huge_fraction);
  EXPECT_LT(huge_fraction, 1.0);
}

TEST(WineFsJournalTest, RecoveryIsIdempotent) {
  pmem::PmemDevice dev(64 * kMiB);
  auto fs = TinyJournalFs(&dev);
  ExecContext ctx;
  ASSERT_TRUE(fs->Mkfs(ctx).ok());
  auto fd = fs->Open(ctx, "/f", vfs::OpenFlags::Create());
  std::vector<uint8_t> buf(50000, 0x4c);
  ASSERT_TRUE(fs->Pwrite(ctx, *fd, buf.data(), buf.size(), 0).ok());

  // Mount the same image repeatedly with fresh instances: state stable.
  for (int round = 0; round < 3; round++) {
    auto fs2 = TinyJournalFs(&dev);
    ExecContext rctx;
    ASSERT_TRUE(fs2->Mount(rctx).ok());
    auto st = fs2->Stat(rctx, "/f");
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st->size, buf.size());
    const auto info = fs2->StatFs(rctx).value();
    EXPECT_GT(info.free_blocks, 0u);
  }
}

TEST(WineFsJournalTest, EnospcOnMmapFaultSurfacesCleanly) {
  pmem::PmemDevice dev(48 * kMiB);
  winefs::WineFsOptions options;
  options.base.max_inodes = 1024;
  options.base.journal_blocks = 64;
  options.base.num_cpus = 2;
  auto fs = std::make_unique<winefs::WineFs>(&dev, options);
  ExecContext ctx;
  ASSERT_TRUE(fs->Mkfs(ctx).ok());
  // Consume almost everything.
  auto filler = fs->Open(ctx, "/filler", vfs::OpenFlags::Create());
  common::Status status = common::OkStatus();
  uint64_t off = 0;
  while (status.ok()) {
    status = fs->Fallocate(ctx, *filler, off, 2 * kMiB);
    off += 2 * kMiB;
  }
  EXPECT_EQ(status.code(), ErrorCode::kNoSpace);

  // A sparse mapping whose write faults cannot allocate must fail the access,
  // not crash, and the filesystem must stay usable.
  auto fd = fs->Open(ctx, "/sparse", vfs::OpenFlags::Create());
  ASSERT_TRUE(fs->Ftruncate(ctx, *fd, 8 * kMiB).ok());
  vmem::MmapEngine engine(&dev, vmem::MmuParams{}, 2);
  auto ino = fs->InodeOf(ctx, *fd);
  auto map = engine.Mmap(fs.get(), *ino, 8 * kMiB, true);
  std::vector<uint8_t> buf(kBlockSize, 1);
  common::Status wrote = common::OkStatus();
  for (uint64_t o = 0; o < 8 * kMiB && wrote.ok(); o += kBlockSize) {
    wrote = map->Write(ctx, o, buf.data(), buf.size());
  }
  EXPECT_FALSE(wrote.ok());
  // Free space, retry: the filesystem recovered from the pressure.
  ASSERT_TRUE(fs->Unlink(ctx, "/filler").ok());
  ASSERT_TRUE(map->Write(ctx, 4 * kMiB, buf.data(), buf.size()).ok());
}

TEST(WineFsJournalTest, RealThreadsHammeringDistinctDirectories) {
  // Host-thread safety smoke test: 4 OS threads, distinct directories,
  // create/append/read/unlink churn. (Simulated-time results are not
  // meaningful here; the point is no data races, deadlocks, or corruption.)
  pmem::PmemDevice dev(256 * kMiB);
  winefs::WineFsOptions options;
  options.base.num_cpus = 4;
  auto fs = std::make_unique<winefs::WineFs>(&dev, options);
  ExecContext setup;
  ASSERT_TRUE(fs->Mkfs(setup).ok());
  for (int t = 0; t < 4; t++) {
    ASSERT_TRUE(fs->Mkdir(setup, "/t" + std::to_string(t)).ok());
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&fs, &failures, t] {
      ExecContext ctx(t);
      std::vector<uint8_t> buf(4096, static_cast<uint8_t>(t));
      for (int i = 0; i < 200; i++) {
        const std::string path = "/t" + std::to_string(t) + "/f" + std::to_string(i);
        auto fd = fs->Open(ctx, path, vfs::OpenFlags::Create());
        if (!fd.ok() || !fs->Append(ctx, *fd, buf.data(), buf.size()).ok() ||
            !fs->Fsync(ctx, *fd).ok() || !fs->Close(ctx, *fd).ok() ||
            !fs->Unlink(ctx, path).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  // Everything cleaned up; remount still healthy.
  ASSERT_TRUE(fs->Unmount(setup).ok());
  ASSERT_TRUE(fs->Mount(setup).ok());
  for (int t = 0; t < 4; t++) {
    auto entries = fs->ReadDir(setup, "/t" + std::to_string(t));
    ASSERT_TRUE(entries.ok());
    EXPECT_TRUE(entries->empty());
  }
}

}  // namespace
