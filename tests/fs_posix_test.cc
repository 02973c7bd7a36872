// POSIX-surface conformance suite, parameterized over every modeled
// filesystem (§5.2: "WineFS passes all the tests" of the POSIX test suite —
// here the same behavioural battery runs against every implementation).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <string>

#include "src/common/units.h"
#include "src/fs/fscore/generic_fs.h"
#include "src/fs/registry.h"

namespace {

using common::ErrorCode;
using common::ExecContext;
using common::kBlockSize;
using common::kMiB;

class FsPosixTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    dev_ = std::make_unique<pmem::PmemDevice>(256 * kMiB);
    fs_ = fsreg::Create(GetParam(), dev_.get());
    ASSERT_NE(fs_, nullptr);
    ASSERT_TRUE(fs_->Mkfs(ctx_).ok());
  }

  std::vector<uint8_t> Pattern(size_t n, uint8_t seed = 1) {
    std::vector<uint8_t> buf(n);
    for (size_t i = 0; i < n; i++) {
      buf[i] = static_cast<uint8_t>(seed + i * 131);
    }
    return buf;
  }

  // Writes a whole file through the syscall interface.
  int MustCreate(const std::string& path, const std::vector<uint8_t>& data) {
    auto fd = fs_->Open(ctx_, path, vfs::OpenFlags::Create());
    EXPECT_TRUE(fd.ok());
    if (!data.empty()) {
      auto n = fs_->Pwrite(ctx_, *fd, data.data(), data.size(), 0);
      EXPECT_TRUE(n.ok());
      EXPECT_EQ(*n, data.size());
    }
    return *fd;
  }

  ExecContext ctx_;
  std::unique_ptr<pmem::PmemDevice> dev_;
  std::unique_ptr<vfs::FileSystem> fs_;
};

TEST_P(FsPosixTest, CreateWriteReadRoundTrip) {
  const auto data = Pattern(10000);
  const int fd = MustCreate("/a.txt", data);
  std::vector<uint8_t> out(data.size());
  auto n = fs_->Pread(ctx_, fd, out.data(), out.size(), 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, data.size());
  EXPECT_EQ(out, data);
  EXPECT_TRUE(fs_->Close(ctx_, fd).ok());
}

TEST_P(FsPosixTest, OpenMissingFails) {
  auto fd = fs_->Open(ctx_, "/missing", vfs::OpenFlags::ReadOnly());
  ASSERT_FALSE(fd.ok());
  EXPECT_EQ(fd.status().code(), ErrorCode::kNotFound);
}

TEST_P(FsPosixTest, ExclusiveCreateFailsOnExisting) {
  MustCreate("/dup", {});
  auto fd = fs_->Open(ctx_, "/dup", vfs::OpenFlags::CreateExcl());
  ASSERT_FALSE(fd.ok());
  EXPECT_EQ(fd.status().code(), ErrorCode::kExists);
}

TEST_P(FsPosixTest, TruncateOnOpenEmptiesFile) {
  MustCreate("/t", Pattern(5000));
  vfs::OpenFlags flags(vfs::OpenFlags::kTrunc);
  auto fd = fs_->Open(ctx_, "/t", flags);
  ASSERT_TRUE(fd.ok());
  auto st = fs_->Stat(ctx_, "/t");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 0u);
}

TEST_P(FsPosixTest, AppendExtendsFile) {
  const int fd = MustCreate("/log", {});
  const auto chunk = Pattern(kBlockSize);
  for (int i = 0; i < 5; i++) {
    auto off = fs_->Append(ctx_, fd, chunk.data(), chunk.size());
    ASSERT_TRUE(off.ok());
    EXPECT_EQ(*off, i * kBlockSize);
  }
  auto st = fs_->Stat(ctx_, "/log");
  EXPECT_EQ(st->size, 5 * kBlockSize);
}

TEST_P(FsPosixTest, OverwriteMiddlePreservesRest) {
  const auto data = Pattern(3 * kBlockSize, 1);
  const int fd = MustCreate("/ow", data);
  const auto patch = Pattern(100, 77);
  ASSERT_TRUE(fs_->Pwrite(ctx_, fd, patch.data(), patch.size(), 5000).ok());
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(fs_->Pread(ctx_, fd, out.data(), out.size(), 0).ok());
  std::vector<uint8_t> expect = data;
  std::memcpy(expect.data() + 5000, patch.data(), patch.size());
  EXPECT_EQ(out, expect);
}

TEST_P(FsPosixTest, UnalignedAppendsAccumulate) {
  // WiredTiger-style: appends that straddle block boundaries (§5.5).
  const int fd = MustCreate("/wt", {});
  std::vector<uint8_t> all;
  for (int i = 0; i < 40; i++) {
    const auto chunk = Pattern(1000 + i * 13, static_cast<uint8_t>(i));
    ASSERT_TRUE(fs_->Append(ctx_, fd, chunk.data(), chunk.size()).ok());
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  std::vector<uint8_t> out(all.size());
  ASSERT_TRUE(fs_->Pread(ctx_, fd, out.data(), out.size(), 0).ok());
  EXPECT_EQ(out, all);
}

TEST_P(FsPosixTest, ReadPastEofTruncated) {
  const int fd = MustCreate("/short", Pattern(100));
  std::vector<uint8_t> out(1000);
  auto n = fs_->Pread(ctx_, fd, out.data(), out.size(), 50);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 50u);
  auto n2 = fs_->Pread(ctx_, fd, out.data(), out.size(), 200);
  ASSERT_TRUE(n2.ok());
  EXPECT_EQ(*n2, 0u);
}

TEST_P(FsPosixTest, SparseFileReadsZeros) {
  const int fd = MustCreate("/sparse", {});
  ASSERT_TRUE(fs_->Ftruncate(ctx_, fd, 10 * kMiB).ok());
  auto st = fs_->Stat(ctx_, "/sparse");
  EXPECT_EQ(st->size, 10 * kMiB);
  EXPECT_EQ(st->blocks, 0u);  // no allocation (LMDB-style on-demand)
  std::vector<uint8_t> out(4096, 0xff);
  ASSERT_TRUE(fs_->Pread(ctx_, fd, out.data(), out.size(), 5 * kMiB).ok());
  for (uint8_t b : out) {
    EXPECT_EQ(b, 0u);
  }
}

TEST_P(FsPosixTest, FtruncateShrinkFreesBlocks) {
  const int fd = MustCreate("/shrink", Pattern(8 * kBlockSize));
  const auto before = fs_->StatFs(ctx_).value().free_blocks;
  ASSERT_TRUE(fs_->Ftruncate(ctx_, fd, kBlockSize).ok());
  EXPECT_GT(fs_->StatFs(ctx_).value().free_blocks, before);
  auto st = fs_->Stat(ctx_, "/shrink");
  EXPECT_EQ(st->size, kBlockSize);
}

TEST_P(FsPosixTest, FallocateAllocatesBlocks) {
  const int fd = MustCreate("/fa", {});
  ASSERT_TRUE(fs_->Fallocate(ctx_, fd, 0, 4 * kMiB).ok());
  auto st = fs_->Stat(ctx_, "/fa");
  EXPECT_EQ(st->size, 4 * kMiB);
  EXPECT_EQ(st->blocks, 4 * kMiB / kBlockSize);
}

TEST_P(FsPosixTest, MkdirAndNesting) {
  ASSERT_TRUE(fs_->Mkdir(ctx_, "/d1").ok());
  ASSERT_TRUE(fs_->Mkdir(ctx_, "/d1/d2").ok());
  MustCreate("/d1/d2/f", Pattern(10));
  auto st = fs_->Stat(ctx_, "/d1/d2/f");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 10u);
  EXPECT_EQ(fs_->Mkdir(ctx_, "/d1").code(), ErrorCode::kExists);
  EXPECT_EQ(fs_->Mkdir(ctx_, "/nope/d").code(), ErrorCode::kNotFound);
}

TEST_P(FsPosixTest, ReadDirListsEntries) {
  ASSERT_TRUE(fs_->Mkdir(ctx_, "/dir").ok());
  MustCreate("/dir/a", {});
  MustCreate("/dir/b", {});
  ASSERT_TRUE(fs_->Mkdir(ctx_, "/dir/sub").ok());
  auto entries = fs_->ReadDir(ctx_, "/dir");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 3u);
  int dirs = 0;
  for (const auto& e : *entries) {
    dirs += e.is_dir ? 1 : 0;
  }
  EXPECT_EQ(dirs, 1);
}

TEST_P(FsPosixTest, RmdirOnlyWhenEmpty) {
  ASSERT_TRUE(fs_->Mkdir(ctx_, "/rd").ok());
  MustCreate("/rd/f", {});
  EXPECT_EQ(fs_->Rmdir(ctx_, "/rd").code(), ErrorCode::kNotEmpty);
  ASSERT_TRUE(fs_->Unlink(ctx_, "/rd/f").ok());
  EXPECT_TRUE(fs_->Rmdir(ctx_, "/rd").ok());
  EXPECT_EQ(fs_->Stat(ctx_, "/rd").status().code(), ErrorCode::kNotFound);
}

TEST_P(FsPosixTest, UnlinkFreesSpace) {
  // Warm up the root directory (its dirent block stays allocated) so the
  // before/after comparison only sees the file's own blocks.
  MustCreate("/warmup", {});
  ASSERT_TRUE(fs_->Unlink(ctx_, "/warmup").ok());
  const auto before = fs_->StatFs(ctx_).value().free_blocks;
  MustCreate("/big", Pattern(4 * kMiB));
  EXPECT_LT(fs_->StatFs(ctx_).value().free_blocks, before);
  ASSERT_TRUE(fs_->Unlink(ctx_, "/big").ok());
  // The parent directory's own metadata (e.g. a NOVA log page) may have grown
  // by a block or two during the churn; the file's 1024 blocks must be back.
  EXPECT_GE(fs_->StatFs(ctx_).value().free_blocks + 2, before);
  EXPECT_LE(fs_->StatFs(ctx_).value().free_blocks, before);
  EXPECT_EQ(fs_->Stat(ctx_, "/big").status().code(), ErrorCode::kNotFound);
}

TEST_P(FsPosixTest, UnlinkDirectoryFails) {
  ASSERT_TRUE(fs_->Mkdir(ctx_, "/isdir").ok());
  EXPECT_EQ(fs_->Unlink(ctx_, "/isdir").code(), ErrorCode::kIsDir);
  EXPECT_EQ(fs_->Rmdir(ctx_, "/isdir").code(), ErrorCode::kOk);
}

TEST_P(FsPosixTest, RenameMovesFile) {
  MustCreate("/old", Pattern(123));
  ASSERT_TRUE(fs_->Mkdir(ctx_, "/dst").ok());
  ASSERT_TRUE(fs_->Rename(ctx_, "/old", "/dst/new").ok());
  EXPECT_EQ(fs_->Stat(ctx_, "/old").status().code(), ErrorCode::kNotFound);
  auto st = fs_->Stat(ctx_, "/dst/new");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 123u);
}

TEST_P(FsPosixTest, RenameOverwritesFile) {
  MustCreate("/src", Pattern(10));
  MustCreate("/tgt", Pattern(9999));
  const auto before = fs_->StatFs(ctx_).value().free_blocks;
  ASSERT_TRUE(fs_->Rename(ctx_, "/src", "/tgt").ok());
  auto st = fs_->Stat(ctx_, "/tgt");
  EXPECT_EQ(st->size, 10u);
  EXPECT_GE(fs_->StatFs(ctx_).value().free_blocks, before);  // old target freed
}

TEST_P(FsPosixTest, XattrRoundTrip) {
  MustCreate("/x", {});
  ASSERT_TRUE(fs_->SetXattr(ctx_, "/x", "user.winefs.aligned", "1").ok());
  auto v = fs_->GetXattr(ctx_, "/x", "user.winefs.aligned");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "1");
  EXPECT_EQ(fs_->GetXattr(ctx_, "/x", "user.other").status().code(), ErrorCode::kNoData);
}

TEST_P(FsPosixTest, FsyncSucceedsAndCounts) {
  const int fd = MustCreate("/fsynced", Pattern(kBlockSize));
  const auto before = ctx_.counters.fsync_count;
  ASSERT_TRUE(fs_->Fsync(ctx_, fd).ok());
  EXPECT_EQ(ctx_.counters.fsync_count, before + 1);
}

TEST_P(FsPosixTest, BadFdRejected) {
  uint8_t b;
  EXPECT_EQ(fs_->Pread(ctx_, 9999, &b, 1, 0).status().code(), ErrorCode::kBadFd);
  EXPECT_EQ(fs_->Fsync(ctx_, -1).code(), ErrorCode::kBadFd);
  EXPECT_EQ(fs_->Close(ctx_, 12345).code(), ErrorCode::kBadFd);
}

TEST_P(FsPosixTest, ManySmallFiles) {
  ASSERT_TRUE(fs_->Mkdir(ctx_, "/many").ok());
  for (int i = 0; i < 300; i++) {
    const std::string path = "/many/f" + std::to_string(i);
    const int fd = MustCreate(path, Pattern(256, static_cast<uint8_t>(i)));
    ASSERT_TRUE(fs_->Close(ctx_, fd).ok());
  }
  auto entries = fs_->ReadDir(ctx_, "/many");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 300u);
  // Spot-check contents.
  auto fd = fs_->Open(ctx_, "/many/f123", vfs::OpenFlags::ReadOnly());
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> out(256);
  ASSERT_TRUE(fs_->Pread(ctx_, *fd, out.data(), 256, 0).ok());
  EXPECT_EQ(out, Pattern(256, 123));
}

TEST_P(FsPosixTest, LargeFragmentedFileSurvives) {
  // Force many extents by interleaving two growing files.
  const int fa = MustCreate("/frag_a", {});
  const int fb = MustCreate("/frag_b", {});
  const auto chunk = Pattern(3 * kBlockSize);
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(fs_->Append(ctx_, fa, chunk.data(), chunk.size()).ok());
    ASSERT_TRUE(fs_->Append(ctx_, fb, chunk.data(), chunk.size()).ok());
  }
  auto st = fs_->Stat(ctx_, "/frag_a");
  EXPECT_EQ(st->size, 150 * kBlockSize);
  std::vector<uint8_t> out(chunk.size());
  ASSERT_TRUE(fs_->Pread(ctx_, fa, out.data(), out.size(), 49 * chunk.size()).ok());
  EXPECT_EQ(out, chunk);
}

TEST_P(FsPosixTest, RemountPreservesEverything) {
  ASSERT_TRUE(fs_->Mkdir(ctx_, "/keep").ok());
  const auto data = Pattern(100000);
  const int fd = MustCreate("/keep/file", data);
  ASSERT_TRUE(fs_->SetXattr(ctx_, "/keep/file", "user.winefs.aligned", "1").ok());
  ASSERT_TRUE(fs_->Close(ctx_, fd).ok());
  ASSERT_TRUE(fs_->Unmount(ctx_).ok());
  ASSERT_TRUE(fs_->Mount(ctx_).ok());

  auto st = fs_->Stat(ctx_, "/keep/file");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, data.size());
  auto fd2 = fs_->Open(ctx_, "/keep/file", vfs::OpenFlags::ReadOnly());
  ASSERT_TRUE(fd2.ok());
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(fs_->Pread(ctx_, *fd2, out.data(), out.size(), 0).ok());
  EXPECT_EQ(out, data);
  auto v = fs_->GetXattr(ctx_, "/keep/file", "user.winefs.aligned");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "1");
}

TEST_P(FsPosixTest, RemountPreservesFreeSpaceAccounting) {
  MustCreate("/f1", Pattern(1 * kMiB));
  const auto before = fs_->StatFs(ctx_).value();
  ASSERT_TRUE(fs_->Unmount(ctx_).ok());
  ASSERT_TRUE(fs_->Mount(ctx_).ok());
  const auto after = fs_->StatFs(ctx_).value();
  // Log-structured filesystems reclaim their forgotten per-inode log pages on
  // remount (see Nova::RebuildAllocator), so free space may grow slightly.
  EXPECT_GE(after.free_blocks, before.free_blocks);
  EXPECT_LE(after.free_blocks - before.free_blocks, 16u);
}

TEST_P(FsPosixTest, DeepPathsResolve) {
  std::string path;
  for (int d = 0; d < 8; d++) {
    path += "/d" + std::to_string(d);
    ASSERT_TRUE(fs_->Mkdir(ctx_, path).ok());
  }
  MustCreate(path + "/leaf", Pattern(64));
  auto st = fs_->Stat(ctx_, path + "/leaf");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 64u);
}

TEST_P(FsPosixTest, StatRoot) {
  auto st = fs_->Stat(ctx_, "/");
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->is_dir);
  EXPECT_EQ(st->ino, vfs::kRootIno);
}

TEST_P(FsPosixTest, EnospcSurfacedAndRecoverable) {
  // Fill the FS, expect kNoSpace, then delete and retry successfully.
  int i = 0;
  common::Status last = common::OkStatus();
  while (last.ok() && i < 100000) {
    auto fd = fs_->Open(ctx_, "/fill" + std::to_string(i), vfs::OpenFlags::Create());
    ASSERT_TRUE(fd.ok());
    last = fs_->Fallocate(ctx_, *fd, 0, 8 * kMiB);
    ASSERT_TRUE(fs_->Close(ctx_, *fd).ok());
    i++;
  }
  EXPECT_EQ(last.code(), ErrorCode::kNoSpace);
  ASSERT_TRUE(fs_->Unlink(ctx_, "/fill0").ok());
  auto fd = fs_->Open(ctx_, "/retry", vfs::OpenFlags::Create());
  ASSERT_TRUE(fd.ok());
  EXPECT_TRUE(fs_->Fallocate(ctx_, *fd, 0, 4 * kMiB).ok());
}

// ext4-DAX is zero-on-fault: it scrubs recycled blocks at allocation without
// a charge and bills the zeroing when a fault or write converts the extent.
// The scrub must reach the crash-tracking persistent image too, or a crash
// state would bring back the previous file's bytes.
TEST(ZeroOnFaultScrubTest, RecycledBlocksReadAndPersistAsZeros) {
  constexpr uint64_t kFileBytes = 1 * kMiB;
  pmem::PmemDevice dev(64 * kMiB);
  auto fs = fsreg::Create("ext4-dax", &dev);
  auto* generic = dynamic_cast<fscore::GenericFs*>(fs.get());
  ASSERT_NE(generic, nullptr);
  ExecContext ctx;
  ASSERT_TRUE(fs->Mkfs(ctx).ok());
  const auto blocks_of = [&](int fd) {
    std::set<uint64_t> blocks;
    const fscore::Inode* inode = generic->FindInode(*fs->InodeOf(ctx, fd));
    for (const auto& [logical, ext] : inode->extents.Entries()) {
      for (uint64_t b = ext.phys_block; b < ext.end(); b++) {
        blocks.insert(b);
      }
    }
    return blocks;
  };

  auto old_fd = fs->Open(ctx, "/old", vfs::OpenFlags::Create());
  ASSERT_TRUE(old_fd.ok());
  const std::vector<uint8_t> junk(kFileBytes, 0xab);
  ASSERT_TRUE(fs->Pwrite(ctx, *old_fd, junk.data(), junk.size(), 0).ok());
  const std::set<uint64_t> old_blocks = blocks_of(*old_fd);
  ASSERT_TRUE(fs->Close(ctx, *old_fd).ok());
  ASSERT_TRUE(fs->Unlink(ctx, "/old").ok());

  dev.EnableCrashTracking();  // the persistent image still holds the 0xab bytes
  auto new_fd = fs->Open(ctx, "/new", vfs::OpenFlags::Create());
  ASSERT_TRUE(new_fd.ok());
  ASSERT_TRUE(fs->Fallocate(ctx, *new_fd, 0, kFileBytes).ok());
  const std::set<uint64_t> new_blocks = blocks_of(*new_fd);
  ASSERT_EQ(new_blocks.size(), kFileBytes / kBlockSize);
  uint64_t reused = 0;
  for (const uint64_t b : new_blocks) {
    reused += old_blocks.count(b);
  }
  ASSERT_GT(reused, 0u) << "the new file must reuse the unlinked file's blocks";

  std::vector<uint8_t> got(kFileBytes, 0xff);
  auto n = fs->Pread(ctx, *new_fd, got.data(), got.size(), 0);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, kFileBytes);
  EXPECT_EQ(got, std::vector<uint8_t>(kFileBytes, 0));
  const std::vector<uint8_t> persistent = dev.PersistentImage();
  for (const uint64_t b : new_blocks) {
    const uint8_t* block = persistent.data() + b * kBlockSize;
    EXPECT_EQ(std::vector<uint8_t>(block, block + kBlockSize), std::vector<uint8_t>(kBlockSize, 0))
        << "persistent image of block " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFilesystems, FsPosixTest,
                         ::testing::Values("winefs", "winefs-relaxed", "ext4-dax", "xfs-dax",
                                           "pmfs", "nova", "nova-relaxed", "splitfs",
                                           "strata"),
                         [](const ::testing::TestParamInfo<std::string>& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
