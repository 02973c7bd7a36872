// src/snap tests: on-disk image round-trip (bytes, geometry, cost model,
// sparseness), COW fork isolation and laziness, typed rejection of damaged
// images, corpus hit/miss/fallback behavior, aging determinism (corpus reuse
// is unsound without it), remount-from-image across the whole filesystem
// lineup, and crashmk snapshot archiving.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/aging/geriatrix.h"
#include "src/common/units.h"
#include "src/crashmk/campaign.h"
#include "src/crashmk/explorer.h"
#include "src/fs/fscore/fsck.h"
#include "src/fs/registry.h"
#include "src/fs/winefs/winefs.h"
#include "src/pmem/device.h"
#include "src/snap/corpus.h"
#include "src/snap/image.h"

namespace {

using common::ErrorCode;
using common::ExecContext;
using common::kMiB;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Writes recognizable non-zero data at scattered offsets, including ones that
// straddle chunk boundaries and the device tail.
void ScribbleDevice(pmem::PmemDevice& dev) {
  ExecContext ctx;
  std::vector<uint8_t> blob(3 * 4096);
  for (size_t i = 0; i < blob.size(); i++) {
    blob[i] = static_cast<uint8_t>(i * 7 + 13);
  }
  const uint64_t offsets[] = {0,
                              pmem::kSnapChunkBytes - 4096,
                              5 * pmem::kSnapChunkBytes + 512,
                              dev.size() - blob.size()};
  for (uint64_t off : offsets) {
    dev.Store(ctx, off, blob.data(), blob.size());
  }
}

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

// Format v2 written the plain way: serial FNV-1a over the header and over
// each non-zero chunk's 8-byte index then payload, records in chunk order.
std::vector<uint8_t> ReferenceImage(const std::vector<uint8_t>& bytes,
                                    const pmem::CostModel& model, uint32_t numa_nodes,
                                    snap::ImageKind kind, const std::string& provenance) {
  std::vector<uint8_t> out;
  auto put = [&out](const void* data, uint64_t len) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    out.insert(out.end(), p, p + len);
  };
  auto u32 = [&put](uint32_t v) { put(&v, sizeof(v)); };
  auto u64 = [&put](uint64_t v) { put(&v, sizeof(v)); };
  const std::vector<bool> zero = RecountZeroChunks(bytes);
  u64(0x31474d4950414e53ull);  // "SNAPIMG1"
  u32(2);
  u32(static_cast<uint32_t>(kind));
  u64(bytes.size());
  u64(pmem::kSnapChunkBytes);
  u32(numa_nodes);
  u64(static_cast<uint64_t>(std::count(zero.begin(), zero.end(), false)));
  u32(14);
  for (const uint64_t field :
       {model.pm_load_random_ns, model.pm_load_seq_ns, model.pm_store_ns, model.pm_store_seq_ns,
        model.clwb_ns, model.sfence_ns, model.dram_load_ns, model.llc_hit_ns,
        model.fault_base_ns, model.fault_huge_extra_ns, model.zero_4k_ns,
        model.tlb_walk_level_ns, model.syscall_trap_ns, model.vfs_path_component_ns}) {
    u64(field);
  }
  u32(static_cast<uint32_t>(provenance.size()));
  put(provenance.data(), provenance.size());
  u64(snap::Fnv1a(out.data(), out.size()));
  for (uint64_t c = 0; c < zero.size(); c++) {
    if (zero[c]) {
      continue;
    }
    const uint64_t off = c * pmem::kSnapChunkBytes;
    const uint64_t len = std::min<uint64_t>(pmem::kSnapChunkBytes, bytes.size() - off);
    u64(c);
    u64(snap::Fnv1a(bytes.data() + off, len,
                    snap::Fnv1a(reinterpret_cast<const uint8_t*>(&c), sizeof(c))));
    put(bytes.data() + off, len);
  }
  return out;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

TEST(SnapImage, RoundTripIsByteIdentical) {
  pmem::CostModel model;
  model.pm_store_ns = 77;  // non-default, must survive the trip
  pmem::PmemDevice dev(16 * kMiB, model, /*numa_nodes=*/2);
  ScribbleDevice(dev);
  const pmem::DeviceSnapshot snap = dev.Snapshot();

  const std::string path = TempPath("roundtrip.snap");
  ASSERT_TRUE(snap::SaveImage(path, snap, snap::ImageKind::kFilesystem, "test;rt").ok());
  auto loaded = snap::LoadImage(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded->snapshot.bytes, *snap.bytes);
  EXPECT_EQ(loaded->snapshot.numa_nodes, 2u);
  EXPECT_EQ(loaded->snapshot.model.pm_store_ns, 77u);
  EXPECT_EQ(loaded->info.kind, snap::ImageKind::kFilesystem);
  EXPECT_EQ(loaded->info.provenance, "test;rt");
  EXPECT_EQ(snap::ContentHash(loaded->snapshot), snap::ContentHash(snap));

  // NUMA interleave layout must be recreatable from the stored geometry.
  pmem::PmemDevice fork(loaded->snapshot);
  EXPECT_EQ(fork.numa_nodes(), dev.numa_nodes());
  EXPECT_EQ(fork.NumaNodeOf(dev.size() - 1), dev.NumaNodeOf(dev.size() - 1));
}

TEST(SnapImage, SparseImageSkipsZeroChunks) {
  pmem::PmemDevice dev(64 * kMiB);
  ScribbleDevice(dev);  // touches 4 chunks of 256
  const std::string path = TempPath("sparse.snap");
  ASSERT_TRUE(
      snap::SaveImage(path, dev.Snapshot(), snap::ImageKind::kFilesystem, "test;sparse").ok());
  const uint64_t file_size = std::filesystem::file_size(path);
  EXPECT_LT(file_size, 8 * pmem::kSnapChunkBytes);  // far below the 64 MiB device
  auto info = snap::ReadImageInfo(path);
  ASSERT_TRUE(info.ok());
  EXPECT_LE(info->stored_chunks, 8u);
  EXPECT_GE(info->stored_chunks, 4u);
  auto loaded = snap::LoadImage(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded->snapshot.bytes, *dev.Snapshot().bytes);
}

// Chunk checksums are computed four chunks per pass, yet the file is the one
// a serial FNV-1a writer produces, for groups that are full, partial or
// empty and for a short last chunk; loading it gives back the bytes and a
// zero map equal to a recount.
TEST(SnapImage, SaveMatchesSerialReferenceWriter) {
  const uint64_t device_bytes = 10 * pmem::kSnapChunkBytes + 5000;  // 11 chunks
  const std::vector<std::vector<uint64_t>> layouts = {
      {}, {10}, {0, 4, 10}, {1, 2, 3, 9}, {0, 2, 4, 6, 10}, {0, 1, 2, 3, 4, 5, 6, 7, 10}};
  for (const std::vector<uint64_t>& chunks : layouts) {
    SCOPED_TRACE("stored chunks " + std::to_string(chunks.size()));
    pmem::CostModel model;
    model.clwb_ns = 91;
    pmem::PmemDevice dev(device_bytes, model, /*numa_nodes=*/2);
    ExecContext ctx;
    for (const uint64_t c : chunks) {
      std::vector<uint8_t> data(3000);
      for (size_t i = 0; i < data.size(); i++) {
        data[i] = static_cast<uint8_t>(c * 31 + i * 7 + 1);
      }
      const uint64_t off = std::min(c * pmem::kSnapChunkBytes + 1000, device_bytes - 3000);
      dev.Store(ctx, off, data.data(), data.size());
    }
    const pmem::DeviceSnapshot snap = dev.Snapshot();
    const std::string path = TempPath("reference_" + std::to_string(chunks.size()) + ".snap");
    ASSERT_TRUE(snap::SaveImage(path, snap, snap::ImageKind::kFilesystem, "test;ref").ok());
    EXPECT_EQ(ReadFile(path), ReferenceImage(*snap.bytes, model, 2,
                                             snap::ImageKind::kFilesystem, "test;ref"));
    auto loaded = snap::LoadImage(path);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded->info.stored_chunks, chunks.size());
    EXPECT_EQ(*loaded->snapshot.bytes, *snap.bytes);
    EXPECT_EQ(loaded->snapshot.zero_chunks, RecountZeroChunks(*snap.bytes));
  }
}

TEST(SnapCow, ForksAreIsolatedFromBaseAndEachOther) {
  pmem::PmemDevice dev(8 * kMiB);
  ScribbleDevice(dev);
  const pmem::DeviceSnapshot base = dev.Snapshot();

  pmem::PmemDevice fork_a(base);
  pmem::PmemDevice fork_b(base);
  ExecContext ctx;
  const uint8_t a = 0xaa;
  const uint8_t b = 0xbb;
  fork_a.Store(ctx, 100, &a, 1);
  fork_b.Store(ctx, 100, &b, 1);

  EXPECT_EQ((*base.bytes)[100], (*dev.Snapshot().bytes)[100]);  // base untouched
  uint8_t got_a = 0;
  uint8_t got_b = 0;
  ASSERT_TRUE(fork_a.Load(ctx, 100, &got_a, 1).ok());
  ASSERT_TRUE(fork_b.Load(ctx, 100, &got_b, 1).ok());
  EXPECT_EQ(got_a, 0xaa);
  EXPECT_EQ(got_b, 0xbb);
  // Away from the written byte both forks still read the base image.
  uint8_t far_a = 0;
  ASSERT_TRUE(fork_a.Load(ctx, 5 * pmem::kSnapChunkBytes + 512, &far_a, 1).ok());
  EXPECT_EQ(far_a, (*base.bytes)[5 * pmem::kSnapChunkBytes + 512]);
}

TEST(SnapCow, ForkMaterializesLazily) {
  pmem::PmemDevice dev(32 * kMiB);
  ScribbleDevice(dev);
  pmem::PmemDevice fork(dev.Snapshot());
  EXPECT_TRUE(fork.is_cow_fork());
  EXPECT_EQ(fork.cow_chunks_copied(), 0u);
  ExecContext ctx;
  uint8_t byte = 0;
  ASSERT_TRUE(fork.Load(ctx, 0, &byte, 1).ok());
  EXPECT_EQ(fork.cow_chunks_copied(), 1u);  // one chunk of 128
  // Whole-device access (raw) materializes everything.
  (void)fork.raw();
  EXPECT_FALSE(fork.is_cow_fork());
  EXPECT_EQ(fork.cow_chunks_copied(), 32 * kMiB / pmem::kSnapChunkBytes);
  EXPECT_EQ(std::vector<uint8_t>(fork.raw(), fork.raw() + fork.size()), *dev.Snapshot().bytes);
}

class SnapDamageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pmem::PmemDevice dev(4 * kMiB);
    ScribbleDevice(dev);
    // One file per case: ctest runs the cases as concurrent processes.
    path_ = TempPath(std::string("damage_") +
                     ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                     ".snap");
    ASSERT_TRUE(
        snap::SaveImage(path_, dev.Snapshot(), snap::ImageKind::kFilesystem, "test;dmg").ok());
  }

  void PatchByte(uint64_t offset, uint8_t value) {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(reinterpret_cast<const char*>(&value), 1);
  }

  // Reads the saved image and checks its v2 layout: a 172-byte fixed header
  // around the provenance string, then one {u64 index, u64 FNV-1a, payload}
  // record per stored chunk (four here, all full chunks).
  void ReadLayout() {
    std::ifstream in(path_, std::ios::binary);
    image_.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    auto info = snap::ReadImageInfo(path_);
    ASSERT_TRUE(info.ok());
    stored_chunks_ = info->stored_chunks;
    header_bytes_ = 172 + info->provenance.size();
    ASSERT_GE(stored_chunks_, 2u);
    ASSERT_EQ(image_.size(),
              header_bytes_ + stored_chunks_ * (kRecordHead + pmem::kSnapChunkBytes));
  }

  // Loads the image cut to its first `cut` bytes: always kIoError, and a cut
  // inside the header also fails the header-only probe.
  void ExpectCutIsIoError(uint64_t cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    ASSERT_LT(cut, image_.size());
    const std::string cut_path = path_ + ".cut";
    {
      std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
      out.write(image_.data(), static_cast<std::streamsize>(cut));
    }
    auto loaded = snap::LoadImage(cut_path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), ErrorCode::kIoError);
    if (cut < header_bytes_) {
      auto info = snap::ReadImageInfo(cut_path);
      ASSERT_FALSE(info.ok());
      EXPECT_EQ(info.status().code(), ErrorCode::kIoError);
    }
    std::remove(cut_path.c_str());
  }

  static constexpr uint64_t kRecordHead = 2 * sizeof(uint64_t);
  std::string path_;
  std::vector<char> image_;
  uint64_t stored_chunks_ = 0;
  uint64_t header_bytes_ = 0;
};

TEST_F(SnapDamageTest, BadMagicIsCorrupt) {
  PatchByte(0, 0x00);
  auto loaded = snap::LoadImage(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kCorrupt);
}

TEST_F(SnapDamageTest, StaleFormatVersionIsNotSupported) {
  PatchByte(8, 99);  // format_version lives right after the 8-byte magic
  auto loaded = snap::LoadImage(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kNotSupported);
}

TEST_F(SnapDamageTest, FlippedChunkByteIsCorrupt) {
  const uint64_t size = std::filesystem::file_size(path_);
  PatchByte(size - 1, 0xfe);  // last payload byte of the last stored chunk
  auto loaded = snap::LoadImage(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kCorrupt);
}

// The checksum covers a record's index too. Flipping bit 1 of the first
// record's index moves its payload from chunk 0 to chunk 2, which is in
// range and stored by no other record, so only the checksum can tell.
TEST_F(SnapDamageTest, FlippedChunkIndexIsCorrupt) {
  ASSERT_NO_FATAL_FAILURE(ReadLayout());
  ASSERT_EQ(image_[header_bytes_], 0);  // the first record stores chunk 0
  PatchByte(header_bytes_, 0x02);
  auto loaded = snap::LoadImage(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kCorrupt);
}

TEST_F(SnapDamageTest, TruncatedFileIsIoError) {
  const uint64_t size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 4000);
  auto loaded = snap::LoadImage(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kIoError);
}

TEST_F(SnapDamageTest, TruncatedAtEveryHeaderFieldIsIoError) {
  ASSERT_NO_FATAL_FAILURE(ReadLayout());
  // magic, version, kind, device_bytes, chunk_bytes, numa_nodes,
  // stored_chunks, cost-field count, 14 cost fields, provenance length.
  std::vector<uint64_t> cuts = {0, 8, 12, 16, 24, 32, 36, 44};
  for (uint64_t field = 0; field <= 14; field++) {
    cuts.push_back(48 + 8 * field);
  }
  cuts.push_back(164);                // provenance bytes
  cuts.push_back(header_bytes_ - 8);  // header checksum
  cuts.push_back(header_bytes_);      // first chunk record
  cuts.push_back(3);                  // and cuts inside two fields
  cuts.push_back(header_bytes_ - 3);
  for (const uint64_t cut : cuts) {
    ExpectCutIsIoError(cut);
  }
}

TEST_F(SnapDamageTest, TruncatedInsideEveryChunkRecordIsIoError) {
  ASSERT_NO_FATAL_FAILURE(ReadLayout());
  for (uint64_t rec = 0; rec < stored_chunks_; rec++) {
    const uint64_t start = header_bytes_ + rec * (kRecordHead + pmem::kSnapChunkBytes);
    const uint64_t payload = start + kRecordHead;
    // The record's start, inside its index, between index and checksum,
    // inside the checksum, at the payload; then one byte into, mid-way
    // through and one byte short of the payload.
    for (const uint64_t cut :
         {start, start + 3, start + 8, start + 13, payload, payload + 1,
          payload + pmem::kSnapChunkBytes / 2, payload + pmem::kSnapChunkBytes - 1}) {
      ExpectCutIsIoError(cut);
    }
  }
}

// Records are verified four at a time, but the error reported is still the
// first in file order: a damaged payload read before a truncation is
// kCorrupt, and a truncation read before a damaged byte is kIoError.
TEST_F(SnapDamageTest, FirstErrorInFileOrderWins) {
  ASSERT_NO_FATAL_FAILURE(ReadLayout());
  ASSERT_EQ(stored_chunks_, 4u);  // one full group
  auto record = [&](uint64_t rec) {
    return header_bytes_ + rec * (kRecordHead + pmem::kSnapChunkBytes);
  };
  auto load_damaged = [&](uint64_t flip, uint64_t cut) {
    std::vector<char> bytes(image_.begin(), image_.begin() + static_cast<std::ptrdiff_t>(cut));
    if (flip < cut) {
      bytes[flip] = static_cast<char>(bytes[flip] ^ 0x40);
    }
    const std::string damaged_path = path_ + ".damaged";
    {
      std::ofstream out(damaged_path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    auto loaded = snap::LoadImage(damaged_path);
    std::remove(damaged_path.c_str());
    return loaded.ok() ? ErrorCode::kOk : loaded.status().code();
  };
  const uint64_t half = pmem::kSnapChunkBytes / 2;
  // Damage in record k, truncation later in the same group.
  EXPECT_EQ(load_damaged(record(1) + kRecordHead + 9, record(2) + kRecordHead + half),
            ErrorCode::kCorrupt);
  EXPECT_EQ(load_damaged(record(0) + kRecordHead, record(3) + 5), ErrorCode::kCorrupt);
  EXPECT_EQ(load_damaged(record(2) + kRecordHead + 1, record(3) + kRecordHead),
            ErrorCode::kCorrupt);
  // Truncation first: inside record 1, ahead of the damage in record 2, and
  // inside record 1's payload past a damaged byte of that same payload.
  EXPECT_EQ(load_damaged(record(2) + kRecordHead + 9, record(1) + kRecordHead + half),
            ErrorCode::kIoError);
  EXPECT_EQ(load_damaged(record(1) + kRecordHead + 9, record(1) + kRecordHead + half),
            ErrorCode::kIoError);
  // Either alone.
  EXPECT_EQ(load_damaged(record(3) + kRecordHead + half, image_.size()), ErrorCode::kCorrupt);
  EXPECT_EQ(load_damaged(image_.size(), record(3) + kRecordHead + half), ErrorCode::kIoError);
}

TEST_F(SnapDamageTest, FlippedHeaderByteIsCorrupt) {
  PatchByte(20, 0x7f);  // inside device_bytes: header checksum must catch it
  auto loaded = snap::LoadImage(path_);
  ASSERT_FALSE(loaded.ok());
  // Either the checksum flags it or the parsed geometry is nonsensical;
  // both are kCorrupt, never success.
  EXPECT_EQ(loaded.status().code(), ErrorCode::kCorrupt);
}

snap::ImageKey TestKey(const std::string& fs_name, uint64_t device_bytes) {
  snap::ImageKey key;
  key.fs = fs_name;
  key.device_bytes = device_bytes;
  key.num_cpus = 4;
  key.numa_nodes = 1;
  key.profile = "unit";
  key.seed = 3;
  key.utilization = 0.25;
  key.churn = 1.0;
  key.detail = "snap_test";
  return key;
}

// Runs the snapctl binary's `verify` on `dir`: its exit status, with its
// stdout in `out`.
int RunSnapctlVerify(const std::string& dir, std::string* out) {
  const std::string command = std::string(SNAPCTL_PATH) + " verify '" + dir + "'";
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return -1;
  }
  out->clear();
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    *out += buf;
  }
  const int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// An image of another format version is stale, not damaged: verify names it,
// says how to reclaim it, and passes. A damaged current-format image still
// fails verify. Crash-state images, so no fsck judges the scribbled bytes.
TEST(SnapctlVerify, StaleFormatIsListedAndDamageFails) {
  const std::string dir = TempPath("verify_stale");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  pmem::PmemDevice dev(4 * kMiB);
  ScribbleDevice(dev);
  auto save_and_patch = [&](const std::string& path, uint64_t offset, uint8_t value) {
    ASSERT_TRUE(
        snap::SaveImage(path, dev.Snapshot(), snap::ImageKind::kCrashState, "test;verify").ok());
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(reinterpret_cast<const char*>(&value), 1);
  };

  // format_version lives right after the 8-byte magic.
  const std::string stale = dir + "/stale.snap";
  ASSERT_NO_FATAL_FAILURE(save_and_patch(stale, 8, snap::kSnapFormatVersion - 1));
  ASSERT_EQ(snap::ReadImageInfo(stale).status().code(), ErrorCode::kNotSupported);
  std::string out;
  EXPECT_EQ(RunSnapctlVerify(dir, &out), 0) << out;
  EXPECT_NE(out.find("STALE " + stale), std::string::npos) << out;
  EXPECT_NE(out.find("format v" + std::to_string(snap::kSnapFormatVersion - 1)),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("run snapctl gc"), std::string::npos) << out;

  const std::string damaged = dir + "/damaged.snap";
  ASSERT_NO_FATAL_FAILURE(
      save_and_patch(damaged, std::filesystem::file_size(stale) - 1, 0xfe));
  EXPECT_EQ(snap::LoadImage(damaged).status().code(), ErrorCode::kCorrupt);
  EXPECT_NE(RunSnapctlVerify(dir, &out), 0) << out;
  EXPECT_NE(out.find("FAIL " + damaged), std::string::npos) << out;
  EXPECT_NE(out.find("STALE " + stale), std::string::npos) << out;
  std::filesystem::remove_all(dir);
}

// A real (small) filesystem image the corpus can fsck-validate.
pmem::DeviceSnapshot MakeFsSnapshot(const std::string& fs_name, uint64_t device_bytes) {
  pmem::PmemDevice dev(device_bytes);
  auto fs = fsreg::Create(fs_name, &dev, 4);
  ExecContext ctx;
  EXPECT_TRUE(fs->Mkfs(ctx).ok());
  auto fd = fs->Open(ctx, "/seed", vfs::OpenFlags::Create());
  std::vector<uint8_t> data(20000, 0x42);
  EXPECT_TRUE(fs->Pwrite(ctx, *fd, data.data(), data.size(), 0).ok());
  EXPECT_TRUE(fs->Close(ctx, *fd).ok());
  EXPECT_TRUE(fs->Unmount(ctx).ok());
  return dev.Snapshot();
}

TEST(SnapCorpus, MissBuildsThenHitLoads) {
  const std::string dir = TempPath("corpus_hit");
  std::filesystem::remove_all(dir);
  snap::Corpus corpus(dir);
  ASSERT_TRUE(corpus.enabled());
  const snap::ImageKey key = TestKey("winefs", 64 * kMiB);

  int builds = 0;
  auto build = [&]() -> common::Result<pmem::DeviceSnapshot> {
    builds++;
    return MakeFsSnapshot("winefs", 64 * kMiB);
  };
  auto first = corpus.LoadOrBuild(key, build);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(corpus.stats().misses, 1u);
  EXPECT_EQ(corpus.stats().hits, 0u);

  auto second = corpus.LoadOrBuild(key, build);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(builds, 1);  // served from disk
  EXPECT_EQ(corpus.stats().hits, 1u);
  EXPECT_EQ(*second->bytes, *first->bytes);
}

TEST(SnapCorpus, CorruptStoredImageFallsBackToRebuild) {
  const std::string dir = TempPath("corpus_corrupt");
  std::filesystem::remove_all(dir);
  snap::Corpus corpus(dir);
  const snap::ImageKey key = TestKey("winefs", 64 * kMiB);
  auto build = [&] { return MakeFsSnapshot("winefs", 64 * kMiB); };
  ASSERT_TRUE(corpus.LoadOrBuild(key, build).ok());

  // Flip a payload byte in the stored image: the next load must reject it
  // (typed, no crash) and transparently rebuild.
  const std::string path = corpus.PathFor(key);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(std::filesystem::file_size(path) - 1));
    const char garbage = 0x5c;
    f.write(&garbage, 1);
  }
  auto direct = corpus.TryLoad(key);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(corpus.stats().rejects, 1u);

  auto rebuilt = corpus.LoadOrBuild(key, build);
  ASSERT_TRUE(rebuilt.ok());
  // The rebuild overwrote the damaged file; a further load hits cleanly.
  auto again = corpus.TryLoad(key);
  ASSERT_TRUE(again.ok());
}

TEST(SnapCorpus, NonFilesystemGarbageFailsFsckOnLoad) {
  const std::string dir = TempPath("corpus_garbage");
  std::filesystem::remove_all(dir);
  snap::Corpus corpus(dir);
  const snap::ImageKey key = TestKey("winefs", 8 * kMiB);
  // A checksum-valid image whose payload is not a filesystem: header checks
  // pass, fsck must reject it before any bench mounts it.
  pmem::PmemDevice garbage(8 * kMiB);
  ScribbleDevice(garbage);
  ASSERT_TRUE(snap::SaveImage(corpus.PathFor(key), garbage.Snapshot(),
                              snap::ImageKind::kFilesystem, key.Provenance())
                  .ok());
  auto loaded = corpus.TryLoad(key);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kCorrupt);
  EXPECT_EQ(corpus.stats().rejects, 1u);
}

// fsck-on-load runs over the loaded bytes in place: a good image comes back
// equal to the saved device, and an image whose superblock is damaged is
// still rejected with kCorrupt and an fsck report saying why.
TEST(SnapCorpus, CheckedLoadServesSavedDeviceAndRejectsBrokenFs) {
  const std::string dir = TempPath("corpus_checked");
  std::filesystem::remove_all(dir);
  snap::Corpus corpus(dir);
  const snap::ImageKey key = TestKey("winefs", 64 * kMiB);
  const pmem::DeviceSnapshot saved = MakeFsSnapshot("winefs", 64 * kMiB);
  ASSERT_TRUE(corpus.Save(key, saved).ok());
  auto loaded = corpus.TryLoad(key);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded->bytes, *saved.bytes);
  EXPECT_EQ(loaded->zero_chunks, RecountZeroChunks(*saved.bytes));

  pmem::PmemDevice broken(saved);
  std::memset(broken.raw(), 0xff, 64);  // primary superblock
  snap::ImageKey broken_key = key;
  broken_key.seed = 4;
  ASSERT_TRUE(corpus.Save(broken_key, broken.Snapshot()).ok());
  auto rejected = corpus.TryLoad(broken_key);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), ErrorCode::kCorrupt);
  fscore::FsckReport report;
  auto direct = snap::LoadCheckedImage(corpus.PathFor(broken_key), &report);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), ErrorCode::kCorrupt);
  EXPECT_FALSE(report.ok());
}

TEST(SnapCorpus, SweepChainBuildsOnceThenHits) {
  const std::string dir = TempPath("corpus_sweep");
  std::filesystem::remove_all(dir);
  snap::Corpus corpus(dir);
  std::vector<snap::ImageKey> keys;
  for (double util : {0.10, 0.20}) {
    snap::ImageKey key = TestKey("winefs", 64 * kMiB);
    key.utilization = util;
    keys.push_back(key);
  }
  int builds = 0;
  auto build = [&](const snap::Corpus::SaveStepFn& save_step) {
    builds++;
    for (size_t i = 0; i < keys.size(); i++) {
      save_step(i, MakeFsSnapshot("winefs", 64 * kMiB));
    }
    return common::OkStatus();
  };
  auto cold = corpus.LoadOrBuildSweep(keys, build);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(builds, 1);
  ASSERT_EQ(cold->size(), 2u);
  EXPECT_TRUE((*cold)[0].valid());

  auto warm = corpus.LoadOrBuildSweep(keys, build);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(builds, 1);  // every step served from disk
  EXPECT_EQ(corpus.stats().hits, 2u);
  EXPECT_EQ(*(*warm)[1].bytes, *(*cold)[1].bytes);
}

TEST(SnapCorpus, DisabledCorpusAlwaysBuilds) {
  snap::Corpus corpus{std::string()};
  EXPECT_FALSE(corpus.enabled());
  int builds = 0;
  auto build = [&]() -> common::Result<pmem::DeviceSnapshot> {
    builds++;
    return MakeFsSnapshot("winefs", 64 * kMiB);
  };
  ASSERT_TRUE(corpus.LoadOrBuild(TestKey("winefs", 64 * kMiB), build).ok());
  ASSERT_TRUE(corpus.LoadOrBuild(TestKey("winefs", 64 * kMiB), build).ok());
  EXPECT_EQ(builds, 2);
}

// Corpus reuse is unsound unless aging is a pure function of
// (profile, seed, config): same inputs must yield byte-identical images.
TEST(SnapDeterminism, AgingIsByteIdentical) {
  auto age_once = [](const std::string& fs_name) {
    pmem::PmemDevice dev(64 * kMiB);
    auto fs = fsreg::Create(fs_name, &dev, 4);
    ExecContext ctx;
    EXPECT_TRUE(fs->Mkfs(ctx).ok());
    aging::AgingConfig config;
    config.target_utilization = 0.40;
    config.write_multiplier = 1.0;
    config.seed = 11;
    aging::Geriatrix geriatrix(fs.get(), aging::Profile::Agrawal(11), config);
    EXPECT_TRUE(geriatrix.Run(ctx).ok());
    EXPECT_TRUE(fs->Unmount(ctx).ok());
    return snap::ContentHash(dev.Snapshot());
  };
  for (const char* fs_name : {"winefs", "ext4-dax", "nova"}) {
    SCOPED_TRACE(fs_name);
    const uint64_t h1 = age_once(fs_name);
    const uint64_t h2 = age_once(fs_name);
    EXPECT_EQ(h1, h2);
    EXPECT_NE(h1, 0u);
  }
}

// All six filesystems must remount cleanly from a loaded image and serve the
// data written before the snapshot.
class SnapRemountTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SnapRemountTest, RemountsFromLoadedImage) {
  const std::string fs_name = GetParam();
  const uint64_t device_bytes = 64 * kMiB;
  pmem::PmemDevice dev(device_bytes);
  auto fs = fsreg::Create(fs_name, &dev, 4);
  ExecContext ctx;
  ASSERT_TRUE(fs->Mkfs(ctx).ok());
  ASSERT_TRUE(fs->Mkdir(ctx, "/d").ok());
  std::vector<uint8_t> data(48 * 1024);
  for (size_t i = 0; i < data.size(); i++) {
    data[i] = static_cast<uint8_t>(i % 251);
  }
  auto fd = fs->Open(ctx, "/d/file", vfs::OpenFlags::Create());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs->Pwrite(ctx, *fd, data.data(), data.size(), 0).ok());
  ASSERT_TRUE(fs->Close(ctx, *fd).ok());
  ASSERT_TRUE(fs->Unmount(ctx).ok());

  const std::string path = TempPath("remount_" + fs_name + ".snap");
  ASSERT_TRUE(
      snap::SaveImage(path, dev.Snapshot(), snap::ImageKind::kFilesystem, "test;remount").ok());
  auto loaded = snap::LoadImage(path);
  ASSERT_TRUE(loaded.ok());

  pmem::PmemDevice fork(loaded->snapshot);
  auto fresh = fsreg::Create(fs_name, &fork, 4);
  ExecContext rctx;
  ASSERT_TRUE(fresh->Mount(rctx).ok());
  auto rfd = fresh->Open(rctx, "/d/file", vfs::OpenFlags::ReadOnly());
  ASSERT_TRUE(rfd.ok());
  std::vector<uint8_t> back(data.size());
  auto n = fresh->Pread(rctx, *rfd, back.data(), back.size(), 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, back.size());
  EXPECT_EQ(back, data);
}

INSTANTIATE_TEST_SUITE_P(Filesystems, SnapRemountTest,
                         ::testing::Values("winefs", "ext4-dax", "xfs-dax", "pmfs", "nova",
                                           "splitfs"),
                         [](const ::testing::TestParamInfo<std::string>& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// crashmk can archive explored crash states as replayable snapshots: the
// image on disk is the pre-recovery torn state, kind=kCrashState (fsck not
// required), and replaying it (fork + mount) reproduces a recoverable state.
TEST(SnapCrashArchive, ArchivedStatesReplay) {
  const std::string dir = TempPath("crash_archive");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  crashmk::Explorer::Config config;
  config.archive_dir = dir;
  config.archive_all = true;
  config.max_archives = 4;
  // Small-geometry WineFS that fits the explorer's 16 MiB device.
  auto factory = [](pmem::PmemDevice* device) -> std::unique_ptr<vfs::FileSystem> {
    winefs::WineFsOptions options;
    options.base.max_inodes = 1024;
    options.base.journal_blocks = 256;
    options.base.num_cpus = 2;
    return std::make_unique<winefs::WineFs>(device, options);
  };
  crashmk::Explorer explorer(factory, config);
  crashmk::Workload workload{{crashmk::CrashOp::Kind::kCreate, "/newfile", "", 0, 0}};
  const auto result = explorer.RunWorkload(workload);
  EXPECT_TRUE(result.ok()) << result.first_failure;
  ASSERT_GT(result.archived, 0u);
  ASSERT_EQ(result.archive_paths.size(), result.archived);

  for (const std::string& path : result.archive_paths) {
    SCOPED_TRACE(path);
    auto loaded = snap::LoadImage(path);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded->info.kind, snap::ImageKind::kCrashState);
    EXPECT_NE(loaded->info.provenance.find("crashmk;op=create /newfile"), std::string::npos);
    // The archive stored exactly the non-zero chunks of the crash image.
    EXPECT_EQ(loaded->snapshot.zero_chunks, RecountZeroChunks(*loaded->snapshot.bytes));
    // Replay: mount-time recovery must succeed on a fork of the torn image.
    pmem::PmemDevice fork(loaded->snapshot);
    auto fs = factory(&fork);
    ExecContext ctx;
    EXPECT_TRUE(fs->Mount(ctx).ok());
  }
}

// Full replay round-trip from the image file ALONE: a failing campaign
// archives its crash states with a provenance string that encodes the
// filesystem, the campaign geometry, and the recovered-state hash the
// original verdict saw. A later process (here: this test, via the same
// parsing snapctl's replay command uses) rebuilds the factory from those
// fields, COW-forks the torn image, mounts it, and must recover the exact
// same logical state.
TEST(SnapCrashArchive, ReplayFromProvenanceAloneReproducesVerdict) {
  const std::string dir = TempPath("crash_archive_replay");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  crashmk::CampaignConfig config;
  config.fs = "pmfs-delayed";  // the injected vulnerability: guaranteed failures
  config.prune = true;
  config.archive_dir = dir;
  config.max_archives = 4;
  auto campaign = crashmk::RunCampaign(config);
  ASSERT_TRUE(campaign.ok());
  ASSERT_FALSE(campaign->ok());
  ASSERT_GT(campaign->totals.archived, 0u);

  auto field = [](const std::string& provenance,
                  const std::string& key) -> std::string {
    const size_t at = provenance.find(key + "=");
    if (at == std::string::npos) {
      return "";
    }
    const size_t start = at + key.size() + 1;
    return provenance.substr(start, provenance.find(';', start) - start);
  };

  size_t replayed = 0;
  for (const std::string& path : campaign->totals.archive_paths) {
    SCOPED_TRACE(path);
    auto loaded = snap::LoadImage(path);
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(loaded->info.kind, snap::ImageKind::kCrashState);
    const std::string& provenance = loaded->info.provenance;
    const std::string rhash_hex = field(provenance, "rhash");
    if (rhash_hex.empty()) {
      continue;  // mount-failure archives carry no recovered-state hash
    }
    const uint64_t want_hash = std::strtoull(rhash_hex.c_str(), nullptr, 16);

    // Rebuild the campaign factory from provenance fields only.
    crashmk::CampaignConfig replay;
    replay.fs = field(provenance, "fs");
    replay.device_bytes = std::strtoull(field(provenance, "dev").c_str(), nullptr, 10);
    replay.max_inodes = std::strtoull(field(provenance, "mi").c_str(), nullptr, 10);
    replay.journal_blocks = std::strtoull(field(provenance, "jb").c_str(), nullptr, 10);
    replay.num_cpus = static_cast<uint32_t>(
        std::strtoul(field(provenance, "cpu").c_str(), nullptr, 10));
    ASSERT_EQ(replay.fs, "pmfs-delayed");
    ASSERT_EQ(replay.device_bytes, loaded->snapshot.bytes->size());

    pmem::PmemDevice fork(loaded->snapshot);
    auto fs = crashmk::MakeCampaignFactory(replay)(&fork);
    ASSERT_NE(fs, nullptr);
    ExecContext ctx;
    ASSERT_TRUE(fs->Mount(ctx).ok());
    const crashmk::Oracle recovered = crashmk::Oracle::Capture(ctx, *fs);
    EXPECT_EQ(recovered.StateHash(), want_hash);
    replayed++;
  }
  EXPECT_GT(replayed, 0u);
}

}  // namespace
