// Batched-vs-scalar differential: a seeded ~100k-op mixed trace is replayed
// through FileSystem::ExecuteBatch (native fast paths where the filesystem
// has them) and through the reference scalar loop on a twin instance, on all
// six filesystems. After every batch the two instances must agree on every
// per-op status and value, on the simulated clock, and on every registered
// PerfCounter; at the end the whole namespace (recursive listing + stat of
// every node), all pread payloads and both device images must be
// bit-identical. This is the enforcement mechanism for the batched API's core
// invariant: native batching may only remove HOST work, never change modeled
// behavior. One shape of the trace builds depth-8 directory chains of 36-53
// character names (longer than std::string's inline buffer, like perfbench's
// meta_spine) and issues the path errors: a file used as a directory, an
// over-long component, repeated and trailing slashes, rename onto an existing
// file, and rmdir.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/fs/registry.h"
#include "src/vfs/op_batch.h"
#include "src/wload/parallel_runner.h"

namespace {

using common::ExecContext;
using common::kMiB;

constexpr size_t kTotalOps = 100000;
constexpr uint64_t kSeed = 7321;

// One pread destination: both instances read into `live`; the batched run's
// bytes are snapshotted into `from_batched` before the scalar run overwrites
// them.
struct PreadSlot {
  std::unique_ptr<uint8_t[]> live;
  std::unique_ptr<uint8_t[]> from_batched;
  uint64_t len = 0;
};

// Trace-generator state shared across batches. Paths/fds are updated from the
// batched instance's results AFTER asserting they equal the scalar results,
// so both instances always see the same op stream.
struct Model {
  std::vector<std::string> files;      // existing file paths
  std::vector<std::string> dirs;       // existing dir paths (excludes "/")
  std::vector<std::string> deep_dirs;  // every directory of the depth-8 chains
  std::vector<int> fds;                // raw fds open across batches (batched == scalar)
  uint32_t next_id = 0;

  // A 36..53 character name (kMaxNameLen is 53): `tag`, a fresh id, a dash,
  // then letters.
  std::string LongName(common::Rng& rng, const char* tag) {
    const size_t length = 36 + rng.NextInRange(0, 17);
    std::string name = tag + std::to_string(next_id++) + '-';
    while (name.size() < length) {
      name.push_back(static_cast<char>('a' + rng.NextInRange(0, 25)));
    }
    return name;
  }

  std::string PickFile(common::Rng& rng) const {
    return files[rng.NextInRange(0, files.size() - 1)];
  }
  std::string PickDirPrefix(common::Rng& rng) const {
    if (dirs.empty() || rng.NextInRange(0, 2) == 0) {
      return "";
    }
    return dirs[rng.NextInRange(0, dirs.size() - 1)];
  }
};

// Twin instances of one filesystem: `batched` runs ExecuteBatch, `scalar`
// the reference scalar loop.
struct Twins {
  explicit Twins(const std::string& fs_name)
      : batched(fsreg::Create(fs_name, &dev_batched)),
        scalar(fsreg::Create(fs_name, &dev_scalar)) {}

  pmem::PmemDevice dev_batched{256 * kMiB};
  pmem::PmemDevice dev_scalar{256 * kMiB};
  std::unique_ptr<vfs::FileSystem> batched;
  std::unique_ptr<vfs::FileSystem> scalar;
};

// Equal charges are not enough: the twins' device images must match byte for
// byte, so a batched path that writes a byte apart from its charge fails.
void ExpectSameImage(const pmem::PmemDevice& batched, const pmem::PmemDevice& scalar,
                     const std::string& fs_name) {
  ASSERT_EQ(batched.size(), scalar.size()) << fs_name;
  const uint8_t* b = batched.raw();
  const uint8_t* s = scalar.raw();
  if (std::memcmp(b, s, batched.size()) != 0) {
    ADD_FAILURE() << fs_name << ": device images differ, first at byte "
                  << std::mismatch(b, b + batched.size(), s).first - b;
  }
}

// Formats both twins, replays the seeded mixed trace on them, asserting after
// every batch that they agree, then sweeps and compares both namespaces.
// With `hold_fds`, some creates keep their descriptor open across batches and
// later writes, fsyncs and closes go through it. The trace also unlinks and
// renames over such files, and the filesystems free a removed file's inode at
// once, so a stale descriptor then writes into whatever node reuses the inode
// number; the twins must still agree op for op.
void ReplayMixedTrace(const std::string& fs_name, bool hold_fds, Twins& twins, Model& model) {
  vfs::FileSystem* fs_batched = twins.batched.get();
  vfs::FileSystem* fs_scalar = twins.scalar.get();
  ExecContext ctx_batched;
  ExecContext ctx_scalar;
  ASSERT_TRUE(fs_batched->Mkfs(ctx_batched).ok());
  ASSERT_TRUE(fs_scalar->Mkfs(ctx_scalar).ok());

  common::Rng rng(kSeed);
  std::vector<uint8_t> payload(8 * 1024);
  for (size_t i = 0; i < payload.size(); i++) {
    payload[i] = static_cast<uint8_t>(0x30 + i % 67);
  }

  size_t ops_issued = 0;
  size_t batches = 0;
  std::set<common::ErrorCode> error_codes;
  while (ops_issued < kTotalOps) {
    vfs::OpBatch batch;
    std::vector<PreadSlot> preads;
    // Indices (within this batch) of opens whose fd should stay open across
    // batches.
    std::vector<size_t> keep_open_ops;

    const size_t batch_ops = rng.NextInRange(1, 64);
    for (size_t k = 0; k < batch_ops && ops_issued < kTotalOps; k++, ops_issued++) {
      const uint64_t roll = rng.NextInRange(0, 109);
      if (roll >= 100) {
        // Deep, long-name shape.
        const std::string leaf_dir =
            model.deep_dirs.empty()
                ? ""
                : model.deep_dirs[rng.NextInRange(0, model.deep_dirs.size() - 1)];
        if (roll == 100 || model.deep_dirs.empty()) {
          if (model.deep_dirs.size() < 6 * 8) {
            // A depth-8 chain of long names, one mkdir per level.
            std::string dir;
            for (int level = 0; level < 8; level++) {
              dir += "/" + model.LongName(rng, "chain-level-");
              batch.Mkdir(dir);
              model.deep_dirs.push_back(dir);
            }
            k += 7;
            ops_issued += 7;
          } else {
            batch.Stat(leaf_dir);
          }
        } else if (roll < 104) {
          const std::string path = leaf_dir + "/" + model.LongName(rng, "deep-file-");
          const size_t open_idx = batch.Open(path, vfs::OpenFlags::Create());
          batch.Close(vfs::FdRef::From(open_idx));
          model.files.push_back(path);
          k++;
          ops_issued++;
        } else if (roll < 106) {
          // Path errors, plus non-canonical spellings of existing paths.
          const std::string file = model.PickFile(rng);
          switch (rng.NextInRange(0, 4)) {
            case 0:
              batch.Stat(file + "/" + model.LongName(rng, "under-a-file-"));  // kNotDir
              break;
            case 1:
              batch.Stat(leaf_dir + "/" + std::string(54, 'n'));  // kInvalidArgument
              break;
            case 2:
              batch.Stat("/" + file + "/");  // "//a/b/": the node "/a/b" names
              break;
            case 3: {
              std::string doubled;
              for (char c : file) {
                doubled += c == '/' ? "//" : std::string(1, c);
              }
              const size_t open_idx = batch.Open(doubled, vfs::OpenFlags::ReadOnly());
              batch.Close(vfs::FdRef::From(open_idx));
              k++;
              ops_issued++;
              break;
            }
            default:
              batch.Stat(leaf_dir + "/" + model.LongName(rng, "missing-"));  // kNotFound
              break;
          }
        } else if (roll < 108) {
          // Rename onto an existing file: the target's inode is released.
          const size_t from = rng.NextInRange(0, model.files.size() - 1);
          const size_t onto = rng.NextInRange(0, model.files.size() - 1);
          if (from == onto) {
            batch.Stat(model.files[from]);
          } else {
            batch.Rename(model.files[from], model.files[onto]);
            model.files[from] = model.files[onto];
            model.files.erase(model.files.begin() + static_cast<long>(onto));
          }
        } else {
          // rmdir: an empty directory made in this batch, then a non-empty
          // chain directory (kNotEmpty) and a file (kNotDir).
          const std::string empty = leaf_dir + "/" + model.LongName(rng, "empty-dir-");
          batch.Mkdir(empty);
          batch.Rmdir(empty);
          batch.Rmdir(model.deep_dirs[rng.NextInRange(0, 6)]);
          batch.Rmdir(model.PickFile(rng));
          k += 3;
          ops_issued += 3;
        }
      } else if (model.files.empty() || roll < 8) {
        // Create (+ occasionally leave open across batches).
        const std::string path =
            model.PickDirPrefix(rng) + "/file_" + std::to_string(model.next_id++);
        const size_t open_idx = batch.Open(path, vfs::OpenFlags::Create());
        if (rng.NextInRange(0, 4) == 0 && hold_fds && model.fds.size() < 24) {
          keep_open_ops.push_back(open_idx);
        } else {
          batch.Close(vfs::FdRef::From(open_idx));
          k++;
          ops_issued++;
        }
        model.files.push_back(path);
      } else if (roll < 12 && model.dirs.size() < 10) {
        const std::string path = "/dir_" + std::to_string(model.next_id++);
        batch.Mkdir(path);
        model.dirs.push_back(path);
      } else if (roll < 14) {
        // Error paths: stat of a missing file, malformed path, bad fd.
        const uint64_t which = rng.NextInRange(0, 2);
        if (which == 0) {
          batch.Stat("/no_such_" + std::to_string(rng.NextInRange(0, 999)));
        } else if (which == 1) {
          batch.Stat("relative/path");
        } else {
          batch.Fsync(vfs::FdRef(4000 + static_cast<int>(rng.NextInRange(0, 90))));
        }
      } else if (roll < 44) {
        batch.Stat(model.PickFile(rng));
      } else if (roll < 50) {
        batch.ReadDir(rng.NextInRange(0, 3) == 0 || model.dirs.empty()
                          ? "/"
                          : model.dirs[rng.NextInRange(0, model.dirs.size() - 1)]);
      } else if (roll < 64) {
        // Open + pread + close chain within the batch.
        const size_t open_idx = batch.Open(model.PickFile(rng), vfs::OpenFlags::ReadOnly());
        PreadSlot slot;
        slot.len = rng.NextInRange(1, 4096);
        slot.live = std::make_unique<uint8_t[]>(slot.len);
        slot.from_batched = std::make_unique<uint8_t[]>(slot.len);
        batch.Pread(vfs::FdRef::From(open_idx), slot.live.get(),
                    slot.len, rng.NextInRange(0, 32 * 1024));
        batch.Close(vfs::FdRef::From(open_idx));
        preads.push_back(std::move(slot));
        k += 2;
        ops_issued += 2;
      } else if (roll < 78) {
        // Write path: through a kept-open fd when available, else a chain.
        const uint64_t len = rng.NextInRange(1, payload.size());
        const uint64_t offset = rng.NextInRange(0, 64 * 1024);
        const bool append = rng.NextInRange(0, 2) == 0;
        const bool do_fsync = rng.NextInRange(0, 2) == 0;
        if (!model.fds.empty() && rng.NextInRange(0, 1) == 0) {
          const vfs::FdRef fd(model.fds[rng.NextInRange(0, model.fds.size() - 1)]);
          if (append) {
            batch.Append(fd, payload.data(), len);
          } else {
            batch.Pwrite(fd, payload.data(), len, offset);
          }
          if (do_fsync) {
            batch.Fsync(fd);
            k++;
            ops_issued++;
          }
        } else {
          const size_t open_idx = batch.Open(model.PickFile(rng), vfs::OpenFlags{});
          if (append) {
            batch.Append(vfs::FdRef::From(open_idx), payload.data(), len);
          } else {
            batch.Pwrite(vfs::FdRef::From(open_idx), payload.data(), len, offset);
          }
          if (do_fsync) {
            batch.Fsync(vfs::FdRef::From(open_idx));
            k++;
            ops_issued++;
          }
          batch.Close(vfs::FdRef::From(open_idx));
          k += 2;
          ops_issued += 2;
        }
      } else if (roll < 82) {
        const size_t open_idx = batch.Open(model.PickFile(rng), vfs::OpenFlags{});
        if (rng.NextInRange(0, 1) == 0) {
          batch.Ftruncate(vfs::FdRef::From(open_idx), rng.NextInRange(0, 96 * 1024));
        } else {
          batch.Fallocate(vfs::FdRef::From(open_idx), rng.NextInRange(0, 64 * 1024),
                          rng.NextInRange(1, 32 * 1024));
        }
        batch.Close(vfs::FdRef::From(open_idx));
        k += 2;
        ops_issued += 2;
      } else if (roll < 88) {
        // Rename to a fresh name (possibly into a directory).
        const size_t victim = rng.NextInRange(0, model.files.size() - 1);
        const std::string to =
            model.PickDirPrefix(rng) + "/ren_" + std::to_string(model.next_id++);
        batch.Rename(model.files[victim], to);
        model.files[victim] = to;
      } else if (roll < 94 && model.files.size() > 4) {
        const size_t victim = rng.NextInRange(0, model.files.size() - 1);
        batch.Unlink(model.files[victim]);
        model.files.erase(model.files.begin() + static_cast<long>(victim));
      } else if (roll < 97 && !model.fds.empty()) {
        const size_t victim = rng.NextInRange(0, model.fds.size() - 1);
        batch.Close(vfs::FdRef(model.fds[victim]));
        model.fds.erase(model.fds.begin() + static_cast<long>(victim));
      } else {
        // Open-truncate: exercises the scalar-fallback open arm.
        const size_t open_idx =
            batch.Open(model.PickFile(rng), vfs::OpenFlags(vfs::OpenFlags::kTrunc));
        batch.Close(vfs::FdRef::From(open_idx));
        k++;
        ops_issued++;
      }
    }

    // Batched (native where the FS has it) vs the reference scalar loop.
    std::vector<vfs::OpResult> res_batched;
    std::vector<vfs::OpResult> res_scalar;
    fs_batched->ExecuteBatch(ctx_batched, batch, res_batched);
    for (PreadSlot& slot : preads) {
      std::memcpy(slot.from_batched.get(), slot.live.get(), slot.len);
    }
    fs_scalar->ExecuteBatchScalar(ctx_scalar, batch, res_scalar);
    batches++;

    ASSERT_EQ(res_batched.size(), res_scalar.size());
    for (size_t i = 0; i < res_batched.size(); i++) {
      error_codes.insert(res_batched[i].status.code());
      ASSERT_EQ(res_batched[i].status.code(), res_scalar[i].status.code())
          << fs_name << ": batch " << batches << " op " << i << " ("
          << vfs::OpKindName(batch.ops()[i].kind) << ") status diverged";
      ASSERT_EQ(res_batched[i].value, res_scalar[i].value)
          << fs_name << ": batch " << batches << " op " << i << " ("
          << vfs::OpKindName(batch.ops()[i].kind) << ") value diverged";
      ASSERT_EQ(res_batched[i].stat.ino, res_scalar[i].stat.ino);
      ASSERT_EQ(res_batched[i].stat.size, res_scalar[i].stat.size);
      ASSERT_EQ(res_batched[i].stat.blocks, res_scalar[i].stat.blocks);
      ASSERT_EQ(res_batched[i].entries.size(), res_scalar[i].entries.size());
    }
    for (const PreadSlot& slot : preads) {
      ASSERT_EQ(0, std::memcmp(slot.from_batched.get(), slot.live.get(), slot.len))
          << fs_name << ": batch " << batches << " pread payload diverged";
    }

    // The invariant itself: identical modeled clock and counters every batch.
    ASSERT_EQ(ctx_batched.clock.NowNs(), ctx_scalar.clock.NowNs())
        << fs_name << ": sim clock diverged after batch " << batches;
    for (const common::CounterField& field : common::kCounterFields) {
      ASSERT_EQ(ctx_batched.counters.*field.member, ctx_scalar.counters.*field.member)
          << fs_name << ": counter " << field.name << " diverged after batch " << batches;
    }

    // Fold this batch's fd bookkeeping into the model.
    for (size_t open_idx : keep_open_ops) {
      if (res_batched[open_idx].ok()) {
        model.fds.push_back(static_cast<int>(res_batched[open_idx].value));
      }
    }
  }

  // Final namespace sweep on fresh contexts (the clocks above are already
  // compared; the sweep's own charges are not part of the trace).
  ExecContext sweep_batched;
  ExecContext sweep_scalar;
  std::vector<std::string> stack{"/"};
  size_t nodes_compared = 0;
  while (!stack.empty()) {
    const std::string dir = stack.back();
    stack.pop_back();
    auto list_b = fs_batched->ReadDir(sweep_batched, dir);
    auto list_s = fs_scalar->ReadDir(sweep_scalar, dir);
    ASSERT_TRUE(list_b.ok() && list_s.ok()) << fs_name << ": readdir " << dir;
    std::set<std::string> names_b;
    std::set<std::string> names_s;
    for (const auto& entry : *list_b) {
      names_b.insert(entry.name + (entry.is_dir ? "/" : ""));
    }
    for (const auto& entry : *list_s) {
      names_s.insert(entry.name + (entry.is_dir ? "/" : ""));
    }
    ASSERT_EQ(names_b, names_s) << fs_name << ": listing of " << dir;
    for (const auto& entry : *list_b) {
      const std::string path = (dir == "/" ? "/" : dir + "/") + entry.name;
      auto stat_b = fs_batched->Stat(sweep_batched, path);
      auto stat_s = fs_scalar->Stat(sweep_scalar, path);
      ASSERT_TRUE(stat_b.ok() && stat_s.ok()) << fs_name << ": stat " << path;
      ASSERT_EQ(stat_b->size, stat_s->size) << fs_name << ": size of " << path;
      ASSERT_EQ(stat_b->blocks, stat_s->blocks) << fs_name << ": blocks of " << path;
      ASSERT_EQ(stat_b->nlink, stat_s->nlink) << fs_name << ": nlink of " << path;
      nodes_compared++;
      if (entry.is_dir) {
        stack.push_back(path);
      }
    }
  }
  EXPECT_GT(nodes_compared, 0u);
  EXPECT_GT(model.deep_dirs.size(), 8u);
  ExpectSameImage(twins.dev_batched, twins.dev_scalar, fs_name);
  for (common::ErrorCode code :
       {common::ErrorCode::kNotDir, common::ErrorCode::kInvalidArgument,
        common::ErrorCode::kNotEmpty, common::ErrorCode::kNotFound}) {
    EXPECT_EQ(error_codes.count(code), 1u)
        << fs_name << ": the trace never produced error " << static_cast<int>(code);
  }
}

class OpBatchEquivalenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(OpBatchEquivalenceTest, MixedTraceBitIdentical) {
  Twins twins(GetParam());
  Model model;
  ReplayMixedTrace(GetParam(), /*hold_fds=*/true, twins, model);
}

// The trace without held descriptors, so no descriptor outlives its file.
// Then both twins are unmounted and mounted, and the walk runs over the
// directory links rebuilt from PM: every modeled path must stat as before.
// (A held descriptor would break this today: writing through a stale one
// into a reused directory inode overwrites its dirents on PM.)
TEST_P(OpBatchEquivalenceTest, RemountKeepsEveryPath) {
  const std::string fs_name = GetParam();
  Twins twins(fs_name);
  Model model;
  ReplayMixedTrace(fs_name, /*hold_fds=*/false, twins, model);
  if (HasFatalFailure()) {
    return;
  }
  ASSERT_TRUE(model.fds.empty());

  ExecContext ctx_batched;
  ExecContext ctx_scalar;
  std::vector<std::string> paths = model.files;
  paths.insert(paths.end(), model.dirs.begin(), model.dirs.end());
  paths.insert(paths.end(), model.deep_dirs.begin(), model.deep_dirs.end());
  std::vector<vfs::StatInfo> before;
  for (const std::string& path : paths) {
    auto stat = twins.batched->Stat(ctx_batched, path);
    ASSERT_TRUE(stat.ok()) << fs_name << ": stat " << path;
    before.push_back(*stat);
  }
  ASSERT_TRUE(twins.batched->Unmount(ctx_batched).ok());
  ASSERT_TRUE(twins.scalar->Unmount(ctx_scalar).ok());
  ASSERT_TRUE(twins.batched->Mount(ctx_batched).ok());
  ASSERT_TRUE(twins.scalar->Mount(ctx_scalar).ok());
  for (size_t i = 0; i < paths.size(); i++) {
    auto stat_b = twins.batched->Stat(ctx_batched, paths[i]);
    auto stat_s = twins.scalar->Stat(ctx_scalar, paths[i]);
    ASSERT_TRUE(stat_b.ok() && stat_s.ok()) << fs_name << ": stat after remount " << paths[i];
    for (const vfs::StatInfo& after : {*stat_b, *stat_s}) {
      ASSERT_EQ(after.ino, before[i].ino) << fs_name << ": ino of " << paths[i];
      ASSERT_EQ(after.size, before[i].size) << fs_name << ": size of " << paths[i];
      ASSERT_EQ(after.blocks, before[i].blocks) << fs_name << ": blocks of " << paths[i];
      ASSERT_EQ(after.nlink, before[i].nlink) << fs_name << ": nlink of " << paths[i];
      ASSERT_EQ(after.is_dir, before[i].is_dir) << fs_name << ": type of " << paths[i];
    }
  }
}

// Multi-threaded contention differential. The single-context trace above
// cannot see SimMutex/ResourceClock WATERMARK divergence: within one thread
// the clock is monotone past every lock it ever released, so AdvanceTo(own
// watermark) is always a no-op and a native path that shrinks a modeled
// critical section (e.g. by deferring a journal store's charge out of the
// journal-lock guard) still produces identical clocks. Under contention that
// same shift changes how long OTHER threads queue. This test runs the fig10
// metadata op (open/append x4/fsync/close/unlink, per thread in its own
// directory) under the deterministic ParallelRunner schedule on twin
// instances — batched dispatch on one, scalar virtuals on the other — and
// requires the aggregate simulated wall time and every counter to match
// bit-exactly.
TEST_P(OpBatchEquivalenceTest, MultiThreadedContentionBitIdentical) {
  const std::string fs_name = GetParam();
  // fig10's one-socket shape: more CPUs than threads, so per-CPU structures
  // (WineFS journal pools) are spread exactly as the bench spreads them, and
  // the cross-thread coupling runs through the genuinely shared pieces (VFS
  // shared-resource windows, colliding lock-table slots).
  constexpr uint32_t kThreads = 8;
  constexpr uint32_t kCpus = 4;
  constexpr uint64_t kOpsPerThread = 300;

  pmem::PmemDevice dev_batched(1024 * kMiB);
  pmem::PmemDevice dev_scalar(1024 * kMiB);
  auto fs_batched = fsreg::Create(fs_name, &dev_batched, kCpus);
  auto fs_scalar = fsreg::Create(fs_name, &dev_scalar, kCpus);

  std::vector<uint8_t> payload(4096, 0x3d);
  auto run = [&](vfs::FileSystem* fs, bool batched) -> wload::RunResult {
    ExecContext setup;
    EXPECT_TRUE(fs->Mkfs(setup).ok());
    for (uint32_t t = 0; t < kThreads; t++) {
      EXPECT_TRUE(fs->Mkdir(setup, "/t" + std::to_string(t)).ok());
    }
    auto op = [&](uint32_t tid, uint64_t i, ExecContext& ctx) -> bool {
      const std::string path = "/t" + std::to_string(tid) + "/f" + std::to_string(i);
      if (batched) {
        vfs::OpBatch batch;
        const size_t open_index = batch.Open(path, vfs::OpenFlags::Create());
        for (int a = 0; a < 4; a++) {
          batch.Append(vfs::FdRef::From(open_index), payload.data(), payload.size());
        }
        batch.Fsync(vfs::FdRef::From(open_index));
        batch.Close(vfs::FdRef::From(open_index));
        batch.Unlink(path);
        std::vector<vfs::OpResult> results;
        fs->ExecuteBatch(ctx, batch, results);
        for (const vfs::OpResult& r : results) {
          if (!r.ok()) {
            return false;
          }
        }
        return true;
      }
      auto fd = fs->Open(ctx, path, vfs::OpenFlags::Create());
      if (!fd.ok()) {
        return false;
      }
      for (int a = 0; a < 4; a++) {
        if (!fs->Append(ctx, *fd, payload.data(), payload.size()).ok()) {
          return false;
        }
      }
      if (!fs->Fsync(ctx, *fd).ok()) {
        return false;
      }
      if (!fs->Close(ctx, *fd).ok()) {
        return false;
      }
      return fs->Unlink(ctx, path).ok();
    };
    wload::ParallelRunner runner(kThreads, kCpus, setup.clock.NowNs());
    return runner.Run(kOpsPerThread, op).run;
  };

  const wload::RunResult batched = run(fs_batched.get(), /*batched=*/true);
  const wload::RunResult scalar = run(fs_scalar.get(), /*batched=*/false);
  ASSERT_EQ(batched.total_ops, kThreads * kOpsPerThread) << fs_name;
  ASSERT_EQ(batched.total_ops, scalar.total_ops) << fs_name;
  ASSERT_EQ(batched.wall_ns, scalar.wall_ns)
      << fs_name << ": simulated wall time diverged under contention";
  for (const common::CounterField& field : common::kCounterFields) {
    ASSERT_EQ(batched.counters.*field.member, scalar.counters.*field.member)
        << fs_name << ": counter " << field.name << " diverged under contention";
  }
  ExpectSameImage(dev_batched, dev_scalar, fs_name);
}

INSTANTIATE_TEST_SUITE_P(Filesystems, OpBatchEquivalenceTest,
                         ::testing::Values("winefs", "ext4-dax", "xfs-dax", "pmfs",
                                           "nova", "splitfs"),
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

