// meta_spine: Zipf-skewed metadata batches through ExecuteBatch on a fresh
// WineFS with a deep namespace of long component names.
//
// Setup builds the namespace (seeded names, depth 8) and snapshots it. The
// batches are generated once from the seed against a namespace model, so
// every op is expected to succeed and every stat size, pread byte and readdir
// count is known in advance. Each round forks the snapshot, mounts it and
// replays the same batches, checking every result against the model.
#include "lib/workload.h"
#include "src/common/rng.h"
#include "src/vfs/op_batch.h"

namespace perfbench {
namespace {

using common::ExecContext;
using common::kMiB;

constexpr const char* kFs = "winefs";
constexpr uint64_t kDeviceBytes = 64 * kMiB;
constexpr uint32_t kTopDirs = 4;
constexpr uint32_t kMidDirs = 4;  // leaf chains = kTopDirs * kMidDirs
constexpr uint32_t kChainDepth = 6;  // levels below the mid directory
constexpr uint32_t kFilesPerLeaf = 8;
constexpr uint64_t kFileBytes = 4096;
constexpr uint64_t kPreadBytes = 256;
constexpr uint64_t kAppendBytes = 512;
constexpr uint32_t kBatches = 1024;
constexpr size_t kBatchOps = 128;
constexpr double kZipfTheta = 0.99;

// What the namespace model expects one op's result to show.
struct Expect {
  enum Kind : uint8_t { kOk, kStat, kPread, kReadDir } kind = kOk;
  uint64_t a = 0;  // stat: size; pread: payload key; readdir: entry count
  uint64_t b = 0;  // pread: file offset
};

struct FileSlot {
  std::string path;
  uint32_t leaf = 0;
  uint64_t payload_key = 0;
  uint64_t size = 0;
};

struct Batch {
  vfs::OpBatch ops;
  std::vector<Expect> expect;
  std::vector<std::vector<uint8_t>> buffers;  // pread targets and append sources
};

// "/" plus a name of 36..53 characters (kMaxNameLen is 53): `tag`, `index`,
// a dash, then letters drawn from `rng`.
std::string Component(common::Rng& rng, const char* tag, uint64_t index) {
  const size_t length = 1 + 36 + rng.NextBelow(18);
  std::string name = std::string("/") + tag + std::to_string(index) + '-';
  while (name.size() < length) {
    name.push_back(static_cast<char>('a' + rng.NextBelow(26)));
  }
  return name;
}

std::vector<uint8_t> Payload(uint64_t key, uint64_t len) {
  std::vector<uint8_t> bytes(len);
  for (uint64_t i = 0; i < len; i++) {
    bytes[i] = PayloadByte(key, i);
  }
  return bytes;
}

class MetaSpine final : public Workload {
 public:
  explicit MetaSpine(uint64_t seed) : seed_(seed) {}

  common::Status Setup(SpanRecorder* spans) override {
    common::Rng rng(seed_ ^ 0x6d657461ull);
    auto bed = MakeFreshBed(kFs, kDeviceBytes, spans);
    if (!bed.ok()) {
      return bed.status();
    }
    bed->fs->set_recorder(spans);
    ExecContext& ctx = bed->bed.setup;
    for (uint32_t top = 0; top < kTopDirs; top++) {
      const std::string top_dir = Component(rng, "top", top);
      RETURN_IF_ERROR(bed->fs->Mkdir(ctx, top_dir));
      for (uint32_t mid = 0; mid < kMidDirs; mid++) {
        std::string dir = top_dir + Component(rng, "mid", mid);
        RETURN_IF_ERROR(bed->fs->Mkdir(ctx, dir));
        for (uint32_t level = 0; level < kChainDepth; level++) {
          dir += Component(rng, "lvl", level);
          RETURN_IF_ERROR(bed->fs->Mkdir(ctx, dir));
        }
        leaf_dirs_.push_back(dir);
      }
    }
    leaf_entries_.assign(leaf_dirs_.size(), 0);
    for (uint32_t leaf = 0; leaf < leaf_dirs_.size(); leaf++) {
      for (uint32_t f = 0; f < kFilesPerLeaf; f++) {
        FileSlot slot;
        slot.leaf = leaf;
        slot.path = leaf_dirs_[leaf] + Component(rng, "file", f);
        slot.payload_key = seed_ * 1000003 + next_key_++;
        slot.size = kFileBytes;
        auto fd = bed->fs->Open(ctx, slot.path, vfs::OpenFlags::CreateExcl());
        if (!fd.ok()) {
          return fd.status();
        }
        const std::vector<uint8_t> payload = Payload(slot.payload_key, kFileBytes);
        if (!bed->fs->Pwrite(ctx, *fd, payload.data(), kFileBytes, 0).ok()) {
          return common::Status(common::ErrorCode::kIoError);
        }
        RETURN_IF_ERROR(bed->fs->Close(ctx, *fd));
        leaf_entries_[leaf]++;
        slots_.push_back(std::move(slot));
      }
    }
    auto snapshot = UnmountAndSnapshot(*bed);
    if (!snapshot.ok()) {
      return snapshot.status();
    }
    base_ = std::move(snapshot.value());
    BuildBatches(rng);
    return common::OkStatus();
  }

  common::Result<RoundOutcome> RunRound(const Observers& observers) override {
    auto bed = ForkBed(kFs, base_, observers.spans);
    if (!bed.ok()) {
      return bed.status();
    }
    bed->fs->set_recorder(observers.spans);
    ExecContext ctx;
    ctx.clock.SetNs(bed->bed.setup.clock.NowNs());
    if (observers.profiler != nullptr) {
      ctx.AttachProfiler(observers.profiler);
    }
    RoundOutcome out;
    std::vector<vfs::OpResult> results;
    for (Batch& batch : batches_) {
      bed->fs->ExecuteBatch(ctx, batch.ops, results);
      out.ops += batch.ops.size();
      out.failed += Verify(batch, results);
    }
    // The decorator timed each batch around the wrapped filesystem's call.
    for (const BatchSample& sample : bed->fs->batches()) {
      out.host_ns += sample.host_ns;
      out.req_host_ns.push_back(sample.host_ns);
      out.req_sim_ns.push_back(sample.sim_ns);
      out.sim_ns += sample.sim_ns;
    }
    out.counters = ctx.counters;
    out.fs_stats = bed->fs->stats();
    ctx.AttachProfiler(nullptr);
    out.images_checked = 1;
    out.images_failed = UnmountAndCheck(*bed, ctx) ? 0 : 1;
    return out;
  }

  std::string Describe() const override {
    size_t ops = 0;
    for (const Batch& batch : batches_) {
      ops += batch.ops.size();
    }
    return "fs=" + std::string(kFs) + " files=" + std::to_string(slots_.size()) +
           " depth=" + std::to_string(kChainDepth + 3) + " batches=" +
           std::to_string(batches_.size()) + " ops_per_round=" + std::to_string(ops);
  }

 private:
  // Generates the round's batches against the namespace model. Ops in a batch
  // run in order, so the model advances op by op.
  void BuildBatches(common::Rng& rng) {
    common::ZipfGenerator zipf(slots_.size(), kZipfTheta, seed_ ^ 0x7a697066ull);
    uint64_t renamed = 0;
    batches_.resize(kBatches);
    for (Batch& batch : batches_) {
      batch.ops.Reserve(kBatchOps + 4);
      while (batch.ops.size() < kBatchOps) {
        FileSlot& slot = slots_[zipf.ScrambledNext()];
        const uint64_t dice = rng.NextBelow(100);
        if (dice < 70) {
          batch.ops.Stat(slot.path);
          batch.expect.push_back({Expect::kStat, slot.size, 0});
        } else if (dice < 84) {
          const size_t open = batch.ops.Open(slot.path, vfs::OpenFlags::ReadOnly());
          batch.ops.Close(vfs::FdRef::From(open));
          batch.expect.insert(batch.expect.end(), 2, Expect{});
        } else if (dice < 88 && slot.size >= kPreadBytes) {
          const uint64_t offset = rng.NextBelow(slot.size - kPreadBytes + 1);
          batch.buffers.emplace_back(kPreadBytes);
          const size_t open = batch.ops.Open(slot.path, vfs::OpenFlags::ReadOnly());
          batch.ops.Pread(vfs::FdRef::From(open), batch.buffers.back().data(), kPreadBytes,
                          offset);
          batch.ops.Close(vfs::FdRef::From(open));
          batch.expect.push_back({});
          batch.expect.push_back({Expect::kPread, slot.payload_key, offset});
          batch.expect.push_back({});
        } else if (dice < 91) {
          batch.ops.ReadDir(leaf_dirs_[slot.leaf]);
          batch.expect.push_back({Expect::kReadDir, leaf_entries_[slot.leaf], 0});
        } else if (dice < 94) {
          const uint32_t leaf = static_cast<uint32_t>(rng.NextBelow(leaf_dirs_.size()));
          std::string to = leaf_dirs_[leaf] + Component(rng, "moved", renamed++);
          batch.ops.Rename(slot.path, to);
          batch.expect.push_back({});
          leaf_entries_[slot.leaf]--;
          leaf_entries_[leaf]++;
          slot.path = std::move(to);
          slot.leaf = leaf;
        } else if (dice < 97) {
          // Replace: unlink the file and create a fresh one in its place.
          batch.ops.Unlink(slot.path);
          slot.path = leaf_dirs_[slot.leaf] + Component(rng, "new", renamed++);
          slot.payload_key = seed_ * 1000003 + next_key_++;
          slot.size = kAppendBytes;
          batch.buffers.push_back(Payload(slot.payload_key, kAppendBytes));
          const size_t open = batch.ops.Open(slot.path, vfs::OpenFlags::CreateExcl());
          batch.ops.Append(vfs::FdRef::From(open), batch.buffers.back().data(), kAppendBytes);
          batch.ops.Close(vfs::FdRef::From(open));
          batch.expect.insert(batch.expect.end(), 4, Expect{});
        } else {
          const size_t open = batch.ops.Open(slot.path, vfs::OpenFlags());
          batch.ops.Fsync(vfs::FdRef::From(open));
          batch.ops.Close(vfs::FdRef::From(open));
          batch.expect.insert(batch.expect.end(), 3, Expect{});
        }
      }
    }
  }

  // Returns the number of ops whose result disagrees with the model.
  static uint64_t Verify(const Batch& batch, const std::vector<vfs::OpResult>& results) {
    if (results.size() != batch.ops.size()) {
      return batch.ops.size();
    }
    uint64_t failed = 0;
    for (size_t i = 0; i < results.size(); i++) {
      const vfs::OpResult& r = results[i];
      const Expect& e = batch.expect[i];
      bool good = r.ok();
      if (good && e.kind == Expect::kStat) {
        good = r.stat.size == e.a && !r.stat.is_dir;
      } else if (good && e.kind == Expect::kPread) {
        const auto* bytes = static_cast<const uint8_t*>(batch.ops.ops()[i].dst);
        good = r.value == kPreadBytes;
        for (uint64_t j = 0; good && j < kPreadBytes; j++) {
          good = bytes[j] == PayloadByte(e.a, e.b + j);
        }
      } else if (good && e.kind == Expect::kReadDir) {
        good = r.entries.size() == e.a;
      }
      failed += good ? 0 : 1;
    }
    return failed;
  }

  uint64_t seed_;
  pmem::DeviceSnapshot base_;
  std::vector<std::string> leaf_dirs_;
  std::vector<uint64_t> leaf_entries_;
  std::vector<FileSlot> slots_;
  uint64_t next_key_ = 1;
  std::vector<Batch> batches_;
};

}  // namespace

std::unique_ptr<Workload> MakeMetaSpine(uint64_t seed) {
  return std::make_unique<MetaSpine>(seed);
}

}  // namespace perfbench
