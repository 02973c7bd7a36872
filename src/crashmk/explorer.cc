#include "src/crashmk/explorer.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "src/common/units.h"
#include "src/pmem/fault_injector.h"
#include "src/snap/image.h"
#include "src/vfs/op_batch.h"

namespace crashmk {

using common::ExecContext;
using common::Status;

std::string CrashOp::Describe() const {
  std::ostringstream out;
  switch (kind) {
    case Kind::kCreate:
      out << "create " << path;
      break;
    case Kind::kAppend:
      out << "append " << path << " len=" << len;
      break;
    case Kind::kPwrite:
      out << "pwrite " << path << " off=" << offset << " len=" << len;
      break;
    case Kind::kUnlink:
      out << "unlink " << path;
      break;
    case Kind::kMkdir:
      out << "mkdir " << path;
      break;
    case Kind::kRmdir:
      out << "rmdir " << path;
      break;
    case Kind::kRename:
      out << "rename " << path << " -> " << path2;
      break;
    case Kind::kTruncate:
      out << "truncate " << path << " size=" << len;
      break;
    case Kind::kFallocate:
      out << "fallocate " << path << " off=" << offset << " len=" << len;
      break;
  }
  return out.str();
}

Status Explorer::ApplyOp(ExecContext& ctx, vfs::FileSystem& fs, const CrashOp& op) {
  std::vector<uint8_t> payload(op.len, 0xc7);
  for (size_t i = 0; i < payload.size(); i++) {
    payload[i] = static_cast<uint8_t>(0x40 + (i % 61));
  }
  // Each op runs as one fd-chained batch through ExecuteBatch, the entry
  // point the benches drive: a create is open + close, and a data op opens
  // the file, acts on the batch's descriptor and closes it.
  vfs::OpBatch batch;
  const auto open = [&](vfs::OpenFlags flags) {
    return vfs::FdRef::From(batch.Open(op.path, flags));
  };
  switch (op.kind) {
    case CrashOp::Kind::kCreate:
      batch.Close(open(vfs::OpenFlags::CreateExcl()));
      break;
    case CrashOp::Kind::kAppend: {
      const vfs::FdRef fd = open(vfs::OpenFlags{});
      batch.Append(fd, payload.data(), payload.size());
      batch.Close(fd);
      break;
    }
    case CrashOp::Kind::kPwrite: {
      const vfs::FdRef fd = open(vfs::OpenFlags{});
      batch.Pwrite(fd, payload.data(), payload.size(), op.offset);
      batch.Close(fd);
      break;
    }
    case CrashOp::Kind::kUnlink:
      batch.Unlink(op.path);
      break;
    case CrashOp::Kind::kMkdir:
      batch.Mkdir(op.path);
      break;
    case CrashOp::Kind::kRmdir:
      batch.Rmdir(op.path);
      break;
    case CrashOp::Kind::kRename:
      batch.Rename(op.path, op.path2);
      break;
    case CrashOp::Kind::kTruncate: {
      const vfs::FdRef fd = open(vfs::OpenFlags{});
      batch.Ftruncate(fd, op.len);
      batch.Close(fd);
      break;
    }
    case CrashOp::Kind::kFallocate: {
      const vfs::FdRef fd = open(vfs::OpenFlags{});
      batch.Fallocate(fd, op.offset, op.len);
      batch.Close(fd);
      break;
    }
  }
  std::vector<vfs::OpResult> results;
  fs.ExecuteBatch(ctx, batch, results);
  for (const vfs::OpResult& result : results) {
    if (!result.ok()) {
      return result.status;
    }
  }
  return common::OkStatus();
}

namespace {

std::string HexU64(uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; i--) {
    out[i] = digits[value & 0xf];
    value >>= 4;
  }
  return out;
}

}  // namespace

ExploreResult Explorer::RunWorkload(const Workload& workload) {
  ExploreResult result;

  const bool seeded = config_.seed_image.valid();
  pmem::PmemDevice device =
      seeded ? pmem::PmemDevice(config_.seed_image) : pmem::PmemDevice(config_.device_bytes);
  const uint64_t dev_bytes = device.size();
  auto fs = factory_(&device);
  ExecContext ctx;
  const Status init = seeded ? fs->Mount(ctx) : fs->Mkfs(ctx);
  if (!init.ok()) {
    result.mount_failures++;
    result.first_failure = seeded ? "seed image mount failed" : "mkfs failed";
    return result;
  }

  // Standard ACE fixture (laid on top of the aged image when seeded; the
  // fixture paths are root-level, the aging workload populates /d<k>/...).
  auto seed_file = [&](const std::string& path, uint64_t size) {
    auto fd = fs->Open(ctx, path, vfs::OpenFlags::Create());
    std::vector<uint8_t> data(size, 0x11);
    if (size > 0) {
      (void)fs->Pwrite(ctx, *fd, data.data(), data.size(), 0);
    }
    (void)fs->Close(ctx, *fd);
  };
  seed_file("/A", 9000);
  seed_file("/B", 3000);
  (void)fs->Mkdir(ctx, "/D");
  seed_file("/D/C", 500);

  device.EnableCrashTracking();
  pmem::FaultInjector torn_injector(pmem::FaultPlan{.seed = config_.torn_seed});

  std::shared_ptr<StateCache> cache =
      config_.cache != nullptr ? config_.cache : std::make_shared<StateCache>();

  // One crash device reused across all states; the poison injector (if any)
  // rides on it so every crash mount sees the plan's corrupted media blocks.
  pmem::PmemDevice crash_dev(dev_bytes, device.cost(), device.numa_nodes());
  pmem::FaultInjector poison_injector(pmem::FaultPlan{.seed = config_.poison_seed});
  if (!config_.poison_ranges.empty()) {
    crash_dev.AttachFaultInjector(&poison_injector);
  }

  for (const CrashOp& op : workload) {
    const Oracle pre = Oracle::Capture(ctx, *fs);
    const std::vector<uint8_t> image_at_op_start = device.PersistentImage();
    const uint64_t op_hash = snap::Fnv1a(image_at_op_start.data(), image_at_op_start.size());

    device.BeginEpochRecording();
    const Status op_status = ApplyOp(ctx, *fs, op);
    auto epochs = device.TakeEpochLog();
    if (!op_status.ok()) {
      result.first_failure = "op failed live: " + op.Describe();
      result.oracle_failures++;
      return result;
    }
    if (config_.terminal_epoch) {
      // Lines still in flight when the op returned: a synchronous filesystem
      // drained everything at its last fence, but delayed metadata
      // accumulates here — without this pseudo-epoch those crash states
      // (the widened vulnerability window) would never be enumerated.
      std::vector<pmem::PendingLine> leftover = device.PendingLines();
      if (!leftover.empty()) {
        epochs.push_back(pmem::PmemDevice::PersistEpoch{{}, std::move(leftover)});
      }
    }
    const Oracle post = Oracle::Capture(ctx, *fs);
    result.ops_executed++;

    // Enumerate crash states. `base` is the persistent image at the current
    // fence boundary; base_key its equivalence key relative to op start.
    std::vector<uint8_t> base = image_at_op_start;
    uint64_t base_key = op_hash;

    // Equivalence term of one cacheline: 0 when its content equals the
    // op-start image (so untouched lines never perturb the key), otherwise a
    // hash of (offset, content). Keys compose by XOR: key(img) = op_hash XOR
    // the terms of every differing line, which makes the key of any candidate
    // computable from enumeration deltas without building the image.
    auto line_term = [&](uint64_t off, const uint8_t* content) -> uint64_t {
      if (std::memcmp(content, image_at_op_start.data() + off, common::kCacheline) == 0) {
        return 0;
      }
      uint64_t h = snap::Fnv1a(reinterpret_cast<const uint8_t*>(&off), sizeof(off));
      return snap::Fnv1a(content, common::kCacheline, h);
    };
    auto base_term = [&](uint64_t off) { return line_term(off, base.data() + off); };

    auto apply_lines = [](std::vector<uint8_t>& img, const std::vector<pmem::PendingLine>& lines,
                          uint64_t subset_mask) {
      for (size_t i = 0; i < lines.size(); i++) {
        if (subset_mask & (1ull << i)) {
          std::memcpy(img.data() + lines[i].line_offset, lines[i].data, common::kCacheline);
        }
      }
    };

    // Archives the pre-recovery torn image (`img`, not crash_dev — mount-time
    // recovery has already rewritten the device by verdict time) as a
    // replayable snapshot. Replay = fork the snapshot, mount, re-judge.
    auto archive_state = [&](const std::vector<uint8_t>& img, const char* verdict,
                             const std::string& extra) {
      if (config_.archive_dir.empty() || result.archived >= config_.max_archives) {
        return;
      }
      const pmem::DeviceSnapshot snap =
          pmem::MakeSnapshot(img, device.cost(), device.numa_nodes());
      std::string provenance = "crashmk;";
      if (!config_.provenance_tag.empty()) {
        provenance += config_.provenance_tag + ";";
      }
      provenance += "op=" + op.Describe() + ";state=" + std::to_string(result.crash_states) +
                    ";verdict=" + verdict + extra;
      const std::string path = config_.archive_dir + "/crash-" +
                               std::to_string(result.archived) + "-" + verdict + ".snap";
      if (snap::SaveImage(path, snap, snap::ImageKind::kCrashState, provenance).ok()) {
        result.archived++;
        result.archive_paths.push_back(path);
      }
    };

    // Judges one candidate crash state given its equivalence key and a lazy
    // image builder. With pruning on, already-seen classes skip both the
    // image materialization and the mount + oracle replay.
    auto judge_state = [&](uint64_t key,
                           const std::function<std::vector<uint8_t>()>& build) {
      result.crash_states++;
      const bool fresh = cache->Claim(key);
      if (fresh) {
        result.distinct_images++;
      }
      if (!fresh && config_.prune) {
        result.pruned_replays++;
        return;
      }
      result.oracle_replays++;
      const std::vector<uint8_t> img = build();
      for (const auto& [poison_off, poison_len] : config_.poison_ranges) {
        poison_injector.PoisonRange(poison_off, poison_len);
      }
      crash_dev.RestoreImage(img);
      auto crash_fs = factory_(&crash_dev);
      ExecContext rctx;
      const Status mount_status = crash_fs->Mount(rctx);
      if (!mount_status.ok()) {
        if (!config_.poison_ranges.empty() &&
            mount_status.code() == common::ErrorCode::kIoError) {
          // Refuse-when-dirty policy hit the poisoned journal: the
          // corruption was detected, not silently absorbed.
          result.refused_mounts++;
          return;
        }
        result.mount_failures++;
        if (result.first_failure.empty()) {
          result.first_failure = "mount failed after crash in: " + op.Describe();
        }
        archive_state(img, "mountfail", "");
        return;
      }
      const Oracle recovered = Oracle::Capture(rctx, *crash_fs);
      const uint64_t recovered_hash = recovered.StateHash();
      if (config_.collect_state_hashes) {
        result.recovered_state_hashes.insert(recovered_hash);
      }
      if (!(recovered == pre) && !(recovered == post)) {
        result.oracle_failures++;
        if (result.first_failure.empty()) {
          result.first_failure = "inconsistent state after crash in: " + op.Describe() +
                                 "\n--- vs pre ---\n" + recovered.DiffAgainst(pre) +
                                 "--- vs post ---\n" + recovered.DiffAgainst(post);
        }
        archive_state(img, "inconsistent", ";rhash=" + HexU64(recovered_hash));
      } else if (config_.archive_all) {
        archive_state(img, "ok", ";rhash=" + HexU64(recovered_hash));
      }
    };

    for (const auto& epoch : epochs) {
      // Crash before this fence completed: any subset of the lines that were
      // eligible to persist here (the fenced batch plus the unflushed ones).
      std::vector<pmem::PendingLine> eligible = epoch.persisted;
      eligible.insert(eligible.end(), epoch.in_flight_after.begin(),
                      epoch.in_flight_after.end());
      // Per-line key deltas vs the current base. Line offsets are unique
      // within one fence (the device dedups pending lines by offset), so
      // subset keys compose by XOR of the chosen deltas.
      std::vector<uint64_t> delta(eligible.size());
      for (size_t i = 0; i < eligible.size(); i++) {
        delta[i] = base_term(eligible[i].line_offset) ^
                   line_term(eligible[i].line_offset, eligible[i].data);
      }
      if (eligible.size() <= config_.max_subset_bits) {
        const uint64_t combos = 1ull << eligible.size();
        for (uint64_t mask = 0; mask < combos; mask++) {
          uint64_t key = base_key;
          for (size_t i = 0; i < eligible.size(); i++) {
            if (mask & (1ull << i)) {
              key ^= delta[i];
            }
          }
          judge_state(key, [&]() {
            std::vector<uint8_t> img = base;
            apply_lines(img, eligible, mask);
            return img;
          });
        }
      } else {
        // Too many in-flight lines for exhaustive subsets (bulk zeroing or
        // data-journal blobs): check the boundary state plus an even sample
        // of single-line and prefix states.
        judge_state(base_key, [&]() { return base; });
        constexpr size_t kMaxSampled = 96;
        const size_t stride = std::max<size_t>(1, eligible.size() / kMaxSampled);
        for (size_t i = 0; i < eligible.size(); i += stride) {
          // The image applies exactly the prefix 0..i, and the key is the
          // XOR of the prefix's deltas.
          uint64_t key = base_key;
          for (size_t p = 0; p <= i; p++) {
            key ^= delta[p];
          }
          judge_state(key, [&]() {
            std::vector<uint8_t> img = base;
            for (size_t p = 0; p <= i; p++) {
              std::memcpy(img.data() + eligible[p].line_offset, eligible[p].data,
                          common::kCacheline);
            }
            return img;
          });
        }
      }
      // Torn-store composition: pick lines across the epoch (even stride),
      // persist the seq-ordered prefix before each fully, then apply only a
      // subset of the chosen line's 8-byte lanes. Masks are derived from the
      // line's store sequence number, so a failing state reproduces exactly
      // from {torn_seed, workload}.
      if (config_.torn_writes && !eligible.empty()) {
        std::vector<pmem::PendingLine> by_seq = eligible;
        std::sort(by_seq.begin(), by_seq.end(),
                  [](const pmem::PendingLine& a, const pmem::PendingLine& b) {
                    return a.seq < b.seq;
                  });
        std::vector<uint64_t> bdelta(by_seq.size());
        for (size_t i = 0; i < by_seq.size(); i++) {
          bdelta[i] = base_term(by_seq[i].line_offset) ^
                      line_term(by_seq[i].line_offset, by_seq[i].data);
        }
        const size_t stride = std::max<size_t>(
            1, by_seq.size() / std::max<uint32_t>(1, config_.max_torn_lines_per_epoch));
        for (size_t i = 0; i < by_seq.size(); i += stride) {
          uint64_t prefix_key = base_key;
          for (size_t p = 0; p < i; p++) {
            prefix_key ^= bdelta[p];
          }
          // Lanes whose stored bytes actually differ from the base bound the
          // image classes torn masks can produce: 2^k for k differing lanes.
          uint32_t differing_lanes = 0;
          for (uint32_t lane = 0; lane < pmem::kLanesPerLine; lane++) {
            if (std::memcmp(base.data() + by_seq[i].line_offset + lane * pmem::kLaneBytes,
                            by_seq[i].data + lane * pmem::kLaneBytes,
                            pmem::kLaneBytes) != 0) {
              differing_lanes++;
            }
          }
          std::vector<uint8_t> masks;
          if (config_.torn_exhaustive_lanes && differing_lanes <= 4) {
            // All 255 non-empty masks collapse into at most 16 classes —
            // affordable to replay, so enumerate the lot and let pruning
            // dedup. High-entropy lines (journal entries: every lane differs)
            // would turn 255 states into 255 replays; those keep the sample.
            masks.reserve(255);
            for (uint32_t m = 1; m <= 255; m++) {
              masks.push_back(static_cast<uint8_t>(m));
            }
          } else {
            masks =
                torn_injector.TornLaneMasks(by_seq[i].seq, config_.max_torn_variants_per_line);
          }
          for (const uint8_t mask : masks) {
            // Compose the torn line to key it: base content with the chosen
            // lanes overlaid.
            uint8_t torn[common::kCacheline];
            std::memcpy(torn, base.data() + by_seq[i].line_offset, common::kCacheline);
            for (uint32_t lane = 0; lane < pmem::kLanesPerLine; lane++) {
              if (mask & (1u << lane)) {
                std::memcpy(torn + lane * pmem::kLaneBytes,
                            by_seq[i].data + lane * pmem::kLaneBytes, pmem::kLaneBytes);
              }
            }
            const uint64_t key = prefix_key ^ base_term(by_seq[i].line_offset) ^
                                 line_term(by_seq[i].line_offset, torn);
            judge_state(key, [&]() {
              std::vector<uint8_t> img = base;
              for (size_t p = 0; p < i; p++) {
                std::memcpy(img.data() + by_seq[p].line_offset, by_seq[p].data,
                            common::kCacheline);
              }
              std::memcpy(img.data() + by_seq[i].line_offset, torn, common::kCacheline);
              return img;
            });
          }
        }
      }
      // Advance the base image past this fence: everything it persisted.
      // (Update the key before overwriting the bytes the old term hashes.)
      for (const pmem::PendingLine& line : epoch.persisted) {
        base_key ^= base_term(line.line_offset) ^ line_term(line.line_offset, line.data);
        std::memcpy(base.data() + line.line_offset, line.data, common::kCacheline);
      }
    }
  }
  return result;
}

std::vector<Workload> Explorer::GenerateAceWorkloads(bool include_data_ops) {
  using K = CrashOp::Kind;
  std::vector<Workload> out;
  auto add = [&](std::initializer_list<CrashOp> ops) { out.push_back(Workload(ops)); };

  // seq-1: every metadata operation on the fixture.
  add({{K::kCreate, "/new", "", 0, 0}});
  add({{K::kCreate, "/D/new", "", 0, 0}});
  add({{K::kMkdir, "/E", "", 0, 0}});
  add({{K::kMkdir, "/D/sub", "", 0, 0}});
  add({{K::kUnlink, "/A", "", 0, 0}});
  add({{K::kUnlink, "/D/C", "", 0, 0}});
  add({{K::kRename, "/A", "/A2", 0, 0}});
  add({{K::kRename, "/A", "/B", 0, 0}});      // overwrite
  add({{K::kRename, "/D/C", "/C2", 0, 0}});   // cross-directory
  add({{K::kTruncate, "/A", "", 0, 100}});    // shrink
  add({{K::kTruncate, "/A", "", 0, 50000}});  // sparse grow
  add({{K::kFallocate, "/B", "", 0, 65536}});

  // seq-2: dependent chains.
  add({{K::kCreate, "/new", "", 0, 0}, {K::kRename, "/new", "/new2", 0, 0}});
  add({{K::kCreate, "/new", "", 0, 0}, {K::kUnlink, "/new", "", 0, 0}});
  add({{K::kMkdir, "/E", "", 0, 0}, {K::kCreate, "/E/f", "", 0, 0}});
  add({{K::kUnlink, "/D/C", "", 0, 0}, {K::kRmdir, "/D", "", 0, 0}});
  add({{K::kRename, "/A", "/A2", 0, 0}, {K::kCreate, "/A", "", 0, 0}});

  if (include_data_ops) {
    add({{K::kAppend, "/A", "", 0, 100}});
    add({{K::kAppend, "/A", "", 0, 4096}});
    add({{K::kAppend, "/A", "", 0, 20000}});
    add({{K::kPwrite, "/A", "", 0, 64}});
    add({{K::kPwrite, "/A", "", 4000, 8192}});  // straddles blocks
    add({{K::kCreate, "/new", "", 0, 0}, {K::kAppend, "/new", "", 0, 3000}});
    add({{K::kAppend, "/A", "", 0, 1000}, {K::kTruncate, "/A", "", 0, 500}});
  }
  return out;
}

}  // namespace crashmk
