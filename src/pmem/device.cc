#include "src/pmem/device.h"

#include <algorithm>
#include <cassert>

#include "src/common/prof_zone.h"

namespace pmem {

using common::kCacheline;

namespace {

// Scans a word at a time; a chunk holding data usually exits on its first
// words, so only all-zero chunks are read in full.
bool AllZero(const uint8_t* data, uint64_t len) {
  uint64_t i = 0;
  for (; i + sizeof(uint64_t) <= len; i += sizeof(uint64_t)) {
    uint64_t word = 0;
    std::memcpy(&word, data + i, sizeof(word));
    if (word != 0) {
      return false;
    }
  }
  for (; i < len; i++) {
    if (data[i] != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

DeviceSnapshot MakeSnapshot(std::vector<uint8_t> bytes, const CostModel& model,
                            uint32_t numa_nodes) {
  DeviceSnapshot snap;
  const uint64_t chunks = ChunkCount(bytes.size());
  snap.zero_chunks.resize(chunks);
  for (uint64_t c = 0; c < chunks; c++) {
    const uint64_t off = c * kSnapChunkBytes;
    snap.zero_chunks[c] =
        AllZero(bytes.data() + off, std::min<uint64_t>(kSnapChunkBytes, bytes.size() - off));
  }
  snap.bytes = std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
  snap.model = model;
  snap.numa_nodes = numa_nodes;
  return snap;
}

PmemDevice::PmemDevice(uint64_t size_bytes, CostModel model, uint32_t numa_nodes)
    : size_(size_bytes),
      data_(size_bytes, 0),
      model_(model),
      numa_nodes_(numa_nodes == 0 ? 1 : numa_nodes) {}

PmemDevice::PmemDevice(std::vector<uint8_t>&& bytes, CostModel model, uint32_t numa_nodes)
    : size_(bytes.size()),
      data_(std::move(bytes)),
      model_(model),
      numa_nodes_(numa_nodes == 0 ? 1 : numa_nodes) {}

PmemDevice::PmemDevice(const DeviceSnapshot& base)
    : size_(base.size()),
      data_(base.size(), 0),
      model_(base.model),
      numa_nodes_(base.numa_nodes == 0 ? 1 : base.numa_nodes) {
  assert(base.valid());
  ForkFrom(base);
}

void PmemDevice::ForkFrom(const DeviceSnapshot& base) {
  const uint64_t chunks = ChunkCount(size_);
  cow_present_.assign(chunks, false);
  cow_pending_ = chunks;
  if (chunks != 0) {
    cow_base_ = base;
    cow_active_.store(true, std::memory_order_release);
  }
}

void PmemDevice::EndFork() {
  cow_base_ = DeviceSnapshot{};
  cow_present_.clear();
  cow_pending_ = 0;
  cow_active_.store(false, std::memory_order_release);
}

void PmemDevice::MaterializeRange(uint64_t offset, uint64_t len) {
  assert(offset + len <= size_);
  std::lock_guard<std::mutex> guard(cow_fork_mu_);
  if (!cow_base_.valid()) {
    return;  // raced with the final materialization
  }
  if (data_.empty()) {
    data_.assign(size_, 0);  // this device gave its buffer to a snapshot
  }
  const uint64_t first = offset / kSnapChunkBytes;
  const uint64_t last = (offset + len - 1) / kSnapChunkBytes;
  const uint8_t* base = cow_base_.bytes->data();
  for (uint64_t c = first; c <= last; c++) {
    if (cow_present_[c]) {
      continue;
    }
    // The buffer is zero-filled, so a zero chunk is materialized already.
    if (!cow_base_.ChunkIsZero(c)) {
      const uint64_t chunk_off = c * kSnapChunkBytes;
      const uint64_t chunk_len = std::min<uint64_t>(kSnapChunkBytes, size_ - chunk_off);
      std::memcpy(data_.data() + chunk_off, base + chunk_off, chunk_len);
    }
    cow_present_[c] = true;
    cow_chunks_copied_++;
    cow_pending_--;
  }
  if (cow_pending_ == 0) {
    EndFork();
  }
}

void PmemDevice::MaterializeAll() {
  if (is_cow_fork() && size_ > 0) {
    MaterializeRange(0, size_);
  }
}

DeviceSnapshot PmemDevice::Snapshot() {
  if (is_cow_fork() && cow_pending_ == cow_present_.size()) {
    return cow_base_;  // nothing materialized: the base is this device's image
  }
  MaterializeAll();
  DeviceSnapshot snap = MakeSnapshot(std::move(data_), model_, numa_nodes_);
  data_ = std::vector<uint8_t>();
  ForkFrom(snap);
  return snap;
}

uint32_t PmemDevice::NumaNodeOf(uint64_t offset) const {
  const uint64_t region = size_ / numa_nodes_;
  if (region == 0) {
    return 0;
  }
  return static_cast<uint32_t>(std::min<uint64_t>(offset / region, numa_nodes_ - 1));
}

void PmemDevice::RecordStore(uint64_t offset, uint64_t len, bool flushed) {
  if (!crash_tracking_) {
    return;
  }
  std::lock_guard<std::mutex> guard(crash_mu_);
  const uint64_t first = common::RoundDown(offset, kCacheline);
  const uint64_t last = common::RoundDown(offset + len - 1, kCacheline);
  for (uint64_t line = first; line <= last; line += kCacheline) {
    auto it = pending_index_.find(line);
    size_t idx;
    if (it == pending_index_.end()) {
      idx = pending_.size();
      pending_.push_back(PendingLine{});
      pending_index_[line] = idx;
    } else {
      idx = it->second;
    }
    PendingLine& pl = pending_[idx];
    pl.line_offset = line;
    pl.flushed = flushed;
    pl.seq = next_seq_++;
    std::memcpy(pl.data, data_.data() + line, kCacheline);
  }
}

void PmemDevice::ChargeFaultDelay(common::ExecContext& ctx) {
  if (injector_ == nullptr) {
    return;
  }
  const uint64_t extra = injector_->AccessDelayNs();
  if (extra != 0) {
    ctx.clock.Advance(extra);
    ctx.counters.pm_latency_spikes++;
  }
}

void PmemDevice::Store(common::ExecContext& ctx, uint64_t offset, const void* src,
                       uint64_t len) {
  common::ProfileZone zone(ctx, common::ProfLayer::kDevice);
  assert(offset + len <= size_);
  Touch(offset, len);
  std::memcpy(data_.data() + offset, src, len);
  const uint64_t lines = (len + kCacheline - 1) / kCacheline;
  ctx.clock.Advance(lines * model_.pm_store_ns);
  ctx.counters.pm_write_bytes += len;
  ChargeFaultDelay(ctx);
  NoteStoreFaults(offset, len);
  RecordStore(offset, len, /*flushed=*/false);
}

void PmemDevice::NtStore(common::ExecContext& ctx, uint64_t offset, const void* src,
                         uint64_t len) {
  common::ProfileZone zone(ctx, common::ProfLayer::kDevice);
  assert(offset + len <= size_);
  Touch(offset, len);
  std::memcpy(data_.data() + offset, src, len);
  const uint64_t lines = (len + kCacheline - 1) / kCacheline;
  ctx.clock.Advance(lines * model_.pm_store_seq_ns);
  ctx.counters.pm_write_bytes += len;
  ChargeFaultDelay(ctx);
  NoteStoreFaults(offset, len);
  RecordStore(offset, len, /*flushed=*/true);
}

common::Status PmemDevice::Load(common::ExecContext& ctx, uint64_t offset, void* dst,
                                uint64_t len, bool sequential) {
  common::ProfileZone zone(ctx, common::ProfLayer::kDevice);
  assert(offset + len <= size_);
  const uint64_t lines = (len + kCacheline - 1) / kCacheline;
  ctx.clock.Advance(lines * (sequential ? model_.pm_load_seq_ns : model_.pm_load_random_ns));
  ctx.counters.pm_read_bytes += len;
  ChargeFaultDelay(ctx);
  if (injector_ != nullptr && injector_->IsPoisoned(offset, len)) {
    // Uncorrectable media error: surface EIO and never the stale payload.
    std::memset(dst, 0, len);
    return common::Status(common::ErrorCode::kIoError);
  }
  Touch(offset, len);
  std::memcpy(dst, data_.data() + offset, len);
  return common::OkStatus();
}

common::Status PmemDevice::ReadStatus(uint64_t offset, uint64_t len) const {
  if (injector_ != nullptr && injector_->IsPoisoned(offset, len)) {
    return common::Status(common::ErrorCode::kIoError);
  }
  return common::OkStatus();
}

void PmemDevice::Clwb(common::ExecContext& ctx, uint64_t offset, uint64_t len) {
  common::ProfileZone zone(ctx, common::ProfLayer::kDevice);
  const uint64_t first = common::RoundDown(offset, kCacheline);
  const uint64_t last = common::RoundDown(offset + len - 1, kCacheline);
  const uint64_t lines = (last - first) / kCacheline + 1;
  ctx.clock.Advance(lines * model_.clwb_ns);
  ctx.counters.clwb_count += lines;
  if (!crash_tracking_) {
    return;
  }
  std::lock_guard<std::mutex> guard(crash_mu_);
  for (uint64_t line = first; line <= last; line += kCacheline) {
    auto it = pending_index_.find(line);
    if (it != pending_index_.end()) {
      pending_[it->second].flushed = true;
    }
  }
}

void PmemDevice::Fence(common::ExecContext& ctx) {
  common::ProfileZone zone(ctx, common::ProfLayer::kDevice);
  ctx.clock.Advance(model_.sfence_ns);
  ctx.counters.fence_count++;
  if (!crash_tracking_) {
    return;
  }
  std::lock_guard<std::mutex> guard(crash_mu_);
  // Flushed lines are now guaranteed persistent: fold them into the image.
  std::vector<PendingLine> still_pending;
  std::vector<PendingLine> persisted_now;
  for (PendingLine& pl : pending_) {
    if (pl.flushed) {
      std::memcpy(persistent_.data() + pl.line_offset, pl.data, kCacheline);
      if (epoch_recording_) {
        persisted_now.push_back(pl);
      }
    } else {
      still_pending.push_back(pl);
    }
  }
  pending_ = std::move(still_pending);
  pending_index_.clear();
  for (size_t i = 0; i < pending_.size(); i++) {
    pending_index_[pending_[i].line_offset] = i;
  }
  if (epoch_recording_ && (!persisted_now.empty() || !pending_.empty())) {
    PersistEpoch epoch;
    epoch.persisted = std::move(persisted_now);
    epoch.in_flight_after = pending_;
    epoch_log_.push_back(std::move(epoch));
  }
}

void PmemDevice::BeginEpochRecording() {
  std::lock_guard<std::mutex> guard(crash_mu_);
  epoch_recording_ = true;
  epoch_log_.clear();
}

std::vector<PmemDevice::PersistEpoch> PmemDevice::TakeEpochLog() {
  std::lock_guard<std::mutex> guard(crash_mu_);
  epoch_recording_ = false;
  return std::move(epoch_log_);
}

void PmemDevice::PersistStore(common::ExecContext& ctx, uint64_t offset, const void* src,
                              uint64_t len) {
  Store(ctx, offset, src, len);
  Clwb(ctx, offset, len);
  Fence(ctx);
}

void PmemDevice::Zero(common::ExecContext& ctx, uint64_t offset, uint64_t len) {
  common::ProfileZone zone(ctx, common::ProfLayer::kDevice);
  assert(offset + len <= size_);
  Touch(offset, len);
  std::memset(data_.data() + offset, 0, len);
  ctx.clock.Advance(model_.SeqWriteBytes(len));
  ctx.counters.pm_write_bytes += len;
  ChargeFaultDelay(ctx);
  NoteStoreFaults(offset, len);
  RecordStore(offset, len, /*flushed=*/true);
}

void PmemDevice::StoreUncharged(uint64_t offset, const void* src, uint64_t len) {
  assert(offset + len <= size_);
  Touch(offset, len);
  NoteStoreFaults(offset, len);
  std::memcpy(data_.data() + offset, src, len);
  if (crash_tracking_) {
    std::lock_guard<std::mutex> guard(crash_mu_);
    std::memcpy(persistent_.data() + offset, src, len);
  }
}

void PmemDevice::ScrubUncharged(uint64_t offset, uint64_t len) {
  assert(offset + len <= size_);
  Touch(offset, len);
  NoteStoreFaults(offset, len);
  std::memset(data_.data() + offset, 0, len);
  if (crash_tracking_) {
    std::lock_guard<std::mutex> guard(crash_mu_);
    std::memset(persistent_.data() + offset, 0, len);
  }
}

void PmemDevice::EnableCrashTracking() {
  MaterializeAll();
  std::lock_guard<std::mutex> guard(crash_mu_);
  crash_tracking_ = true;
  persistent_ = data_;
  pending_.clear();
  pending_index_.clear();
  next_seq_ = 0;
}

void PmemDevice::DisableCrashTracking() {
  std::lock_guard<std::mutex> guard(crash_mu_);
  crash_tracking_ = false;
  persistent_.clear();
  persistent_.shrink_to_fit();
  pending_.clear();
  pending_index_.clear();
}

std::vector<PendingLine> PmemDevice::PendingLines() const {
  std::lock_guard<std::mutex> guard(crash_mu_);
  std::vector<PendingLine> lines = pending_;
  std::sort(lines.begin(), lines.end(),
            [](const PendingLine& a, const PendingLine& b) { return a.seq < b.seq; });
  return lines;
}

std::vector<uint8_t> PmemDevice::PersistentImage() const {
  std::lock_guard<std::mutex> guard(crash_mu_);
  return persistent_;
}

std::vector<uint8_t> PmemDevice::CrashImage(const std::vector<size_t>& pending_subset) const {
  std::lock_guard<std::mutex> guard(crash_mu_);
  std::vector<uint8_t> image = persistent_;
  const std::vector<PendingLine> ordered = [&] {
    std::vector<PendingLine> lines = pending_;
    std::sort(lines.begin(), lines.end(),
              [](const PendingLine& a, const PendingLine& b) { return a.seq < b.seq; });
    return lines;
  }();
  for (size_t idx : pending_subset) {
    assert(idx < ordered.size());
    const PendingLine& pl = ordered[idx];
    std::memcpy(image.data() + pl.line_offset, pl.data, kCacheline);
  }
  return image;
}

void PmemDevice::RestoreImage(const std::vector<uint8_t>& image) {
  assert(image.size() == size_);
  // Full overwrite: any COW backing is obsolete.
  EndFork();
  data_ = image;
  std::lock_guard<std::mutex> guard(crash_mu_);
  if (crash_tracking_) {
    persistent_ = data_;
    pending_.clear();
    pending_index_.clear();
  }
}

void PmemDevice::MarkAllPersistent() {
  MaterializeAll();
  std::lock_guard<std::mutex> guard(crash_mu_);
  if (crash_tracking_) {
    persistent_ = data_;
    pending_.clear();
    pending_index_.clear();
  }
}

}  // namespace pmem
