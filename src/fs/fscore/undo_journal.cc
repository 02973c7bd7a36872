#include "src/fs/fscore/undo_journal.h"

#include <algorithm>
#include <cstring>

#include "src/common/prof_zone.h"

namespace fscore {

using common::ExecContext;
using common::Status;

namespace {
constexpr uint64_t kSlotBytes = sizeof(UndoEntry);
constexpr uint64_t kPayloadBytes = sizeof(UndoEntry::payload);
}  // namespace

void UndoRing::Place(pmem::PmemDevice* device, const UndoFormat& format, uint64_t pm_offset,
                     uint64_t bytes) {
  device_ = device;
  magic_ = format.magic;
  blob_min_bytes_ = format.blob_min_bytes;
  pm_offset_ = pm_offset;
  capacity_ = bytes / kSlotBytes;
  Reset();
}

void UndoRing::Reset() {
  head_ = 0;
  wrap_ = 0;
  written_.store(0, std::memory_order_relaxed);
}

void UndoRing::Advance(uint64_t slots) {
  head_ += slots;
  if (head_ >= capacity_) {
    head_ = 0;
    wrap_++;
  }
  written_.store(written_.load(std::memory_order_relaxed) + slots, std::memory_order_relaxed);
}

uint64_t UndoRing::Append(ExecContext& ctx, UndoEntry entry) {
  common::SimMutex::Guard guard(lock_, ctx);
  entry.magic = magic_;
  entry.wrap = wrap_;
  entry.csum = entry.ComputeCsum();
  const uint64_t position = written();
  const uint64_t off = pm_offset_ + head_ * kSlotBytes;
  Advance(1);
  device_->Store(ctx, off, &entry, sizeof(entry));
  device_->Clwb(ctx, off, sizeof(entry));
  ctx.counters.journal_bytes += sizeof(entry);
  return position;
}

void UndoRing::AppendRaw(ExecContext& ctx, const uint8_t* data, uint64_t len) {
  common::SimMutex::Guard guard(lock_, ctx);
  // The image streams into the ring as non-temporal stores, one per
  // contiguous run of slots (a run ends at the ring's end). Runs start on a
  // slot and only the image's last piece can be sub-cacheline, so a run
  // charges exactly what one store per slot would, and crash tracking logs
  // the same lines in the same order.
  uint64_t done = 0;
  while (done < len) {
    const uint64_t span = std::min(len - done, (capacity_ - head_) * kSlotBytes);
    device_->NtStore(ctx, pm_offset_ + head_ * kSlotBytes, data + done, span);
    Advance((span + kSlotBytes - 1) / kSlotBytes);
    done += span;
  }
  ctx.counters.journal_bytes += len;
}

void UndoRing::Undo(ExecContext& ctx, uint64_t txn_id, uint64_t target, uint64_t len) {
  common::ProfileZone zone(ctx, common::ProfLayer::kJournal);
  if (len >= blob_min_bytes_) {
    std::vector<uint8_t> old(len);
    (void)device_->Load(ctx, target, old.data(), len);
    UndoEntry header;
    header.txn_id = txn_id;
    header.type = UndoEntry::kUndoBlob;
    header.target_offset = target;
    const uint64_t blob_csum = common::Fnv1a(old.data(), len);
    std::memcpy(header.payload, &len, sizeof(len));
    std::memcpy(header.payload + sizeof(len), &blob_csum, sizeof(blob_csum));
    Append(ctx, header);
    AppendRaw(ctx, old.data(), len);
  } else {
    for (uint64_t done = 0; done < len; done += kPayloadBytes) {
      const uint64_t chunk = std::min(len - done, kPayloadBytes);
      UndoEntry entry;
      entry.txn_id = txn_id;
      entry.type = UndoEntry::kUndoData;
      entry.payload_len = static_cast<uint8_t>(chunk);
      entry.target_offset = target + done;
      (void)device_->Load(ctx, target + done, entry.payload, chunk);
      Append(ctx, entry);
    }
  }
  device_->Fence(ctx);
}

uint64_t UndoRing::UndoSlots(uint64_t len) const {
  if (len >= blob_min_bytes_) {
    return 1 + (len + kSlotBytes - 1) / kSlotBytes;
  }
  return (len + kPayloadBytes - 1) / kPayloadBytes;
}

Status UndoRing::ScanTail(ExecContext& ctx, std::vector<TailEntry>& tail) const {
  if (capacity_ == 0) {
    return common::OkStatus();
  }
  std::vector<UndoEntry> slots(capacity_);
  RETURN_IF_ERROR(device_->Load(ctx, pm_offset_, slots.data(), capacity_ * kSlotBytes));
  // Headers only: raw blob cachelines carry arbitrary bytes and fail the
  // magic and checksum test.
  std::vector<uint64_t> valid;
  uint32_t newest = 0;
  for (uint64_t s = 0; s < capacity_; s++) {
    if (slots[s].IsValidHeader(magic_)) {
      valid.push_back(s);
      newest = std::max(newest, slots[s].wrap);
    }
  }
  if (valid.empty()) {
    return common::OkStatus();
  }
  // Append order: the previous lap's entries past the newest lap's frontier,
  // then the newest lap's from slot 0. Older laps are stale.
  std::vector<TailEntry> ordered;
  for (const uint32_t lap : {newest - 1, newest}) {
    for (const uint64_t s : valid) {
      if (slots[s].wrap == lap) {
        ordered.push_back(TailEntry{slots[s], lap * capacity_ + s, s, this});
      }
    }
  }
  const uint64_t tail_txn = ordered.back().entry.txn_id;
  const bool committed = std::any_of(ordered.begin(), ordered.end(), [&](const TailEntry& r) {
    return r.entry.txn_id == tail_txn && r.entry.type == UndoEntry::kCommit;
  });
  if (!committed) {
    for (const TailEntry& r : ordered) {
      if (r.entry.txn_id == tail_txn) {
        tail.push_back(r);
      }
    }
  }
  return common::OkStatus();
}

Status UndoRing::RollBack(ExecContext& ctx, const TailEntry& tail_entry) const {
  const UndoEntry& e = tail_entry.entry;
  if (e.type == UndoEntry::kUndoData) {
    device_->Store(ctx, e.target_offset, e.payload, e.payload_len);
    device_->Clwb(ctx, e.target_offset, e.payload_len);
  } else if (e.type == UndoEntry::kUndoBlob) {
    uint64_t blob_len = 0;
    std::memcpy(&blob_len, e.payload, sizeof(blob_len));
    uint64_t blob_csum = 0;
    std::memcpy(&blob_csum, e.payload + sizeof(blob_len), sizeof(blob_csum));
    // The image sits in the raw cachelines after the header's slot.
    std::vector<uint8_t> old(blob_len);
    uint64_t slot = (tail_entry.slot + 1) % capacity_;
    for (uint64_t done = 0; done < blob_len; done += kSlotBytes) {
      RETURN_IF_ERROR(device_->Load(ctx, pm_offset_ + slot * kSlotBytes, old.data() + done,
                                    std::min(kSlotBytes, blob_len - done)));
      slot = (slot + 1) % capacity_;
    }
    if (common::Fnv1a(old.data(), blob_len) == blob_csum) {
      device_->Store(ctx, e.target_offset, old.data(), blob_len);
      device_->Clwb(ctx, e.target_offset, blob_len);
    }
  }
  return common::OkStatus();
}

Status UndoRing::Recover(ExecContext& ctx, pmem::PmemDevice& device, uint64_t offset,
                         uint64_t bytes, bool mount_clean, UndoReplay replay,
                         std::span<UndoRing* const> rings) {
  // The probe is cost-free, so an unfaulted mount keeps its timings.
  if (!device.ReadStatus(offset, bytes).ok()) {
    if (!mount_clean) {
      return Status(common::ErrorCode::kIoError);
    }
  } else if (!mount_clean || replay == UndoReplay::kEveryMount) {
    std::vector<TailEntry> tail;
    for (const UndoRing* ring : rings) {
      RETURN_IF_ERROR(ring->ScanTail(ctx, tail));
    }
    if (!tail.empty() || replay == UndoReplay::kEveryMount) {
      std::sort(tail.begin(), tail.end(), [](const TailEntry& a, const TailEntry& b) {
        if (a.entry.txn_id != b.entry.txn_id) {
          return a.entry.txn_id > b.entry.txn_id;
        }
        return a.seq > b.seq;
      });
      for (const TailEntry& e : tail) {
        RETURN_IF_ERROR(e.ring->RollBack(ctx, e));
      }
      device.Fence(ctx);
    }
  }
  device.Zero(ctx, offset, bytes);
  device.Fence(ctx);
  for (UndoRing* ring : rings) {
    ring->Reset();
  }
  return common::OkStatus();
}

}  // namespace fscore
