// Fine-grained undo journal: rings of one-cacheline entries (paper §3.6,
// "each log entry is only a cache line"). WineFS keeps one ring per CPU,
// PMFS a single ring for the whole filesystem; both run this code.
//
// A transaction appends kStart, then the old image of every region it is
// about to overwrite (one entry per 32 bytes, or one blob: a header followed
// by the image in raw cachelines), then kCommit. Each undo image is fenced
// before its in-place overwrite begins, and every metadata operation is
// synchronous, so a ring's space is free again at commit. At mount, each ring
// can hold at most one incomplete transaction: the one owning its newest
// entries. Recovery rolls those back and empties the journal.
//
// What differs between the filesystems is fixed when they are built, never
// an option: the header magic and blob threshold (UndoFormat), the lock-site
// names, and the mount policy (UndoReplay).
#ifndef SRC_FS_FSCORE_UNDO_JOURNAL_H_
#define SRC_FS_FSCORE_UNDO_JOURNAL_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/exec_context.h"
#include "src/common/fnv1a.h"
#include "src/common/prof_zone.h"
#include "src/common/sim_mutex.h"
#include "src/common/status.h"
#include "src/pmem/device.h"

namespace fscore {

// One 64-byte journal entry. x86 persists only 8 bytes atomically, so a crash
// mid-flush can tear an entry at 8-byte-lane granularity. `csum` (FNV-1a over
// the other 56 bytes) makes a torn entry detectable: recovery skips it, which
// is safe because every undo entry is fenced before its in-place overwrite
// begins, so a torn entry implies an untouched target. A blob header carries
// the old image's length in payload[0..8] and its FNV-1a in payload[8..16],
// so torn raw blob cachelines are caught the same way.
struct UndoEntry {
  uint64_t txn_id = 0;
  uint32_t wrap = 0;  // ring lap the entry was written in
  uint8_t type = 0;   // 0 invalid
  uint8_t payload_len = 0;
  uint16_t magic = 0;  // tells headers from raw blob lines
  uint64_t target_offset = 0;
  uint8_t payload[32] = {};
  uint64_t csum = 0;

  static constexpr uint8_t kStart = 1;
  static constexpr uint8_t kCommit = 2;
  static constexpr uint8_t kUndoData = 3;
  static constexpr uint8_t kUndoBlob = 4;

  uint64_t ComputeCsum() const { return common::Fnv1a(this, sizeof(UndoEntry) - sizeof(csum)); }
  bool IsValidHeader(uint16_t ring_magic) const {
    return magic == ring_magic && type >= kStart && type <= kUndoBlob && csum == ComputeCsum();
  }
};
static_assert(sizeof(UndoEntry) == 64);

// A filesystem's on-PM journal format.
struct UndoFormat {
  uint16_t magic = 0;  // stamped on every header
  // Undo images this long or longer go out as one blob, so the data is
  // written about twice rather than four times (32 B payload per 64 B entry).
  uint64_t blob_min_bytes = UINT64_MAX;
};

// When mount-time recovery reads the rings back.
enum class UndoReplay {
  // Every mount scans every ring, and fences after its rollback loop even
  // when nothing was rolled back (WineFS).
  kEveryMount,
  // Only a dirty mount scans; a fence follows an actual rollback (PMFS).
  kDirtyMountOnly,
};

// One ring of entries. Appends take the ring's SimMutex, whose site names the
// ring in contention reports. A ring starts on a cache line of its own, so
// per-CPU rings appended by different host workers never share one.
class alignas(64) UndoRing {
 public:
  UndoRing() = default;
  explicit UndoRing(std::string site) : lock_(std::move(site)) {}

  void set_site(std::string site) { lock_.set_site(std::move(site)); }

  // Lays the ring over [pm_offset, pm_offset + bytes) of `device` and empties
  // it. Touches no PM.
  void Place(pmem::PmemDevice* device, const UndoFormat& format, uint64_t pm_offset,
             uint64_t bytes);

  // Transaction bracket: appends kStart (kCommit) for `txn_id` and fences.
  // Begin returns the ring position of the kStart slot, for Room(). Inline,
  // so a bracket entry costs one call, as an undo entry does.
  uint64_t Begin(common::ExecContext& ctx, uint64_t txn_id) {
    common::ProfileZone zone(ctx, common::ProfLayer::kJournal);
    const uint64_t start = Append(ctx, UndoEntry{.txn_id = txn_id, .type = UndoEntry::kStart});
    device_->Fence(ctx);
    return start;
  }
  void Commit(common::ExecContext& ctx, uint64_t txn_id) {
    common::ProfileZone zone(ctx, common::ProfLayer::kJournal);
    Append(ctx, UndoEntry{.txn_id = txn_id, .type = UndoEntry::kCommit});
    device_->Fence(ctx);
  }
  // Journals the old image of [target, target + len) for `txn_id` and fences,
  // so the undo is persistent before the caller overwrites in place. A
  // poisoned old image journals as zeros: the overwrite clears the poison,
  // and a rollback then restores zeros, never stale bytes.
  void Undo(common::ExecContext& ctx, uint64_t txn_id, uint64_t target, uint64_t len);

  // Slots Undo(len) appends.
  uint64_t UndoSlots(uint64_t len) const;
  // Slots a transaction begun at position `start` may still append before it
  // would overwrite its own kStart.
  uint64_t Room(uint64_t start) const {
    const uint64_t used = written() - start;
    return used >= capacity_ ? 0 : capacity_ - used;
  }

  uint64_t capacity() const { return capacity_; }
  // Slots appended since the ring was placed or reset, and laps completed.
  uint64_t written() const { return written_.load(std::memory_order_relaxed); }
  uint64_t wraps() const { return capacity_ == 0 ? 0 : written() / capacity_; }

  // Mount-time recovery of the journal region [offset, offset + bytes) and
  // the rings placed in it.
  //  * Poisoned region: after a clean unmount the journal carries no undo
  //    state worth keeping, so it is zeroed (the full-block rewrite clears
  //    the poison). After a dirty one an incomplete transaction may hide
  //    behind the media error: the mount is refused with EIO rather than
  //    guess.
  //  * Otherwise every ring's uncommitted tail transaction is rolled back,
  //    newest transaction ID first (IDs order transactions across rings) and
  //    newest entry first within one, as `replay` directs.
  // The region is then zeroed, so stale committed entries never survive into
  // the next mount's transaction-ID space, and the rings are emptied.
  static common::Status Recover(common::ExecContext& ctx, pmem::PmemDevice& device,
                                uint64_t offset, uint64_t bytes, bool mount_clean,
                                UndoReplay replay, std::span<UndoRing* const> rings);

 private:
  // One entry of a ring's uncommitted tail transaction.
  struct TailEntry {
    UndoEntry entry;
    uint64_t seq = 0;  // append order within its ring
    uint64_t slot = 0;
    const UndoRing* ring = nullptr;
  };

  // Loads the ring and appends the entries of its newest transaction to
  // `tail` if that transaction never committed.
  common::Status ScanTail(common::ExecContext& ctx, std::vector<TailEntry>& tail) const;
  // Restores the old image `e` holds. A blob whose raw lines fail their
  // checksum is skipped: the crash hit while the image was still being
  // journaled, before the fence that precedes the overwrite, so the target is
  // intact (and rolling back a torn image would not be).
  common::Status RollBack(common::ExecContext& ctx, const TailEntry& e) const;
  // Empties the ring (its region was zeroed).
  void Reset();
  // Stamps `entry` and stores it in the next slot with a flush; the caller
  // fences. Returns the slot's ring position.
  uint64_t Append(common::ExecContext& ctx, UndoEntry entry);
  // Streams `len` bytes into the next slots as raw cachelines.
  void AppendRaw(common::ExecContext& ctx, const uint8_t* data, uint64_t len);
  // Moves the head `slots` forward (never past the ring's end); under lock_.
  void Advance(uint64_t slots);

  pmem::PmemDevice* device_ = nullptr;
  uint64_t pm_offset_ = 0;
  uint64_t capacity_ = 0;  // slots
  uint64_t blob_min_bytes_ = UINT64_MAX;
  uint16_t magic_ = 0;
  uint32_t wrap_ = 0;  // guarded by lock_
  uint64_t head_ = 0;  // next slot; guarded by lock_
  // wrap_ * capacity_ + head_, written under lock_; read lock-free by Room()
  // and the gauges.
  std::atomic<uint64_t> written_{0};
  common::SimMutex lock_;
};

}  // namespace fscore

#endif  // SRC_FS_FSCORE_UNDO_JOURNAL_H_
