// Two-level TLB simulator with split 4 KB / 2 MB first-level arrays.
// Hugepages matter here twice over: one 2 MB entry covers 512 base pages, and
// the 2 MB array is large enough relative to typical hot sets that mapped-huge
// working sets rarely miss.
//
// The LRU sets behind the TLB (exact LRU, evict-oldest) are sized at
// construction, so no Lookup/Insert allocates: SmallLruSet for the L1 arrays,
// FlatLruSet (intrusive list + open-addressing index) for the L2. The
// std::list + std::unordered_map structure they replaced lives on as a test
// oracle (tests/ref_sim.h) that must make the same decisions.
#ifndef SRC_VMEM_TLB_H_
#define SRC_VMEM_TLB_H_

#include <cstdint>
#include <vector>

#include "src/common/units.h"
#include "src/vmem/mmu_params.h"

namespace vmem {

enum class TlbResult {
  kL1Hit,
  kL2Hit,
  kMiss,  // full page walk required
};

// Open-addressing key -> slot index (linear probing, backward-shift deletion)
// shared by the flat LRU sets below. All storage is sized at construction; no
// operation allocates.
class SlotIndex {
 public:
  static constexpr uint32_t kNil = 0xffffffffu;

  explicit SlotIndex(uint32_t capacity);

  // Bucket holding key, or kNil. Inline: this probe is the first step of
  // every TLB lookup.
  uint32_t Find(uint64_t key) const {
    uint32_t b = BucketOf(key, mask_);
    while (slot_of_[b] != kNil) {
      if (key_of_[b] == key) {
        return b;
      }
      b = (b + 1) & mask_;
    }
    return kNil;
  }
  uint32_t SlotAt(uint32_t bucket) const { return slot_of_[bucket]; }
  void Insert(uint64_t key, uint32_t slot);
  void Erase(uint64_t key);
  void Clear();

 private:
  static uint32_t BucketOf(uint64_t key, uint32_t mask) {
    return static_cast<uint32_t>((key * 0x9e3779b97f4a7c15ull) >> 32) & mask;
  }

  // key_of_[b] is valid iff slot_of_[b] != kNil.
  uint32_t mask_ = 0;
  std::vector<uint64_t> key_of_;
  std::vector<uint32_t> slot_of_;
};

// Flat LRU set: entries live in a fixed slot array linked into an intrusive
// MRU->LRU list by index; a SlotIndex maps key -> slot. All storage is
// allocated at construction, so Touch/Insert/Erase never allocate. A
// 0-capacity set holds nothing, like a 0-capacity SmallLruSet.
class FlatLruSet {
 public:
  explicit FlatLruSet(uint32_t capacity);

  // Touch is the Lookup hot path; defined inline (with its relink helpers) so
  // batched callers pay no call per simulated access.
  bool Touch(uint64_t key) {
    const uint32_t b = index_.Find(key);
    if (b == SlotIndex::kNil) {
      return false;
    }
    MoveToFront(index_.SlotAt(b));
    return true;
  }
  void Insert(uint64_t key);
  void Erase(uint64_t key);
  void Clear();

 private:
  static constexpr uint32_t kNil = SlotIndex::kNil;

  struct Slot {
    uint64_t key = 0;
    uint32_t prev = kNil;
    uint32_t next = kNil;
  };

  void MoveToFront(uint32_t slot) {
    if (head_ == slot) {
      return;
    }
    Unlink(slot);
    PushFront(slot);
  }
  void PushFront(uint32_t slot) {
    slots_[slot].prev = kNil;
    slots_[slot].next = head_;
    if (head_ != kNil) {
      slots_[head_].prev = slot;
    }
    head_ = slot;
    if (tail_ == kNil) {
      tail_ = slot;
    }
  }
  void Unlink(uint32_t slot) {
    const uint32_t prev = slots_[slot].prev;
    const uint32_t next = slots_[slot].next;
    if (prev != kNil) {
      slots_[prev].next = next;
    } else {
      head_ = next;
    }
    if (next != kNil) {
      slots_[next].prev = prev;
    } else {
      tail_ = prev;
    }
  }

  uint32_t capacity_;
  uint32_t size_ = 0;
  uint32_t head_ = kNil;  // most recent
  uint32_t tail_ = kNil;  // least recent
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;  // slots returned by Erase
  SlotIndex index_;
};

// Exact-LRU set for capacities up to 64, built for churn: the first-level TLB
// arrays promote (evict + insert) on nearly every access under base-page
// pressure, and an open-addressing index pays two mispredict-heavy probe
// loops per promotion there. This set keeps no index at all. Membership is
// resolved by a SWAR scan of one 8-bit signature per slot (eight slots per
// u64 word), verified against the full key, with a 64-bit valid mask ruling
// out stale lanes — a handful of branch-free ALU ops over at most 64 bytes of
// hot data. Recency is the same intrusive MRU list as FlatLruSet (byte
// indices), so Touch/Insert/Erase make bit-identical replacement decisions.
class SmallLruSet {
 public:
  static constexpr uint32_t kMaxCapacity = 64;

  // Aborts with a message if capacity > kMaxCapacity, in every build type.
  explicit SmallLruSet(uint32_t capacity);

  bool Touch(uint64_t key) {
    const uint32_t slot = Probe(key);
    if (slot == kNil) {
      return false;
    }
    MoveToFront(slot);
    return true;
  }
  void Insert(uint64_t key);
  void Erase(uint64_t key);
  void Clear();

  // Insert for callers that have just probed and missed (the L1-promotion
  // path): skips the membership probe Insert would repeat. Calling this with
  // a key already in the set would duplicate it — the TLB promote path is the
  // only user.
  void InsertAbsent(uint64_t key) {
    if (capacity_ == 0) {
      return;
    }
    uint32_t slot;
    const uint64_t cap_mask = capacity_ == 64 ? ~0ull : (1ull << capacity_) - 1;
    const uint64_t empty = ~valid_ & cap_mask;
    if (empty == 0) {
      slot = tail_;  // evict LRU, reuse its slot
      Unlink(slot);
    } else {
      slot = static_cast<uint32_t>(__builtin_ctzll(empty));
      valid_ |= 1ull << slot;
    }
    keys_[slot] = key;
    SetSig(slot, Sig8(key));
    PushFront(slot);
  }

 private:
  static constexpr uint32_t kNil = 0xffu;
  static constexpr uint64_t kLow = 0x0101010101010101ull;
  static constexpr uint64_t kHigh = 0x8080808080808080ull;

  static uint8_t Sig8(uint64_t key) {
    return static_cast<uint8_t>((key * 0x9e3779b97f4a7c15ull) >> 56);
  }

  // Slot holding key, or kNil. The zero-byte detect can flag a lane whose
  // byte is not the signature (a borrow from a true match below it) and lanes
  // of erased slots keep stale signatures, so every candidate is verified
  // against the valid mask and the stored key; there are no false negatives.
  uint32_t Probe(uint64_t key) const {
    const uint64_t probe = kLow * Sig8(key);
    const uint32_t words = (capacity_ + 7) / 8;
    for (uint32_t j = 0; j < words; j++) {
      const uint64_t x = sig_[j] ^ probe;
      uint64_t cand = (x - kLow) & ~x & kHigh;
      while (cand != 0) {
        const uint32_t slot = j * 8 + (static_cast<uint32_t>(__builtin_ctzll(cand)) >> 3);
        if ((valid_ >> slot & 1) != 0 && keys_[slot] == key) {
          return slot;
        }
        cand &= cand - 1;
      }
    }
    return kNil;
  }

  void MoveToFront(uint32_t slot) {
    if (head_ == slot) {
      return;
    }
    Unlink(slot);
    PushFront(slot);
  }
  void PushFront(uint32_t slot) {
    prev_[slot] = kNil;
    next_[slot] = static_cast<uint8_t>(head_);
    if (head_ != kNil) {
      prev_[head_] = static_cast<uint8_t>(slot);
    }
    head_ = slot;
    if (tail_ == kNil) {
      tail_ = slot;
    }
  }
  void Unlink(uint32_t slot) {
    const uint32_t prev = prev_[slot];
    const uint32_t next = next_[slot];
    if (prev != kNil) {
      next_[prev] = static_cast<uint8_t>(next);
    } else {
      head_ = next;
    }
    if (next != kNil) {
      prev_[next] = static_cast<uint8_t>(prev);
    } else {
      tail_ = prev;
    }
  }
  void SetSig(uint32_t slot, uint8_t sig) {
    const uint32_t shift = slot % 8 * 8;
    uint64_t& word = sig_[slot / 8];
    word = (word & ~(0xffull << shift)) | (uint64_t{sig} << shift);
  }

  uint32_t capacity_;
  uint64_t valid_ = 0;  // bit per occupied slot; the only occupancy record
  uint32_t head_ = kNil;
  uint32_t tail_ = kNil;
  uint64_t sig_[kMaxCapacity / 8] = {};
  uint64_t keys_[kMaxCapacity] = {};
  uint8_t prev_[kMaxCapacity] = {};
  uint8_t next_[kMaxCapacity] = {};
};

class Tlb {
 public:
  explicit Tlb(const MmuParams& params);

  // Looks up the page covering `vaddr`. `huge` selects the translation size
  // the page was mapped with. A hit refreshes LRU position; on kL2Hit the
  // entry is promoted into L1; on kMiss the caller must Walk and then Insert.
  // Inline: the L1-hit case — the overwhelmingly common one — runs without a
  // function call.
  TlbResult Lookup(uint64_t vaddr, bool huge) {
    const uint64_t key = PageNumber(vaddr, huge);
    SmallLruSet& l1 = huge ? l1_2m_ : l1_4k_;
    if (l1.Touch(key)) {
      return TlbResult::kL1Hit;
    }
    if (l2_.Touch(key)) {
      // Promote into L1; the L1 probe above just missed, so the key is known
      // absent there.
      l1.InsertAbsent(key);
      return TlbResult::kL2Hit;
    }
    return TlbResult::kMiss;
  }

  void Insert(uint64_t vaddr, bool huge);

  // Removes translations covering the page (TLB shootdown on munmap/remap).
  void InvalidatePage(uint64_t vaddr, bool huge);
  void Flush();

 private:
  static uint64_t PageNumber(uint64_t vaddr, bool huge) {
    // Tag with the size bit so 4 KB and 2 MB entries never alias in L2.
    const uint64_t page = huge ? vaddr / common::kHugepageSize : vaddr / common::kBlockSize;
    return (page << 1) | (huge ? 1 : 0);
  }

  // The SWAR small set serves the (at most 64-entry) L1 arrays; the indexed
  // flat set the large L2.
  SmallLruSet l1_4k_;
  SmallLruSet l1_2m_;
  FlatLruSet l2_;
};

}  // namespace vmem

#endif  // SRC_VMEM_TLB_H_
