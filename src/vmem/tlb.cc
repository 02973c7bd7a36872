#include "src/vmem/tlb.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "src/common/units.h"

namespace vmem {

namespace {

uint32_t NextPow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

}  // namespace

SlotIndex::SlotIndex(uint32_t capacity) {
  // Load factor <= 0.5 keeps linear-probe chains short under full occupancy.
  const uint32_t buckets = NextPow2(capacity < 8 ? 16 : capacity * 2);
  mask_ = buckets - 1;
  key_of_.resize(buckets, 0);
  slot_of_.resize(buckets, kNil);
}

void SlotIndex::Insert(uint64_t key, uint32_t slot) {
  uint32_t b = BucketOf(key, mask_);
  while (slot_of_[b] != kNil) {
    b = (b + 1) & mask_;
  }
  key_of_[b] = key;
  slot_of_[b] = slot;
}

void SlotIndex::Erase(uint64_t key) {
  uint32_t i = Find(key);
  assert(i != kNil);
  // Backward-shift deletion keeps probe chains tombstone-free: walk the
  // cluster after `i` and pull back any entry whose ideal bucket makes the
  // vacated position reachable.
  uint32_t j = i;
  while (true) {
    slot_of_[i] = kNil;
    uint32_t ideal;
    do {
      j = (j + 1) & mask_;
      if (slot_of_[j] == kNil) {
        return;
      }
      ideal = BucketOf(key_of_[j], mask_);
      // Keep scanning while entry j still lies on its own probe path if left
      // in place, i.e. moving it to `i` would skip its ideal bucket.
    } while (i <= j ? (i < ideal && ideal <= j) : (i < ideal || ideal <= j));
    key_of_[i] = key_of_[j];
    slot_of_[i] = slot_of_[j];
    i = j;
  }
}

void SlotIndex::Clear() {
  std::fill(slot_of_.begin(), slot_of_.end(), kNil);
}

FlatLruSet::FlatLruSet(uint32_t capacity)
    : capacity_(capacity), slots_(capacity), index_(capacity) {
  free_.reserve(capacity_);
}

void FlatLruSet::Insert(uint64_t key) {
  if (capacity_ == 0) {
    return;  // a 0-entry set holds nothing
  }
  const uint32_t b = index_.Find(key);
  if (b != SlotIndex::kNil) {
    MoveToFront(index_.SlotAt(b));
    return;
  }
  uint32_t slot;
  if (size_ >= capacity_) {
    slot = tail_;  // evict LRU, reuse its slot
    Unlink(slot);
    index_.Erase(slots_[slot].key);
  } else if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    size_++;
  } else {
    slot = size_++;
  }
  slots_[slot].key = key;
  PushFront(slot);
  index_.Insert(key, slot);
}

void FlatLruSet::Erase(uint64_t key) {
  const uint32_t b = index_.Find(key);
  if (b == SlotIndex::kNil) {
    return;
  }
  const uint32_t slot = index_.SlotAt(b);
  Unlink(slot);
  index_.Erase(key);
  free_.push_back(slot);
  size_--;
}

void FlatLruSet::Clear() {
  size_ = 0;
  head_ = kNil;
  tail_ = kNil;
  free_.clear();
  index_.Clear();
}

SmallLruSet::SmallLruSet(uint32_t capacity) : capacity_(capacity) {
  if (capacity_ > kMaxCapacity) {
    std::fprintf(stderr, "vmem::SmallLruSet: capacity %" PRIu32 " exceeds %" PRIu32 "\n",
                 capacity_, kMaxCapacity);
    std::abort();
  }
}

void SmallLruSet::Insert(uint64_t key) {
  const uint32_t hit = Probe(key);
  if (hit != kNil) {
    MoveToFront(hit);
    return;
  }
  InsertAbsent(key);
}

void SmallLruSet::Erase(uint64_t key) {
  const uint32_t slot = Probe(key);
  if (slot == kNil) {
    return;
  }
  Unlink(slot);
  valid_ &= ~(1ull << slot);  // the stale signature lane is masked by valid_
}

void SmallLruSet::Clear() {
  valid_ = 0;
  head_ = kNil;
  tail_ = kNil;
}

Tlb::Tlb(const MmuParams& params)
    : l1_4k_(params.l1_tlb_4k_entries),
      l1_2m_(params.l1_tlb_2m_entries),
      l2_(params.l2_tlb_entries) {}

void Tlb::Insert(uint64_t vaddr, bool huge) {
  const uint64_t key = PageNumber(vaddr, huge);
  (huge ? l1_2m_ : l1_4k_).Insert(key);
  l2_.Insert(key);
}

void Tlb::InvalidatePage(uint64_t vaddr, bool huge) {
  const uint64_t key = PageNumber(vaddr, huge);
  (huge ? l1_2m_ : l1_4k_).Erase(key);
  l2_.Erase(key);
}

void Tlb::Flush() {
  l1_4k_.Clear();
  l1_2m_.Clear();
  l2_.Clear();
}

}  // namespace vmem
