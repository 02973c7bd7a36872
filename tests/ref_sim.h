// Reference MMU structures: a differential oracle for vmem::Tlb and
// vmem::LlcCache.
//
// These are the simulator's original structures, written for obviousness
// rather than speed: the TLB's LRU sets are a std::list in recency order plus
// a std::unordered_map index (one allocation per insert), and the LLC is a
// plain array of {tag, lru, valid} ways scanned in full on every access. The
// flat structures in src/vmem must make exactly the same decisions — the same
// TlbResult for every lookup, the same hit/miss for every LLC access, and the
// same final LLC state (StateHash mixes the same fields in the same order:
// each valid way's tag and recency rank, which vmem::LlcCache keeps as a
// permutation and this oracle derives from its stamps). Tests replay one
// access stream through both and compare.
#ifndef TESTS_REF_SIM_H_
#define TESTS_REF_SIM_H_

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "src/common/units.h"
#include "src/vmem/mmu_params.h"
#include "src/vmem/tlb.h"

namespace refsim {

// Exact LRU over at most `capacity` keys; inserting into a full set evicts
// the least recently used key.
class ReferenceLruSet {
 public:
  explicit ReferenceLruSet(uint32_t capacity) : capacity_(capacity) {}

  // True if present (and refreshed).
  bool Touch(uint64_t key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      return false;
    }
    order_.splice(order_.begin(), order_, it->second);
    return true;
  }

  void Insert(uint64_t key) {
    if (capacity_ == 0 || Touch(key)) {
      return;
    }
    if (order_.size() >= capacity_) {
      index_.erase(order_.back());
      order_.pop_back();
    }
    order_.push_front(key);
    index_[key] = order_.begin();
  }

  void Erase(uint64_t key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      return;
    }
    order_.erase(it->second);
    index_.erase(it);
  }

  void Clear() {
    order_.clear();
    index_.clear();
  }

 private:
  uint32_t capacity_;
  std::list<uint64_t> order_;  // front = most recent
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> index_;
};

// Split 4 KB / 2 MB L1 arrays over a unified L2, with vmem::Tlb's interface.
class ReferenceTlb {
 public:
  explicit ReferenceTlb(const vmem::MmuParams& params)
      : l1_4k_(params.l1_tlb_4k_entries),
        l1_2m_(params.l1_tlb_2m_entries),
        l2_(params.l2_tlb_entries) {}

  vmem::TlbResult Lookup(uint64_t vaddr, bool huge) {
    const uint64_t key = PageNumber(vaddr, huge);
    ReferenceLruSet& l1 = huge ? l1_2m_ : l1_4k_;
    if (l1.Touch(key)) {
      return vmem::TlbResult::kL1Hit;
    }
    if (l2_.Touch(key)) {
      l1.Insert(key);  // promote
      return vmem::TlbResult::kL2Hit;
    }
    return vmem::TlbResult::kMiss;
  }

  void Insert(uint64_t vaddr, bool huge) {
    const uint64_t key = PageNumber(vaddr, huge);
    (huge ? l1_2m_ : l1_4k_).Insert(key);
    l2_.Insert(key);
  }

  void InvalidatePage(uint64_t vaddr, bool huge) {
    const uint64_t key = PageNumber(vaddr, huge);
    (huge ? l1_2m_ : l1_4k_).Erase(key);
    l2_.Erase(key);
  }

  void Flush() {
    l1_4k_.Clear();
    l1_2m_.Clear();
    l2_.Clear();
  }

 private:
  // Page number tagged with the size bit, so 4 KB and 2 MB entries never
  // alias in L2.
  static uint64_t PageNumber(uint64_t vaddr, bool huge) {
    const uint64_t page = huge ? vaddr / common::kHugepageSize : vaddr / common::kBlockSize;
    return (page << 1) | (huge ? 1 : 0);
  }

  ReferenceLruSet l1_4k_;
  ReferenceLruSet l1_2m_;
  ReferenceLruSet l2_;
};

// Set-associative LLC on 64 B lines with vmem::LlcCache's policy: a hit
// refreshes the way's stamp; a miss fills the last invalid way, or else the
// lowest-indexed way with the smallest stamp. Every valid way's stamp comes
// from a distinct tick since the last Flush, so that way is the unique least
// recent one: the tail of vmem::LlcCache's recency permutation.
class ReferenceLlc {
 public:
  explicit ReferenceLlc(const vmem::MmuParams& params) : ways_(params.llc_ways) {
    num_sets_ = params.llc_bytes / common::kCacheline / ways_;
    if (num_sets_ == 0) {
      num_sets_ = 1;
    }
    // Mask and shift for a power-of-two set count, as the replaced table
    // did: the same set and tag as % and /, without a division per access,
    // so the speed gate times the structures rather than a divide.
    if (num_sets_ > 1 && (num_sets_ & (num_sets_ - 1)) == 0) {
      set_mask_ = num_sets_ - 1;
      set_shift_ = static_cast<uint32_t>(__builtin_ctzll(num_sets_));
    }
    table_.assign(num_sets_ * ways_, Way{});
  }

  bool Access(uint64_t paddr) {
    const uint64_t line = paddr / common::kCacheline;
    const uint64_t set = set_mask_ != 0 ? line & set_mask_ : line % num_sets_;
    const uint64_t tag = set_mask_ != 0 ? line >> set_shift_ : line / num_sets_;
    tick_++;
    Way* base = &table_[set * ways_];
    Way* victim = base;
    for (uint32_t w = 0; w < ways_; w++) {
      Way& way = base[w];
      if (way.valid && way.tag == tag) {
        way.lru = tick_;
        return true;
      }
      if (!way.valid) {
        victim = &way;
      } else if (victim->valid && way.lru < victim->lru) {
        victim = &way;
      }
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lru = tick_;
    return false;
  }

  // Invalidates every way and restarts the LRU tick.
  void Flush() {
    for (Way& way : table_) {
      way.valid = false;
    }
    tick_ = 0;
  }

  // FNV-1a over every way's (valid, tag, recency rank) in set/way order,
  // where the rank counts the set's valid ways with a larger stamp (0 = most
  // recent); an invalid way contributes only its valid byte. Same definition
  // as vmem::LlcCache::StateHash. The rank, not the stamp, is hashed because
  // replacement sees only relative recency, which vmem::LlcCache keeps
  // without stamps.
  uint64_t StateHash() const {
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
      for (int i = 0; i < 8; i++) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 0x100000001b3ull;
      }
    };
    for (uint64_t s = 0; s < num_sets_; s++) {
      const Way* set = &table_[s * ways_];
      for (uint32_t w = 0; w < ways_; w++) {
        mix(set[w].valid ? 1 : 0);
        if (set[w].valid) {
          uint64_t rank = 0;
          for (uint32_t o = 0; o < ways_; o++) {
            rank += set[o].valid && set[o].lru > set[w].lru ? 1 : 0;
          }
          mix(set[w].tag);
          mix(rank);
        }
      }
    }
    return h;
  }

 private:
  struct Way {
    uint64_t tag = 0;
    uint64_t lru = 0;  // larger = more recent
    bool valid = false;
  };

  uint32_t ways_;
  uint64_t num_sets_;
  uint64_t set_mask_ = 0;  // num_sets_ - 1, or 0 when not a power of two
  uint32_t set_shift_ = 0;
  uint64_t tick_ = 0;
  std::vector<Way> table_;  // num_sets_ x ways_
};

}  // namespace refsim

#endif  // TESTS_REF_SIM_H_
