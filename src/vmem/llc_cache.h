// Set-associative last-level cache simulator, physically indexed on 64 B
// lines. Application data lines and page-table lines share capacity — the
// mechanism behind Fig 4/Fig 8: with base pages, page-walk traffic evicts the
// application's hot set.
//
// Policy: a hit refreshes the way's LRU stamp; a miss fills the last invalid
// way if one exists, otherwise the lowest-indexed way with the minimum stamp.
// The sets are packed per-set blocks with a valid bitmask; the
// array-of-structs table they replaced lives on as a test oracle
// (tests/ref_sim.h) that must make the same decisions and reach the same
// state.
#ifndef SRC_VMEM_LLC_CACHE_H_
#define SRC_VMEM_LLC_CACHE_H_

#include <cstdint>
#include <vector>

#include "src/common/prefetch.h"
#include "src/common/units.h"
#include "src/vmem/mmu_params.h"

namespace vmem {

class LlcCache {
 public:
  explicit LlcCache(const MmuParams& params);

  // Touches the line containing `paddr`; returns true on hit. Misses fill the
  // line (evicting LRU in the set). Defined inline below so the hit probe — a
  // branchless tag scan — runs without a function call.
  bool Access(uint64_t paddr);

  // Host cache hint for the first line of the set block that Access(paddr)
  // probes (valid mask and tag signatures). Reads and changes no cache state.
  void PrefetchSet(uint64_t paddr) const {
    common::PrefetchLine(base_ + SetOf(paddr / common::kCacheline) * set_stride_);
  }

  void Flush();

  uint64_t num_sets() const { return num_sets_; }

  // FNV-1a over every way's (valid, tag, lru) in set/way order, independent of
  // the backing layout. Lets the differential test assert the cache and its
  // oracle reach the same state, not just the same hit/miss answers.
  uint64_t StateHash() const;

 private:
  uint64_t SetOf(uint64_t line) const {
    return set_mask_ != 0 ? line & set_mask_ : line % num_sets_;
  }

  static uint8_t Sig8(uint64_t tag) {
    return static_cast<uint8_t>((tag * 0x9e3779b97f4a7c15ull) >> 56);
  }

  bool AccessMiss(uint64_t* block, uint64_t valid, uint64_t tag);

  uint32_t ways_;
  uint64_t num_sets_;
  // When num_sets_ is a power of two, set/tag come from mask+shift instead of
  // div/mod — same values, cheaper on the hot path.
  uint64_t set_mask_ = 0;  // num_sets_ - 1, or 0 when not a power of two
  uint32_t set_shift_ = 0;
  uint64_t tick_ = 0;

  // One packed block of (1 + nsig_ + 2*ways_) u64s per set —
  // valid bitmask (ways_ <= 64), one 8-bit tag signature per way (eight ways
  // per u64 word), then tags, then LRU stamps — padded to whole cachelines
  // and based at a cacheline-aligned pointer (base_) inside blocks_. The
  // probe reads the valid mask and signatures (one cacheline covers both for
  // typical associativities) and only touches a tag word to verify a
  // signature candidate, instead of scanning the whole tag array.
  uint32_t nsig_ = 0;        // signature words per set: ceil(ways_ / 8)
  uint64_t set_stride_ = 0;  // u64s per set block
  std::vector<uint64_t> blocks_;
  uint64_t* base_ = nullptr;  // 64 B-aligned start of set 0 inside blocks_
};

inline bool LlcCache::Access(uint64_t paddr) {
  const uint64_t line = paddr / common::kCacheline;
  const uint64_t set = SetOf(line);
  const uint64_t tag = set_mask_ != 0 ? line >> set_shift_ : line / num_sets_;
  tick_++;
  uint64_t* block = base_ + set * set_stride_;
  const uint64_t valid = block[0];
  const uint64_t* tags = block + 1 + nsig_;
  // SWAR signature probe: a zero byte in sig word ^ (signature repeated to
  // all lanes) marks a candidate way. The zero-byte detect can flag extra
  // lanes (a borrow from a lower true match, or the stale signature of an
  // invalid way), so candidates are verified against the valid mask and the
  // full tag; it never misses a real match. A tag occurs at most once among
  // a set's valid ways.
  const uint64_t probe = 0x0101010101010101ull * Sig8(tag);
  for (uint32_t j = 0; j < nsig_; j++) {
    const uint64_t x = block[1 + j] ^ probe;
    uint64_t cand = (x - 0x0101010101010101ull) & ~x & 0x8080808080808080ull;
    while (cand != 0) {
      const uint32_t w = j * 8 + (static_cast<uint32_t>(__builtin_ctzll(cand)) >> 3);
      if ((valid >> w & 1) != 0 && tags[w] == tag) {
        block[1 + nsig_ + ways_ + w] = tick_;
        return true;
      }
      cand &= cand - 1;
    }
  }
  return AccessMiss(block, valid, tag);
}

}  // namespace vmem

#endif  // SRC_VMEM_LLC_CACHE_H_
