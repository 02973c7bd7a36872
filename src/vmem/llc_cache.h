// Set-associative last-level cache simulator, physically indexed on 64 B
// lines. Application data lines and page-table lines share capacity — the
// mechanism behind Fig 4/Fig 8: with base pages, page-walk traffic evicts the
// application's hot set.
//
// Policy: a hit makes its way the most recent; a miss fills the last invalid
// way if one exists, otherwise the least recent way.
//
// Layout: a set's whole state sits in two host lines. A 16 B header holds
// the valid mask and the recency order, a 64-bit permutation of the ways in
// 4-bit nibbles (nibble 0 = most recent). A 64 B tag line holds one 32-bit
// tag per way, all compared in one SIMD pass. Headers and tag lines are two
// arrays (640 KiB per simulated CPU at the default 8192 sets x 16 ways). So
// a set holds at most 16 ways, and a tag (line / sets) must fit 32 bits: the
// default cache covers simulated addresses below 2^51, and an access above a
// geometry's reach aborts rather than alias. The array-of-structs table with
// per-way LRU stamps lives on as a test oracle (tests/ref_sim.h) that must
// make the same decisions and reach the same state.
#ifndef SRC_VMEM_LLC_CACHE_H_
#define SRC_VMEM_LLC_CACHE_H_

#include <cstdint>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "src/common/prefetch.h"
#include "src/common/units.h"
#include "src/vmem/mmu_params.h"

namespace vmem {

class LlcCache {
 public:
  // Ways a set can hold: the recency permutation has 16 nibbles.
  static constexpr uint32_t kMaxWays = 16;

  // Aborts with a message unless 1 <= params.llc_ways <= kMaxWays.
  explicit LlcCache(const MmuParams& params);

  // Touches the line containing `paddr`; returns true on hit. Misses fill the
  // line (evicting LRU in the set). Defined inline below so the hit probe runs
  // without a function call. Aborts if the line's tag does not fit 32 bits.
  bool Access(uint64_t paddr);

  // Host cache hints for both lines Access(paddr) reads: the set's header and
  // its tag line. Reads and changes no cache state.
  void PrefetchSet(uint64_t paddr) const {
    const uint64_t set = SetOf(paddr / common::kCacheline);
    common::PrefetchLine(&headers_[set]);
    common::PrefetchLine(&tag_lines_[set]);
  }

  void Flush();

  uint64_t num_sets() const { return num_sets_; }

  // FNV-1a over every way in set/way order: its valid flag and, if valid, its
  // tag and its recency rank among the set's valid ways (0 = most recent).
  // Independent of the backing layout, so the differential test can assert
  // the cache and its oracle reach the same state, not just the same hit/miss
  // answers.
  uint64_t StateHash() const;

 private:
  // Nibble i of `order` is the way at recency position i.
  static constexpr uint64_t kIdentityOrder = 0xfedcba9876543210ull;
  static constexpr uint64_t kNibbleLow = 0x1111111111111111ull;
  static constexpr uint64_t kNibbleHigh = 0x8888888888888888ull;

  struct alignas(16) SetHeader {
    uint64_t valid = 0;  // bit per way
    uint64_t order = kIdentityOrder;
  };
  struct alignas(64) TagLine {
    uint32_t tag[kMaxWays] = {};
  };

  uint64_t SetOf(uint64_t line) const {
    return set_mask_ != 0 ? line & set_mask_ : line % num_sets_;
  }

  // Bit w set iff tag line way w holds `tag` (valid or not).
  static uint32_t MatchMask(const TagLine& line, uint32_t tag) {
#if defined(__SSE2__)
    const __m128i key = _mm_set1_epi32(static_cast<int>(tag));
    const __m128i* lanes = reinterpret_cast<const __m128i*>(line.tag);
    const __m128i ways_0_7 = _mm_packs_epi32(_mm_cmpeq_epi32(_mm_load_si128(lanes), key),
                                             _mm_cmpeq_epi32(_mm_load_si128(lanes + 1), key));
    const __m128i ways_8_15 = _mm_packs_epi32(_mm_cmpeq_epi32(_mm_load_si128(lanes + 2), key),
                                              _mm_cmpeq_epi32(_mm_load_si128(lanes + 3), key));
    return static_cast<uint32_t>(_mm_movemask_epi8(_mm_packs_epi16(ways_0_7, ways_8_15)));
#else
    uint32_t mask = 0;
    for (uint32_t w = 0; w < kMaxWays; w++) {
      mask |= static_cast<uint32_t>(line.tag[w] == tag) << w;
    }
    return mask;
#endif
  }

  // Recency position of `way` in `order`. Every nibble value occurs once, so
  // the lowest zero nibble of order ^ way-in-every-nibble is the only one (the
  // zero-nibble detect can flag extra nibbles, but only above a true zero).
  static uint32_t PositionOf(uint64_t order, uint32_t way) {
    const uint64_t x = order ^ (kNibbleLow * way);
    return static_cast<uint32_t>(__builtin_ctzll((x - kNibbleLow) & ~x & kNibbleHigh)) / 4;
  }

  // `order` with the way at position `pos` moved to position 0 and the ways
  // before it each moved back one.
  static uint64_t MoveToFront(uint64_t order, uint32_t pos) {
    const uint64_t before = (1ull << (4 * pos)) - 1;
    const uint64_t through = (before << 4) | 0xf;
    return (order & ~through) | ((order & before) << 4) | (order >> (4 * pos) & 0xf);
  }

  [[noreturn]] static void TagTooWide(uint64_t paddr);

  bool AccessMiss(SetHeader& header, TagLine& line, uint32_t tag);

  uint32_t ways_;
  uint64_t num_sets_;
  // When num_sets_ is a power of two, set/tag come from mask+shift instead of
  // div/mod — same values, cheaper on the hot path.
  uint64_t set_mask_ = 0;  // num_sets_ - 1, or 0 when not a power of two
  uint32_t set_shift_ = 0;
  std::vector<SetHeader> headers_;
  std::vector<TagLine> tag_lines_;
};

inline bool LlcCache::Access(uint64_t paddr) {
  const uint64_t line = paddr / common::kCacheline;
  const uint64_t set = SetOf(line);
  const uint64_t tag = set_mask_ != 0 ? line >> set_shift_ : line / num_sets_;
  if (__builtin_expect(tag > UINT32_MAX, 0)) {
    TagTooWide(paddr);
  }
  SetHeader& header = headers_[set];
  TagLine& tags = tag_lines_[set];
  // A tag occurs at most once among a set's valid ways; an invalid way may
  // still hold a stale copy, which the valid mask rules out.
  const uint32_t hit =
      MatchMask(tags, static_cast<uint32_t>(tag)) & static_cast<uint32_t>(header.valid);
  if (hit != 0) {
    const uint32_t way = static_cast<uint32_t>(__builtin_ctz(hit));
    header.order = MoveToFront(header.order, PositionOf(header.order, way));
    return true;
  }
  return AccessMiss(header, tags, static_cast<uint32_t>(tag));
}

}  // namespace vmem

#endif  // SRC_VMEM_LLC_CACHE_H_
