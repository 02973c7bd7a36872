#include "src/vmem/llc_cache.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "src/common/units.h"

namespace vmem {

LlcCache::LlcCache(const MmuParams& params) : ways_(params.llc_ways) {
  if (ways_ == 0 || ways_ > kMaxWays) {
    std::fprintf(stderr, "vmem::LlcCache: llc_ways = %" PRIu32 ", but a set holds 1 to %" PRIu32
                         " ways\n",
                 ways_, kMaxWays);
    std::abort();
  }
  const uint64_t lines = params.llc_bytes / common::kCacheline;
  num_sets_ = lines / ways_;
  if (num_sets_ == 0) {
    num_sets_ = 1;
  }
  if (num_sets_ > 1 && (num_sets_ & (num_sets_ - 1)) == 0) {
    set_mask_ = num_sets_ - 1;
    set_shift_ = static_cast<uint32_t>(__builtin_ctzll(num_sets_));
  }
  headers_.resize(num_sets_);
  tag_lines_.resize(num_sets_);
}

void LlcCache::TagTooWide(uint64_t paddr) {
  std::fprintf(stderr,
               "vmem::LlcCache: address 0x%" PRIx64 " has a tag wider than 32 bits for this "
               "cache's set count\n",
               paddr);
  std::abort();
}

bool LlcCache::AccessMiss(SetHeader& header, TagLine& line, uint32_t tag) {
  // Every way entered the order's front when it was filled and every hit
  // moved it there again, so once the set is full the order is exact
  // recency: its last position (ways_ - 1) is the least recent way. Ways at
  // positions >= ways_ never move.
  const uint64_t invalid = ~header.valid & ((1ull << ways_) - 1);
  const uint32_t pos =
      invalid != 0
          ? PositionOf(header.order, 63u - static_cast<uint32_t>(__builtin_clzll(invalid)))
          : ways_ - 1;
  const uint32_t victim = header.order >> (4 * pos) & 0xf;
  header.valid |= 1ull << victim;
  header.order = MoveToFront(header.order, pos);
  line.tag[victim] = tag;
  return false;
}

void LlcCache::Flush() {
  for (SetHeader& header : headers_) {
    header = SetHeader{};
  }
}

uint64_t LlcCache::StateHash() const {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; i++) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (uint64_t s = 0; s < num_sets_; s++) {
    const SetHeader& header = headers_[s];
    for (uint32_t w = 0; w < ways_; w++) {
      // Hash only live state: an invalid way's tag is policy-invisible
      // (Flush leaves stale values behind). The valid ways hold the order's
      // first positions, so a way's position is its rank among them.
      const bool valid = (header.valid >> w & 1) != 0;
      mix(valid ? 1 : 0);
      if (valid) {
        mix(tag_lines_[s].tag[w]);
        mix(PositionOf(header.order, w));
      }
    }
  }
  return h;
}

}  // namespace vmem
