#include "src/vmem/llc_cache.h"

#include "src/common/units.h"

namespace vmem {

LlcCache::LlcCache(const MmuParams& params) : ways_(params.llc_ways) {
  const uint64_t lines = params.llc_bytes / common::kCacheline;
  num_sets_ = lines / ways_;
  if (num_sets_ == 0) {
    num_sets_ = 1;
  }
  if (num_sets_ > 1 && (num_sets_ & (num_sets_ - 1)) == 0) {
    set_mask_ = num_sets_ - 1;
    set_shift_ = static_cast<uint32_t>(__builtin_ctzll(num_sets_));
  }
  // Round each set's block up to whole cachelines so blocks never share a
  // line and a probe's footprint is a fixed handful of contiguous lines;
  // over-allocate so set 0 can start on a cacheline boundary.
  constexpr uint64_t kU64sPerLine = common::kCacheline / sizeof(uint64_t);
  nsig_ = (ways_ + 7) / 8;
  set_stride_ = (1 + nsig_ + 2 * uint64_t{ways_} + kU64sPerLine - 1) & ~(kU64sPerLine - 1);
  blocks_.assign(num_sets_ * set_stride_ + kU64sPerLine - 1, 0);
  const uintptr_t raw = reinterpret_cast<uintptr_t>(blocks_.data());
  const uintptr_t aligned = (raw + common::kCacheline - 1) & ~uintptr_t{common::kCacheline - 1};
  base_ = blocks_.data() + (aligned - raw) / sizeof(uint64_t);
}

bool LlcCache::AccessMiss(uint64_t* block, uint64_t valid, uint64_t tag) {
  uint64_t* tags = block + 1 + nsig_;
  uint64_t* stamps = tags + ways_;
  uint32_t victim;
  const uint64_t ways_mask = ways_ == 64 ? ~0ull : (1ull << ways_) - 1;
  const uint64_t invalid = ~valid & ways_mask;
  if (invalid != 0) {
    // The last invalid way: highest set bit of the invalid mask.
    victim = 63u - static_cast<uint32_t>(__builtin_clzll(invalid));
  } else {
    victim = 0;
    uint64_t best = stamps[0];
    for (uint32_t w = 1; w < ways_; w++) {
      // cmov-friendly strict-min scan; ties keep the lowest index.
      const bool lower = stamps[w] < best;
      victim = lower ? w : victim;
      best = lower ? stamps[w] : best;
    }
  }
  block[0] = valid | (1ull << victim);
  const uint32_t shift = victim % 8 * 8;
  uint64_t& sig_word = block[1 + victim / 8];
  sig_word = (sig_word & ~(0xffull << shift)) | (uint64_t{Sig8(tag)} << shift);
  tags[victim] = tag;
  stamps[victim] = tick_;
  return false;
}

void LlcCache::Flush() {
  for (uint64_t s = 0; s < num_sets_; s++) {
    base_[s * set_stride_] = 0;
  }
  tick_ = 0;
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
    const uint64_t* block = base_ + s * set_stride_;
    for (uint32_t w = 0; w < ways_; w++) {
      // Hash only live state: an invalid way's tag/stamp are policy-invisible
      // (Flush leaves stale values behind).
      const bool valid = (block[0] >> w & 1) != 0;
      mix(valid ? 1 : 0);
      if (valid) {
        mix(block[1 + nsig_ + w]);
        mix(block[1 + nsig_ + ways_ + w]);
      }
    }
  }
  return h;
}

}  // namespace vmem
