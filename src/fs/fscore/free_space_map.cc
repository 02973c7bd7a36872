#include "src/fs/fscore/free_space_map.h"

#include <cassert>

#include "src/common/units.h"

namespace fscore {

using common::kBlocksPerHugepage;

namespace {

// Whole 2 MiB-aligned regions inside the run [start, start + len).
uint64_t AlignedRegionsIn(uint64_t start, uint64_t len) {
  const uint64_t aligned = common::RoundUp(start, kBlocksPerHugepage);
  return aligned < start + len ? (start + len - aligned) / kBlocksPerHugepage : 0;
}

}  // namespace

void FreeSpaceMap::AddRun(uint64_t start, uint64_t len) {
  free_blocks_ += len;
  aligned_regions_ += AlignedRegionsIn(start, len);
  run_lengths_[len]++;
}

void FreeSpaceMap::DropRun(uint64_t start, uint64_t len) {
  free_blocks_ -= len;
  aligned_regions_ -= AlignedRegionsIn(start, len);
  const auto it = run_lengths_.find(len);
  assert(it != run_lengths_.end());
  if (--it->second == 0) {
    run_lengths_.erase(it);
  }
}

void FreeSpaceMap::Release(uint64_t start_block, uint64_t len) {
  if (len == 0) {
    return;
  }
  auto next = free_.lower_bound(start_block);
  // Merge with predecessor.
  if (next != free_.begin()) {
    auto prev = std::prev(next);
    assert(prev->first + prev->second <= start_block && "double free");
    if (prev->first + prev->second == start_block) {
      DropRun(prev->first, prev->second);
      prev->second += len;
      if (next != free_.end() && prev->first + prev->second == next->first) {
        DropRun(next->first, next->second);
        prev->second += next->second;
        free_.erase(next);
      }
      AddRun(prev->first, prev->second);
      return;
    }
  }
  // Merge with successor.
  if (next != free_.end()) {
    assert(start_block + len <= next->first && "double free");
    if (start_block + len == next->first) {
      DropRun(next->first, next->second);
      const uint64_t merged_len = len + next->second;
      free_.emplace_hint(free_.erase(next), start_block, merged_len);
      AddRun(start_block, merged_len);
      return;
    }
  }
  free_.emplace_hint(next, start_block, len);
  AddRun(start_block, len);
}

void FreeSpaceMap::Take(std::map<uint64_t, uint64_t>::iterator it, uint64_t offset_in_run,
                        uint64_t len) {
  const uint64_t run_start = it->first;
  const uint64_t run_len = it->second;
  assert(offset_in_run + len <= run_len);
  const uint64_t tail_start = run_start + offset_in_run + len;
  const uint64_t tail = run_start + run_len - tail_start;
  DropRun(run_start, run_len);
  const auto next = std::next(it);
  if (offset_in_run > 0) {
    it->second = offset_in_run;
    AddRun(run_start, offset_in_run);
  } else {
    free_.erase(it);
  }
  if (tail > 0) {
    free_.emplace_hint(next, tail_start, tail);
    AddRun(tail_start, tail);
  }
}

void FreeSpaceMap::ReserveRange(uint64_t start_block, uint64_t len) {
  auto it = free_.upper_bound(start_block);
  assert(it != free_.begin());
  --it;
  assert(start_block >= it->first && start_block + len <= it->first + it->second &&
         "range not free");
  Take(it, start_block - it->first, len);
}

std::optional<Extent> FreeSpaceMap::AllocFirstFit(uint64_t len, uint64_t goal) {
  // Search from the goal forward, then wrap.
  for (int pass = 0; pass < 2; pass++) {
    auto it = pass == 0 ? free_.lower_bound(goal) : free_.begin();
    auto end = pass == 0 ? free_.end() : free_.lower_bound(goal);
    for (; it != end; ++it) {
      if (it->second >= len) {
        const Extent ext{it->first, len};
        Take(it, 0, len);
        return ext;
      }
    }
  }
  return std::nullopt;
}

std::optional<Extent> FreeSpaceMap::AllocFirstFitPreferAligned(uint64_t len, uint64_t goal) {
  for (int pass = 0; pass < 2; pass++) {
    auto it = pass == 0 ? free_.lower_bound(goal) : free_.begin();
    auto end = pass == 0 ? free_.end() : free_.lower_bound(goal);
    for (; it != end; ++it) {
      if (it->second < len) {
        continue;
      }
      const uint64_t run_start = it->first;
      const uint64_t aligned = common::RoundUp(run_start, kBlocksPerHugepage);
      if (aligned + len <= run_start + it->second) {
        const Extent ext{aligned, len};
        Take(it, aligned - run_start, len);
        return ext;
      }
      const Extent ext{run_start, len};
      Take(it, 0, len);
      return ext;
    }
  }
  return std::nullopt;
}

std::optional<Extent> FreeSpaceMap::AllocBestFit(uint64_t len) {
  // The smallest run length that fits; its lowest-addressed run is the fit.
  const auto fit = run_lengths_.lower_bound(len);
  if (fit == run_lengths_.end()) {
    return std::nullopt;
  }
  auto best = free_.begin();
  while (best->second != fit->first) {
    ++best;
  }
  const Extent ext{best->first, len};
  Take(best, 0, len);
  return ext;
}

std::optional<Extent> FreeSpaceMap::AllocAligned(uint64_t len) {
  assert(len <= kBlocksPerHugepage);
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    const uint64_t aligned = common::RoundUp(it->first, kBlocksPerHugepage);
    if (aligned + len <= it->first + it->second) {
      const Extent ext{aligned, len};
      Take(it, aligned - it->first, len);
      return ext;
    }
  }
  return std::nullopt;
}

std::optional<Extent> FreeSpaceMap::AllocAny(uint64_t len) {
  if (free_.empty()) {
    return std::nullopt;
  }
  // Prefer an exact-ish small run to avoid breaking big ones.
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    if (it->second >= len && it->second < kBlocksPerHugepage) {
      const Extent ext{it->first, len};
      Take(it, 0, len);
      return ext;
    }
  }
  return AllocFirstFit(len, 0);
}

bool FreeSpaceMap::ContainsRange(uint64_t start_block, uint64_t len) const {
  auto it = free_.upper_bound(start_block);
  if (it == free_.begin()) {
    return false;
  }
  --it;
  return start_block >= it->first && start_block + len <= it->first + it->second;
}

FreeSpaceMap::RunLengthHistogram FreeSpaceMap::RunHistogram() const {
  RunLengthHistogram hist;
  for (const auto& [len, runs] : run_lengths_) {
    if (len < 16) {
      hist.lt_16 += runs;
    } else if (len < 128) {
      hist.lt_128 += runs;
    } else if (len < 512) {
      hist.lt_512 += runs;
    } else {
      hist.ge_512 += runs;
    }
  }
  return hist;
}

}  // namespace fscore
