// Free-space tracking: an address-ordered map of free extents with merging on
// release, plus the allocation disciplines the different filesystems use
// (first-fit from a goal, best-fit by size, aligned carve-out). The statistics
// StatFs reports (free blocks, 2 MiB-aligned free regions, largest run) are
// kept current where runs change, so reading them never walks the map.
#ifndef SRC_FS_FSCORE_FREE_SPACE_MAP_H_
#define SRC_FS_FSCORE_FREE_SPACE_MAP_H_

#include <cstdint>
#include <map>
#include <optional>

#include "src/fs/fscore/extent.h"
#include "src/vfs/file_system.h"

namespace fscore {

class FreeSpaceMap {
 public:
  FreeSpaceMap() = default;

  // Adds [start, start+len) to the free pool, merging with neighbours.
  void Release(uint64_t start_block, uint64_t len);

  // Removes a specific range (must be entirely free). Used when rebuilding
  // from the on-PM inode scan and when carving reserved regions.
  void ReserveRange(uint64_t start_block, uint64_t len);

  // First free run of >= len blocks at or after `goal`, wrapping around.
  // Allocates from the head of the run (ext4-style locality).
  std::optional<Extent> AllocFirstFit(uint64_t len, uint64_t goal = 0);

  // First-fit, but if the chosen run can host a 2 MiB-aligned start for the
  // whole request, round up to it (mballoc-style normalization: alignment is
  // taken when it is free within the locality target, never hunted for).
  std::optional<Extent> AllocFirstFitPreferAligned(uint64_t len, uint64_t goal = 0);

  // Smallest free run that fits (xfs-style by-size policy, ignores alignment).
  std::optional<Extent> AllocBestFit(uint64_t len);

  // A 2 MiB-aligned run of exactly `len` blocks (len <= 512); returns the
  // aligned head of a hugepage-capable region if one exists.
  std::optional<Extent> AllocAligned(uint64_t len);

  // Take at most `len` blocks from any run (used for log pages / holes).
  std::optional<Extent> AllocAny(uint64_t len);

  bool ContainsRange(uint64_t start_block, uint64_t len) const;

  uint64_t free_blocks() const { return free_blocks_; }
  uint64_t CountAlignedFreeRegions() const { return aligned_regions_; }
  uint64_t LargestRun() const {
    return run_lengths_.empty() ? 0 : run_lengths_.rbegin()->first;
  }

  // Coarse histogram of free-run lengths, the fragmentation fingerprint the
  // gauge probes export: runs shorter than 16 blocks (64 KiB) are unusable
  // for large allocations, 512+ blocks (2 MiB) are hugepage candidates.
  struct RunLengthHistogram {
    uint64_t lt_16 = 0;    // [1, 16) blocks
    uint64_t lt_128 = 0;   // [16, 128)
    uint64_t lt_512 = 0;   // [128, 512)
    uint64_t ge_512 = 0;   // >= 512 (2 MiB+)

    RunLengthHistogram& operator+=(const RunLengthHistogram& o) {
      lt_16 += o.lt_16;
      lt_128 += o.lt_128;
      lt_512 += o.lt_512;
      ge_512 += o.ge_512;
      return *this;
    }
  };
  RunLengthHistogram RunHistogram() const;

  const std::map<uint64_t, uint64_t>& runs() const { return free_; }

 private:
  void Take(std::map<uint64_t, uint64_t>::iterator it, uint64_t offset_in_run, uint64_t len);
  // Statistics bookkeeping for one run entering or leaving free_. Every
  // change to free_ pairs a DropRun of each run it removes or shrinks with an
  // AddRun of each run it creates or grows.
  void AddRun(uint64_t start, uint64_t len);
  void DropRun(uint64_t start, uint64_t len);

  std::map<uint64_t, uint64_t> free_;         // start -> len, disjoint, merged
  std::map<uint64_t, uint64_t> run_lengths_;  // run length -> runs of that length
  uint64_t free_blocks_ = 0;
  uint64_t aligned_regions_ = 0;  // whole 2 MiB-aligned regions inside runs
};

}  // namespace fscore

#endif  // SRC_FS_FSCORE_FREE_SPACE_MAP_H_
