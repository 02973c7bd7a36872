// Shard-purity diagnostics for host-parallel runs (src/wload/parallel_runner.h).
//
// Sharded workers free-run over disjoint simulated threads. That is only
// bit-identical to the one-worker schedule under the shard-purity contract
// (per-thread namespace subtrees, per-CPU journals/allocator pools,
// order-insensitive global resources — see DESIGN.md). Code paths that BREAK
// the contract at runtime (allocator cross-pool steals, inode-region
// exhaustion) report through the HazardSink so callers can detect that
// determinism is no longer guaranteed instead of silently diverging.
#ifndef SRC_COMMON_SHARD_SYNC_H_
#define SRC_COMMON_SHARD_SYNC_H_

#include <atomic>
#include <cstdint>

namespace common {

// Counts shard-purity violations observed during a sharded parallel run.
// Relaxed ordering: the count is a post-run diagnostic, never a
// synchronization point.
class HazardSink {
 public:
  void Note(const char* what) {
    count_.fetch_add(1, std::memory_order_relaxed);
    (void)what;
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> count_{0};
};

}  // namespace common

#endif  // SRC_COMMON_SHARD_SYNC_H_
