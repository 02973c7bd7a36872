// Host-parallel execution primitives shared by the ParallelRunner (src/wload)
// and the filesystems that support sharded execution.
//
// Two modes of host parallelism exist (src/wload/parallel_runner.h):
//
//  * Lockstep: worker threads take turns in the exact scalar discrete-event
//    order. Coordination is the LockstepGate below — each worker publishes
//    the packed (clock, tid) key of its next runnable simulated thread and
//    only the worker holding the globally smallest key executes. The
//    release/acquire pair on the key slots carries the happens-before edge
//    from one op's side effects to the next op's reads, so arbitrary shared
//    state (a global journal, shared obs sinks) stays race-free without any
//    internal locking.
//
//  * Sharded: workers free-run over disjoint simulated-thread shards. This is
//    only bit-identical to the scalar schedule under the shard-purity
//    contract (per-thread namespace subtrees, per-CPU journals/allocator
//    pools, order-insensitive global resources — see DESIGN.md). Code paths
//    that BREAK the contract at runtime (allocator cross-pool steals,
//    inode-region exhaustion) report through the HazardSink so callers can
//    detect that determinism is no longer guaranteed instead of silently
//    diverging.
#ifndef SRC_COMMON_SHARD_SYNC_H_
#define SRC_COMMON_SHARD_SYNC_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace common {

// Total-order key for one simulated thread's next operation: the one-worker
// schedule picks the smallest clock, breaking ties by lowest tid. Packing
// the tid into the low 16 bits makes that order a single integer compare.
// Clocks are simulated nanoseconds; 48 bits ≈ 3.2 simulated days, far past
// any workload here.
inline uint64_t PackScheduleKey(uint64_t clock_ns, uint32_t tid) {
  return (clock_ns << 16) | (tid & 0xffff);
}
inline constexpr uint64_t kScheduleKeyDone = ~0ull;

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

// The lockstep turnstile. One published key slot per worker; a worker may
// execute only while its key is the strict global minimum (keys are unique:
// the tid low bits disambiguate equal clocks). A worker that finishes its
// shard publishes kScheduleKeyDone and drops out.
class LockstepGate {
 public:
  explicit LockstepGate(uint32_t workers) : slots_(workers) {
    for (auto& s : slots_) {
      s.key.store(0, std::memory_order_relaxed);
    }
  }

  // Publishes worker `w`'s next key. Release order: every side effect of the
  // op the worker just executed is visible to whichever worker observes this
  // new key and takes the baton.
  void Publish(uint32_t w, uint64_t key) {
    slots_[w].key.store(key, std::memory_order_release);
  }

  // Spins until worker `w`'s published key is the global minimum. Acquire
  // loads pair with the Publish above. Returns false if `key` is
  // kScheduleKeyDone (nothing left to run).
  bool AwaitTurn(uint32_t w, uint64_t key) {
    if (key == kScheduleKeyDone) {
      return false;
    }
    while (true) {
      bool min = true;
      for (uint32_t i = 0; i < slots_.size(); i++) {
        if (i == w) {
          continue;
        }
        if (slots_[i].key.load(std::memory_order_acquire) < key) {
          min = false;
          break;
        }
      }
      if (min) {
        return true;
      }
      std::this_thread::yield();
    }
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> key{0};
  };
  std::vector<Slot> slots_;
};

}  // namespace common

#endif  // SRC_COMMON_SHARD_SYNC_H_
