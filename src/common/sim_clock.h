// Deterministic simulated time.
//
// Every thread of a simulated workload owns a SimClock and charges modeled
// nanoseconds to it. Serialization points in the system (a global journal, a
// directory inode lock, PM write bandwidth) are ResourceClocks: acquiring one
// advances the caller to max(caller, resource) before the hold time is added,
// which reproduces queueing/contention deterministically without measuring
// host wall-clock time.
#ifndef SRC_COMMON_SIM_CLOCK_H_
#define SRC_COMMON_SIM_CLOCK_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <atomic>
#include <mutex>
#include <string>
#include <thread>

namespace common {

class SimClock {
 public:
  SimClock() = default;

  void Advance(uint64_t nanos) { now_ns_ += nanos; }
  void AdvanceTo(uint64_t nanos) {
    if (nanos > now_ns_) {
      now_ns_ = nanos;
    }
  }
  uint64_t NowNs() const { return now_ns_; }
  void Reset() { now_ns_ = 0; }
  // Direct adjustment; used by the mount path to model parallel recovery
  // (work measured on one context, then divided across scanner threads).
  void SetNs(uint64_t nanos) { now_ns_ = nanos; }

 private:
  uint64_t now_ns_ = 0;
};

// A shared, serializing resource. Threads that Acquire() it queue behind one
// another in simulated time. Thread-safe.
class ResourceClock {
 public:
  explicit ResourceClock(std::string name) : name_(std::move(name)) {}

  // Blocks (in simulated time) until the resource is free, holds it for
  // `hold_ns`, and advances `clock` past the hold. Returns the wait time that
  // was spent queueing (contention), for diagnostics.
  uint64_t Acquire(SimClock& clock, uint64_t hold_ns) {
    std::lock_guard<std::mutex> guard(mu_);
    const uint64_t start = clock.NowNs();
    clock.AdvanceTo(free_at_ns_);
    const uint64_t waited = clock.NowNs() - start;
    clock.Advance(hold_ns);
    free_at_ns_ = clock.NowNs();
    total_hold_ns_ += hold_ns;
    total_wait_ns_ += waited;
    acquisitions_++;
    return waited;
  }

  const std::string& name() const { return name_; }
  uint64_t total_wait_ns() const {
    std::lock_guard<std::mutex> guard(mu_);
    return total_wait_ns_;
  }
  uint64_t acquisitions() const {
    std::lock_guard<std::mutex> guard(mu_);
    return acquisitions_;
  }

  void Reset() {
    std::lock_guard<std::mutex> guard(mu_);
    free_at_ns_ = 0;
    total_hold_ns_ = 0;
    total_wait_ns_ = 0;
    acquisitions_ = 0;
  }

 private:
  mutable std::mutex mu_;
  std::string name_;
  uint64_t free_at_ns_ = 0;
  uint64_t total_hold_ns_ = 0;
  uint64_t total_wait_ns_ = 0;
  uint64_t acquisitions_ = 0;
};

// Pause-looped spinlock for critical sections of a few nanoseconds. The
// syscall spine takes SharedResource's lock on EVERY operation; a futex-based
// std::mutex round trip there costs more host time than the protected window
// arithmetic itself. Waiters spin on a plain load (test-and-test-and-set), so
// a held lock's cache line stays shared instead of being pulled exclusive by
// every failed exchange, and after a bounded spin they yield the host CPU to
// a holder that was preempted.
class SpinMutex {
 public:
  void lock() {
    uint32_t spins = 0;
    while (locked_.exchange(true, std::memory_order_acquire)) {
      while (locked_.load(std::memory_order_relaxed)) {
        if (++spins < kSpinsBeforeYield) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        } else {
          std::this_thread::yield();
        }
      }
    }
  }
  void unlock() { locked_.store(false, std::memory_order_release); }

 private:
  static constexpr uint32_t kSpinsBeforeYield = 256;
  std::atomic<bool> locked_{false};
};

// A shared server with capacity 1, accounted in fixed windows of simulated
// time: each window can service at most its own duration of work. The
// admission rule depends only on how much capacity the requester's OWN time
// window has left, so it is insensitive to the order simulated threads
// happen to execute in — a lagging thread is never delayed by work a leading
// thread performed in a later window, but demand exceeding a window's
// capacity spills into the next one (queueing).
class SharedResource {
 public:
  explicit SharedResource(std::string name) : name_(std::move(name)) {}

  uint64_t Acquire(SimClock& clock, uint64_t hold_ns) {
    std::lock_guard<SpinMutex> guard(mu_);
    uint64_t t = clock.NowNs();
    const uint64_t arrived = t;
    uint64_t remaining = hold_ns;
    while (remaining > 0) {
      const uint64_t bucket = t / kWindowNs;
      Window& win = ring_[bucket % kRingSize];
      if (win.index != bucket) {
        // (Re)claim the slot; capacity from evicted far-past windows is gone.
        win.index = bucket;
        win.consumed_ns = 0;
      }
      const uint64_t window_end = (bucket + 1) * kWindowNs;
      const uint64_t capacity_left = kWindowNs - win.consumed_ns;
      const uint64_t time_left = window_end - t;
      const uint64_t use = std::min({remaining, capacity_left, time_left});
      if (use == 0) {
        t = window_end;  // window's capacity pool drained: spill to the next
        continue;
      }
      win.consumed_ns += use;
      t += use;
      remaining -= use;
    }
    total_wait_ns_ += t - arrived - hold_ns;
    clock.AdvanceTo(t);
    return t - arrived - hold_ns;
  }

  uint64_t total_wait_ns() const {
    std::lock_guard<SpinMutex> guard(mu_);
    return total_wait_ns_;
  }

 private:
  static constexpr uint64_t kWindowNs = 20000;  // 20 us accounting windows
  static constexpr size_t kRingSize = 1024;

  struct Window {
    uint64_t index = ~0ull;
    uint64_t consumed_ns = 0;
  };

  mutable SpinMutex mu_;
  std::string name_;
  std::array<Window, kRingSize> ring_{};
  uint64_t total_wait_ns_ = 0;
};

}  // namespace common

#endif  // SRC_COMMON_SIM_CLOCK_H_
