// SimMutex: a mutex whose contention is modeled in simulated time.
//
// Real std::mutex serializes the host threads (data-race safety). For
// simulated time, the mutex keeps a ledger of recent busy intervals
// [lock_time, unlock_time) on the holders' simulated clocks. A simulated
// thread acquiring the lock is delayed only if its own clock falls inside a
// recorded busy interval — then it advances to that interval's end (chaining
// through back-to-back intervals). Threads whose simulated "now" misses every
// busy window proceed untouched, so lightly-held locks do not serialize
// timelines, while long holds (a stop-the-world journal commit) stall every
// concurrent timeline that lands in them.
//
// A mutex can carry a site name ("winefs.journal.cpu3", "ext4.jbd2"); when a
// profiler is attached to the acquiring context, every acquire/release pair
// is reported to it as a named lock event with the modeled wait and hold, so
// contention reports attribute queueing to specific locks. The hook is
// observation-only: it fires after the modeled times are already final.
#ifndef SRC_COMMON_SIM_MUTEX_H_
#define SRC_COMMON_SIM_MUTEX_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>

#include "src/common/exec_context.h"
#include "src/common/sim_clock.h"
#include "src/common/prof.h"

namespace common {

class SimMutex {
 public:
  SimMutex() = default;
  explicit SimMutex(std::string site) : site_(std::move(site)) {}
  SimMutex(const SimMutex&) = delete;
  SimMutex& operator=(const SimMutex&) = delete;

  // Names (or renames) the lock site. Setup-time only (e.g. per-CPU pool
  // locks named after geometry is chosen); invalidates any cached handle.
  void set_site(std::string site) {
    std::lock_guard<SpinMutex> guard(mu_);
    site_ = std::move(site);
    site_owner_ = nullptr;
  }

  void Lock(ExecContext& ctx) {
    mu_.lock();
    const uint64_t arrived = ctx.clock.NowNs();
    uint64_t now = arrived;
    // Chase the busy intervals: waiting inside one may land us in the next.
    // An arrival at or past every end ever recorded lies in no interval, so
    // the scan is skipped (same result).
    bool moved = arrived < max_end_ns_;
    int guard = 0;
    while (moved && guard++ < 2 * kRingSize) {
      moved = false;
      for (const Interval& interval : ring_) {
        if (now >= interval.start && now < interval.end) {
          now = interval.end;
          moved = true;
        }
      }
    }
    wait_ns_ += now - arrived;
    last_wait_ns_ = now - arrived;
    ctx.clock.AdvanceTo(now);
    cs_enter_ns_ = ctx.clock.NowNs();
  }

  void Unlock(ExecContext& ctx) {
    const uint64_t end = ctx.clock.NowNs();
    if (end > cs_enter_ns_) {
      ring_[head_] = Interval{cs_enter_ns_, end};
      head_ = (head_ + 1) % kRingSize;
      max_end_ns_ = std::max(max_end_ns_, end);
    }
    if (ctx.profiler != nullptr) {
      // Resolve-once per attached profiler; mu_ is still held, so the cached
      // triple can't race with other acquirers.
      if (site_owner_ != ctx.profiler) {
        site_owner_ = ctx.profiler;
        site_handle_ = ctx.profiler->RegisterLockSite(
            site_.empty() ? std::string_view("lock.unnamed") : std::string_view(site_));
        site_cell_ = ctx.profiler->LockSiteCellFor(site_handle_);
      }
      RecordLockRelease(ctx.profiler, ctx, site_cell_, site_handle_, last_wait_ns_,
                        end - cs_enter_ns_);
    }
    mu_.unlock();
  }

  uint64_t total_wait_ns() const {
    std::lock_guard<SpinMutex> guard(mu_);
    return wait_ns_;
  }

  // Clears the accumulated wait so back-to-back bench phases sharing a bed
  // don't bleed wait time into each other (ObsSink-reset companion; the
  // attached profiler's per-site aggregates reset through ExecContext::Reset).
  void ResetWaitStats() {
    std::lock_guard<SpinMutex> guard(mu_);
    wait_ns_ = 0;
    last_wait_ns_ = 0;
  }

  const std::string& site() const { return site_; }

  class Guard {
   public:
    Guard(SimMutex& mutex, ExecContext& ctx) : mutex_(mutex), ctx_(ctx) { mutex_.Lock(ctx_); }
    ~Guard() { mutex_.Unlock(ctx_); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    SimMutex& mutex_;
    ExecContext& ctx_;
  };

 private:
  struct Interval {
    uint64_t start = 0;
    uint64_t end = 0;
  };
  static constexpr int kRingSize = 64;

  // Host lock guarding the ledger AND the caller's modeled critical section
  // (it is held from Lock() to Unlock(), so the protected data needs no other
  // host synchronization). A spin lock: under host-parallel sharded execution
  // every per-CPU journal/pool site is taken at op rate, and the critical
  // sections are sub-microsecond host work — a futex round trip costs more.
  mutable SpinMutex mu_;
  // All fields below are guarded by mu_.
  std::string site_;
  std::array<Interval, kRingSize> ring_{};
  size_t head_ = 0;
  uint64_t max_end_ns_ = 0;  // largest Interval::end ever stored in ring_
  uint64_t cs_enter_ns_ = 0;
  uint64_t wait_ns_ = 0;
  uint64_t last_wait_ns_ = 0;
  // Cached site registration, valid only for this profiler instance.
  ProfilerHook* site_owner_ = nullptr;
  uint32_t site_handle_ = 0;
  LockSiteCell* site_cell_ = nullptr;
};

}  // namespace common

#endif  // SRC_COMMON_SIM_MUTEX_H_
