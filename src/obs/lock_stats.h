// LockSiteRegistry: per-named-lock-site contention accounting.
//
// Each site (one name; per-CPU mutexes may share a name or carry their CPU in
// it) accumulates acquisition counts, total/max wait, total hold, and
// wait/hold latency histograms on the simulated timeline. A bounded ring of
// raw lock events is retained for the Chrome-trace per-lock tracks; the
// profiler keeps its ring of closed zones in the same EventRing.
//
// Hot-path budget: the exact totals (acquisitions/total wait/total hold) live
// in the common::LockSiteCell base and are bumped INLINE at every release by
// common::RecordLockRelease — no call into this registry at all. Only
// contended releases plus a deterministic 1-in-1024 sample of uncontended ones
// reach RecordSampled, which feeds the contended count, max wait, the
// histograms, and the event ring. The wait histogram therefore describes
// contended waits only (uncontended waits are identically zero), and the hold
// histogram is all contended holds plus the uniform uncontended sample.
// Unsynchronized, like obs::Profiler: the simulator is single-host-threaded.
#ifndef SRC_OBS_LOCK_STATS_H_
#define SRC_OBS_LOCK_STATS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/prof.h"

namespace obs {

// Inherits the exact inline-maintained totals (acquisitions, total_wait_ns,
// total_hold_ns) from common::LockSiteCell, so releases write straight into
// this struct through the cached cell pointer.
struct LockSiteStats : common::LockSiteCell {
  std::string site;
  uint64_t contended = 0;  // acquisitions that queued (wait > 0)
  uint64_t max_wait_ns = 0;
  common::LatencyHistogram wait;  // contended acquisitions only
  common::LatencyHistogram hold;  // all contended + 1-in-1024 uncontended
};

// One acquire/release pair, reconstructed for trace rendering: the caller
// queued on [release - hold - wait, release - hold) and held the lock on
// [release - hold, release), all in simulated ns.
struct LockEvent {
  uint32_t site = 0;
  uint32_t cpu = 0;
  uint64_t wait_ns = 0;
  uint64_t hold_ns = 0;
  uint64_t release_ns = 0;
};

// Fixed-capacity ring that keeps the newest kEventCapacity events.
template <typename Event>
class EventRing {
 public:
  // Bounds each ring's memory (a few hundred KB) and the trace export built
  // from it.
  static constexpr size_t kEventCapacity = 8192;

  void Push(const Event& event) {
    if (events_.size() < kEventCapacity) {
      events_.push_back(event);
    } else {
      events_[head_] = event;
    }
    head_ = (head_ + 1) % kEventCapacity;
  }

  // Retained events, oldest first.
  std::vector<Event> Ordered() const {
    if (events_.size() < kEventCapacity) {
      return events_;
    }
    std::vector<Event> ordered(events_.begin() + head_, events_.end());
    ordered.insert(ordered.end(), events_.begin(), events_.begin() + head_);
    return ordered;
  }

  void Clear() {
    events_.clear();
    head_ = 0;
  }

 private:
  std::vector<Event> events_;
  size_t head_ = 0;
};

class LockSiteRegistry {
 public:
  // Returns the index for `site`, creating it on first use; the same name
  // always yields the same index.
  uint32_t Register(std::string_view site);

  // The inline fast-path cell for `site`; stable for the registry's lifetime
  // (sites are deque-backed and never erased).
  common::LockSiteCell* CellFor(uint32_t site) {
    return site < sites_.size() ? &sites_[site] : nullptr;
  }

  // Records the slow-path share of one acquire/release pair released at
  // `release_ns`: contended, or in the 1-in-1024 uncontended sample (the
  // caller made that cut; exact totals were already added inline to the cell).
  void RecordSampled(uint32_t site, uint32_t cpu, uint64_t release_ns, uint64_t wait_ns,
                     uint64_t hold_ns);

  size_t NumSites() const { return sites_.size(); }
  const std::string& SiteName(uint32_t site) const { return sites_[site].site; }
  const std::deque<LockSiteStats>& sites() const { return sites_; }

  // Retained contended events, oldest first (the newest
  // EventRing::kEventCapacity survive).
  std::vector<LockEvent> Events() const { return events_.Ordered(); }

  // Index of the site with the largest total wait, or -1 if none recorded.
  int TopContendedSite() const;

  void Clear();

 private:
  // deque, not vector: CellFor hands out pointers that must survive the
  // growth caused by later Register calls.
  std::deque<LockSiteStats> sites_;
  std::map<std::string, uint32_t, std::less<>> index_;
  EventRing<LockEvent> events_;
};

}  // namespace obs

#endif  // SRC_OBS_LOCK_STATS_H_
