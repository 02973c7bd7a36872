#include "src/obs/lock_stats.h"

#include <algorithm>

namespace obs {

uint32_t LockSiteRegistry::Register(std::string_view site) {
  auto it = index_.find(site);
  if (it != index_.end()) {
    return it->second;
  }
  const uint32_t handle = static_cast<uint32_t>(sites_.size());
  sites_.emplace_back();
  sites_.back().site = std::string(site);
  index_.emplace(std::string(site), handle);
  return handle;
}

void LockSiteRegistry::RecordSampled(uint32_t site, uint32_t cpu, uint64_t release_ns,
                                     uint64_t wait_ns, uint64_t hold_ns) {
  // Exact totals (acquisitions/wait/hold) were already added inline through
  // the cached cell; only the sampled aggregates are updated here.
  if (site >= sites_.size()) {
    return;
  }
  LockSiteStats& stats = sites_[site];
  if (wait_ns == 0) {
    // Uncontended sample: histogram only. The event ring exists to render
    // queueing on the per-lock trace tracks, and walking its multi-hundred-KB
    // buffer for zero-wait events is pure cache pollution.
    stats.hold.Record(hold_ns);
    return;
  }
  stats.contended++;
  stats.max_wait_ns = std::max(stats.max_wait_ns, wait_ns);
  stats.wait.Record(wait_ns);
  stats.hold.Record(hold_ns);

  events_.Push(LockEvent{site, cpu, wait_ns, hold_ns, release_ns});
}

int LockSiteRegistry::TopContendedSite() const {
  int top = -1;
  uint64_t top_wait = 0;
  for (size_t i = 0; i < sites_.size(); i++) {
    if (sites_[i].acquisitions == 0) {
      continue;
    }
    if (top < 0 || sites_[i].total_wait_ns > top_wait) {
      top = static_cast<int>(i);
      top_wait = sites_[i].total_wait_ns;
    }
  }
  return top;
}

void LockSiteRegistry::Clear() {
  for (LockSiteStats& stats : sites_) {
    stats.acquisitions = 0;
    stats.total_wait_ns = 0;
    stats.total_hold_ns = 0;
    stats.contended = 0;
    stats.max_wait_ns = 0;
    stats.wait.Reset();
    stats.hold.Reset();
  }
  events_.Clear();
}

}  // namespace obs
