// obs::Profiler: contention & latency-attribution sink.
//
// Implements the common::ProfilerHook interface that SimMutex, ProfileZone,
// and OpScope feed. Aggregates four products, all on the simulated timeline:
//   - per-lock-site wait/hold histograms and totals (LockSiteRegistry),
//     recorded for EVERY acquisition (lock accounting is always-on);
//   - per-op-type per-layer exclusive-time histograms (sampled 1 op in
//     2^shift on average: the sticky `zones.active` flag decides which ops
//     open zones);
//   - collapsed stacks (flame-graph folded format) keyed by the packed zone
//     path, accumulated from sampled zone exits;
//   - a bounded ring of the sampled ops' closed zones (cpu, layer, enter and
//     exit ns), which the Chrome-trace exporter draws as per-CPU tracks.
// Observation-only by construction: the profiler never touches a clock or a
// counter, so modeled outputs are bit-identical with it attached or not.
// NOT host-thread-safe: observers attach only to ParallelRunner's one-worker
// schedule, which runs every simulated CPU on one host thread, so the hot
// hooks are plain unlocked updates — a host lock here measurably taxes the
// per-op gate.
#ifndef SRC_OBS_PROFILER_H_
#define SRC_OBS_PROFILER_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/exec_context.h"
#include "src/common/histogram.h"
#include "src/common/prof.h"
#include "src/common/sim_clock.h"
#include "src/obs/lock_stats.h"

namespace obs {

class Profiler : public common::ProfilerHook, public common::ObsSink {
 public:
  // Zones are sampled on 1 op in 2^sample_shift on average (default
  // 1-in-512; 0 samples every op, for tests and single-op breakdowns). Lock
  // totals are always exact (the inline LockSiteCell fast path);
  // histograms/ring sample inside LockSiteRegistry. A sampled op pays for
  // every zone it opens — device-heavy ops open one per device access — so
  // the default shift is what keeps the opperf overhead gate under 5%.
  static constexpr uint32_t kDefaultSampleShift = 9;

  explicit Profiler(uint32_t sample_shift = kDefaultSampleShift);

  // --- common::ProfilerHook ---------------------------------------------
  uint32_t RegisterLockSite(std::string_view site) override;
  common::LockSiteCell* LockSiteCellFor(uint32_t site) override;
  void OnLockEvent(common::ExecContext& ctx, uint32_t site, uint64_t wait_ns,
                   uint64_t hold_ns) override;
  void OnZoneExit(const common::ExecContext& ctx, uint32_t path, common::ProfLayer layer,
                  uint64_t enter_ns, uint64_t exclusive_ns) override;
  void EndOp(common::ExecContext& ctx, std::string_view op) override;
  uint32_t ZoneSampleShift() const override { return sample_shift_; }
  // Seeds differ per attach, so no two contexts (or rounds of one context)
  // sample the same op positions.
  uint64_t NextZoneSeed() override { return zone_seeds_++ * 0xd1b54a32d192ed03ull; }

  // --- common::ObsSink ---------------------------------------------------
  // Drops accumulated samples but keeps registered site names, so cached
  // site handles in SimMutex instances stay valid across bench phases.
  void ResetSamples() override;

  // --- Accessors (snapshot semantics; call between ops, not mid-hook) ----

  struct OpAttribution {
    std::string op;
    uint64_t ops_sampled = 0;
    common::LatencyHistogram total;  // sum of per-layer exclusive ns per op
    std::array<common::LatencyHistogram, common::kNumProfLayers> layers;
  };

  // One collapsed-stack line: "vfs" or "fscore;journal;device" with the
  // accumulated exclusive simulated ns for that exact stack.
  struct FoldedFrame {
    std::string stack;
    uint64_t ns = 0;
  };

  // One closed zone of a sampled op, for the Chrome-trace per-CPU tracks.
  struct ZoneEvent {
    uint32_t cpu = 0;
    common::ProfLayer layer = common::ProfLayer::kVfs;
    uint64_t enter_ns = 0;
    uint64_t exit_ns = 0;
  };

  std::vector<LockSiteStats> LockSites() const;
  std::vector<LockEvent> LockEvents() const;
  // Retained zones, oldest first (the newest EventRing::kEventCapacity).
  std::vector<ZoneEvent> ZoneEvents() const { return zone_events_.Ordered(); }
  // Name of a site handle ("?" if out of range), for trace exporters.
  std::string SiteName(uint32_t site) const;
  // Name of the site with the largest total wait ("none" when no lock event
  // was recorded), and that site's total wait.
  std::string TopContendedSite() const;
  uint64_t TopContendedWaitNs() const;
  std::vector<OpAttribution> Attribution() const;
  std::vector<FoldedFrame> FoldedStacks() const;

  uint64_t ops_sampled() const;

 private:
  struct OpAttrCell {
    uint64_t ops_sampled = 0;
    common::LatencyHistogram total;
    std::array<common::LatencyHistogram, common::kNumProfLayers> layers;
  };

  const uint32_t sample_shift_;
  uint64_t zone_seeds_ = 1;
  uint64_t ops_sampled_ = 0;
  LockSiteRegistry sites_;
  std::map<std::string, OpAttrCell, std::less<>> attribution_;
  // Collapsed stacks, linear-scanned on zone exit: the distinct packed paths
  // number in the tens, and first-seen (hottest) paths sit at the front.
  struct FoldedCell {
    uint32_t path;
    uint64_t ns;
  };
  std::vector<FoldedCell> folded_;
  EventRing<ZoneEvent> zone_events_;
};

// Decodes a packed zone path (3 bits per level, root in the high groups) into
// "layer;layer;..." folded-stack notation. Exposed for tests and exporters.
std::string DecodeZonePath(uint32_t path);

}  // namespace obs

#endif  // SRC_OBS_PROFILER_H_
