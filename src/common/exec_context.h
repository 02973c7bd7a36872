// Per-thread execution context threaded through every simulated operation.
// Carries the logical CPU the thread runs on (filesystems key per-CPU
// structures off it), the simulated clock, event counters, and optional
// observability sinks (the gauge time-series sampler and the profiler from
// src/obs).
#ifndef SRC_COMMON_EXEC_CONTEXT_H_
#define SRC_COMMON_EXEC_CONTEXT_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/common/perf_counters.h"
#include "src/common/prof.h"
#include "src/common/shard_sync.h"
#include "src/common/sim_clock.h"

// Observability sinks live in src/obs (which depends on src/common); the
// context only carries non-owning pointers, so forward declarations keep the
// dependency one-way.
namespace obs {
class TimeSeriesSampler;
}  // namespace obs

namespace common {

// Implemented by the src/obs sinks that can be attached to an ExecContext, so
// Reset() can clear a context's attached sinks without common depending on
// obs. ResetSamples() drops everything the sink has accumulated.
class ObsSink {
 public:
  virtual ~ObsSink() = default;
  virtual void ResetSamples() = 0;
};

struct ExecContext {
  explicit ExecContext(uint32_t cpu_id = 0, uint32_t numa_id = 0)
      : cpu(cpu_id), numa_node(numa_id) {}

  uint32_t cpu = 0;
  uint32_t numa_node = 0;
  // Process identifier; the NUMA policy in WineFS assigns a home node per process.
  uint32_t pid = 0;
  SimClock clock;
  PerfCounters counters;
  // Optional sinks; null means "not collecting". Not owned. Attach through
  // the Attach* helpers below so Reset() can clear them; the fields stay
  // public for the null-checked fast paths in OpScope/ProfileZone.
  obs::TimeSeriesSampler* sampler = nullptr;
  // Contention / latency-attribution profiler (obs::Profiler through the
  // abstract hook). Observation-only: attaching it never changes the modeled
  // clock or counters.
  ProfilerHook* profiler = nullptr;
  // Zone-stack state for the profiler, embedded here so ProfileZone push/pop
  // is a few plain field writes (no indirection on the unattached path).
  ZoneState zones;
  // Shard-purity hazard sink for host-parallel sharded runs (null outside
  // them). Filesystems report contract violations — cross-pool allocator
  // steals, inode-region exhaustion — here instead of silently letting the
  // modeled outputs become schedule-dependent. Not owned.
  HazardSink* hazards = nullptr;

  // Typed attach helpers that mirror the sink into the ObsSink slot Reset()
  // clears through. Templates so the derived-to-ObsSink conversion happens at
  // call sites, where the obs types are complete.
  template <typename Sampler>
  void AttachSampler(Sampler* sink) {
    sampler = sink;
    sinks_[0] = sink;
  }
  void AttachSampler(std::nullptr_t) {
    sampler = nullptr;
    sinks_[0] = nullptr;
  }
  template <typename Profiler>
  void AttachProfiler(Profiler* sink) {
    profiler = sink;
    sinks_[1] = sink;
    RestartZones();
  }
  void AttachProfiler(std::nullptr_t) {
    profiler = nullptr;
    sinks_[1] = nullptr;
    zones = ZoneState{};
  }

  // Full reset: clock, counters, AND every attached sink's accumulated
  // samples — so a context reused across runs (one filesystem after another
  // in a bench loop) can never bleed one run's samples into the next report.
  void Reset() {
    clock.Reset();
    counters.Reset();
    RestartZones();
    for (ObsSink* sink : sinks_) {
      if (sink != nullptr) {
        sink->ResetSamples();
      }
    }
  }

 private:
  // Empties the zone stack and, with a profiler attached, starts its sampler
  // on a fresh seed.
  void RestartZones() {
    zones = ZoneState{};
    if (profiler != nullptr) {
      zones.StartSampling(profiler->NextZoneSeed(), profiler->ZoneSampleShift());
    }
  }

  std::array<ObsSink*, 2> sinks_{};
};

}  // namespace common

#endif  // SRC_COMMON_EXEC_CONTEXT_H_
