// TraceReplayer: lowers trace-format-v1 traces onto the batched op-vector
// spine (vfs::OpBatch / FileSystem::ExecuteBatch), with the reference scalar
// loop as a fallback arm.
//
// Replay model:
//   - The trace is cut into WINDOWS: per-tenant runs of records, split
//     wherever a record carries think_ticks > 0 (a new request burst) or the
//     window hits max_window_ops. One window lowers to one OpBatch.
//   - Tenants are sharded across simulated threads (tenant % num_threads);
//     each thread replays its windows in trace order on wload::ParallelRunner's
//     one-worker discrete-event schedule, so multi-tenant contention is
//     modeled the same way the wload harnesses model it. Replay never runs
//     sharded: window lowering mutates per-tenant state that is not
//     shard-pure.
//   - think_ticks * tick_ns of simulated idle time is charged on the thread
//     clock BEFORE the window executes; per-request service latency is the
//     clock delta across the window (think excluded) and lands in the owning
//     tenant's histogram.
//   - Virtual fd slots resolve to live descriptors through a per-tenant slot
//     table; an open earlier in the SAME window is referenced via
//     FdRef::From(index) so the whole burst rides in one batch. A slot with
//     no live fd lowers to raw fd -1 — a deterministic kBadFd, identical in
//     batch and scalar replay.
//   - Writes synthesize payload from a shared deterministic fill buffer;
//     reads land in shared scratch (the trace carries no payload bytes).
//
// Because windows, think charging, and fd resolution are computed identically
// in both modes, batch-vs-scalar bit-identity of modeled clock + PerfCounters
// reduces to the PR-6 ExecuteBatch contract (enforced per filesystem by
// tests/trace_replay_equivalence_test).
#ifndef SRC_TRACE_REPLAYER_H_
#define SRC_TRACE_REPLAYER_H_

#include <cstdint>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/perf_counters.h"
#include "src/common/result.h"
#include "src/obs/gauges.h"
#include "src/obs/profiler.h"
#include "src/trace/format.h"
#include "src/vfs/file_system.h"

namespace trace {

struct ReplayOptions {
  // false selects the reference scalar loop (ExecuteBatchScalar).
  bool use_batch = true;
  uint32_t num_threads = 4;
  uint32_t num_cpus = 4;
  // Hard cap on ops per lowered window (bursts larger than this split).
  uint32_t max_window_ops = 128;
  // Simulated-timeline anchor, like ParallelRunner's base_ns (setup phases
  // leave SimMutex watermarks behind; anchoring past them avoids
  // double-counting).
  uint64_t base_ns = 0;
  // Observability sinks propagated into every replay thread (null = off).
  obs::TimeSeriesSampler* sampler = nullptr;
  obs::Profiler* profiler = nullptr;
};

struct TenantStats {
  uint32_t tenant = 0;
  uint64_t ops = 0;
  uint64_t errors = 0;
  uint64_t windows = 0;
  // Per-request (window) service latency, think time excluded.
  common::LatencyHistogram latency;
};

struct ReplayResult {
  uint64_t records = 0;  // trace records executed
  uint64_t windows = 0;  // batches dispatched
  uint64_t errors = 0;   // ops with !status.ok()
  uint64_t wall_ns = 0;  // max simulated thread end time - base_ns
  common::PerfCounters counters;
  std::vector<TenantStats> tenants;  // index == tenant id

  double OpsPerSecond() const {
    return wall_ns == 0 ? 0.0
                        : static_cast<double>(records) * 1e9 /
                              static_cast<double>(wall_ns);
  }
};

// One replayer instance drives one filesystem. It is a GaugeProvider so a
// TimeSeriesSampler can chart replay progress (records/windows/errors done)
// against the filesystem's own gauges on the same simulated timeline.
class TraceReplayer : public obs::GaugeProvider {
 public:
  explicit TraceReplayer(vfs::FileSystem* fs, ReplayOptions options = {});

  // Replays `trace` to completion. kInvalidArgument if the trace is
  // malformed (out-of-range path references, zero tick) — decoded files are
  // always well-formed, this guards hand-built traces.
  common::Result<ReplayResult> Replay(const Trace& trace);

  // Gauges: replay_records_done, replay_windows_done, replay_errors.
  void SampleGauges(obs::GaugeSample& out) override;

 private:
  vfs::FileSystem* fs_;
  ReplayOptions options_;
  // Progress counters for SampleGauges. Plain fields: replay runs on the
  // runner's one-worker schedule, one window at a time on one host thread.
  uint64_t records_done_ = 0;
  uint64_t windows_done_ = 0;
  uint64_t errors_ = 0;
};

}  // namespace trace

#endif  // SRC_TRACE_REPLAYER_H_
