// True multi-core workload execution: N host worker threads drive disjoint
// parts of the simulated thread set, with a deterministic merge that keeps
// every modeled output (PerfCounters, wall_ns, namespace state)
// bit-identical to SimRunner's single-host-thread schedule.
//
// Two modes, selected from the filesystem's ParallelPolicy:
//
//  * kLockstep — a turnstile (LockstepGate) reproduces SimRunner's exact
//    discrete-event order: every worker publishes the (clock, tid) key of its
//    next candidate op and only the holder of the strict global minimum
//    executes. The release/acquire baton makes every op's writes visible to
//    the next op's worker, so arbitrary shared FS state is race-free without
//    any FS changes. Always safe; exposes no host parallelism inside the FS —
//    the honest model for global-journal designs.
//
//  * kSharded — workers free-run concurrently, each claiming the next
//    unstarted simulated thread and running it to completion, genuinely
//    contending the per-CPU journals/allocator pools of WineFS and NOVA.
//    Bit-identity holds under the shard-purity contract: per-thread namespace
//    subtrees, one simulated CPU per thread (cpus == threads) so per-CPU
//    structures and VFS lock domains are disjoint, and order-insensitive
//    SharedResource window ledgers. Contract violations (cross-pool steals,
//    NUMA re-homing) are counted through ExecContext::hazards rather than
//    silently risking divergence.
#ifndef SRC_WLOAD_PARALLEL_RUNNER_H_
#define SRC_WLOAD_PARALLEL_RUNNER_H_

#include <cstdint>

#include "src/common/shard_sync.h"
#include "src/vfs/file_system.h"
#include "src/wload/sim_runner.h"

namespace wload {

struct ParallelResult {
  // Modeled outputs — bit-identical to SimRunner::Run for the same inputs.
  RunResult run;
  // Host-side observability (never compared across schedules).
  uint64_t host_wall_ns = 0;       // wall-clock of the parallel section
  uint64_t hazards = 0;            // shard-purity violations noted by the FS
  uint32_t workers = 1;            // host worker threads actually used
  bool lockstep = true;            // mode the run executed under
};

class ParallelRunner {
 public:
  using OpFn = SimRunner::OpFn;

  enum class Mode { kLockstep, kSharded };

  static Mode ModeFor(const vfs::FileSystem& fs) {
    return fs.parallel_policy() == vfs::ParallelPolicy::kSharded ? Mode::kSharded
                                                                 : Mode::kLockstep;
  }

  // Mirror of SimRunner's constructor: `base_ns` anchors worker clocks so
  // setup-phase SimMutex watermarks are not double-counted.
  ParallelRunner(uint32_t num_threads, uint32_t num_cpus, uint64_t base_ns = 0)
      : num_threads_(num_threads), num_cpus_(num_cpus), base_ns_(base_ns) {}

  ParallelRunner& SetWorkers(uint32_t host_workers) {
    workers_ = host_workers == 0 ? 1 : host_workers;
    return *this;
  }
  ParallelRunner& SetMode(Mode mode) {
    mode_ = mode;
    return *this;
  }
  // Torn-schedule stress: workers inject pseudo-random host yields (seeded,
  // per-worker) so TSan explores adversarial interleavings. Modeled outputs
  // must not change — that is the point of the test that uses it.
  ParallelRunner& SetStressYields(uint64_t seed) {
    stress_seed_ = seed;
    stress_ = true;
    return *this;
  }
  // Observability sinks, honored when the schedule is sequential-equivalent
  // (workers == 1 or lockstep mode). Free-running sharded workers would race
  // on the shared buffers, so observers are dropped there; benches attach
  // observers only on non-parallel rows.
  ParallelRunner& SetObservers(obs::TraceBuffer* trace, obs::MetricsRegistry* metrics,
                               obs::TimeSeriesSampler* sampler = nullptr,
                               obs::Profiler* profiler = nullptr) {
    trace_ = trace;
    metrics_ = metrics;
    sampler_ = sampler;
    profiler_ = profiler;
    return *this;
  }

  ParallelResult Run(uint64_t ops_per_thread, const OpFn& op, uint32_t batch = 1) const;

 private:
  uint32_t num_threads_;
  uint32_t num_cpus_;
  uint64_t base_ns_;
  uint32_t workers_ = 1;
  Mode mode_ = Mode::kLockstep;
  bool stress_ = false;
  uint64_t stress_seed_ = 0;
  obs::TraceBuffer* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TimeSeriesSampler* sampler_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
};

}  // namespace wload

#endif  // SRC_WLOAD_PARALLEL_RUNNER_H_
