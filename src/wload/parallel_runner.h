// Deterministic multi-threaded workload execution.
//
// Each simulated thread has its own ExecContext/SimClock, and ops run in
// discrete-event order: always the runnable thread with the smallest
// simulated clock (ties to the lowest tid). Because the per-thread clocks
// advance together, SimMutex/ResourceClock queueing reproduces contention the
// way truly concurrent threads would experience it. Aggregate throughput is
// total work / max per-thread simulated end time.
//
// Two schedules:
//
//  * One worker (the default): the calling thread runs that discrete-event
//    order. It is the exact reference, every filesystem supports it, and it
//    is the only schedule that attaches observers.
//
//  * Sharded free-run: SetWorkers(n, fs) with n > 1 on a filesystem whose
//    ParallelPolicy is kSharded (WineFS, NOVA). Workers run concurrently,
//    each claiming the next unstarted simulated thread and running it to
//    completion, genuinely contending the per-CPU journals/allocator pools.
//    Modeled outputs (PerfCounters, wall_ns, namespace state) stay
//    bit-identical to one worker's under the shard-purity contract:
//    per-thread namespace subtrees, one simulated CPU per thread (cpus ==
//    threads) so per-CPU structures and VFS lock domains are disjoint, and
//    order-insensitive SharedResource window ledgers. Contract violations
//    (cross-pool steals, NUMA re-homing) are counted through
//    ExecContext::hazards rather than silently risking divergence.
#ifndef SRC_WLOAD_PARALLEL_RUNNER_H_
#define SRC_WLOAD_PARALLEL_RUNNER_H_

#include <cstdint>
#include <functional>

#include "src/common/exec_context.h"
#include "src/common/shard_sync.h"
#include "src/obs/gauges.h"
#include "src/obs/profiler.h"
#include "src/vfs/file_system.h"

namespace wload {

struct RunResult {
  uint64_t total_ops = 0;
  uint64_t wall_ns = 0;  // max over threads of simulated end time
  common::PerfCounters counters;

  double OpsPerSecond() const {
    return wall_ns == 0 ? 0.0
                        : static_cast<double>(total_ops) * 1e9 / static_cast<double>(wall_ns);
  }
  double MiBPerSecond(uint64_t bytes_per_op) const {
    return OpsPerSecond() * static_cast<double>(bytes_per_op) / (1024.0 * 1024.0);
  }
};

struct ParallelResult {
  // Modeled outputs — bit-identical for every worker count.
  RunResult run;
  // Host-side observability (never compared across schedules).
  uint64_t host_wall_ns = 0;       // wall-clock of the parallel section
  uint64_t hazards = 0;            // shard-purity violations noted by the FS
  uint32_t workers = 1;            // host worker threads actually used
};

class ParallelRunner {
 public:
  // op(tid, op_index, ctx) performs one operation and returns false to stop
  // that thread early.
  using OpFn = std::function<bool(uint32_t tid, uint64_t op_index, common::ExecContext& ctx)>;

  // `base_ns` anchors the simulated timeline: worker clocks start there so
  // SimMutex watermarks left by setup phases are not double-counted, and
  // wall_ns is reported relative to it.
  ParallelRunner(uint32_t num_threads, uint32_t num_cpus, uint64_t base_ns = 0)
      : num_threads_(num_threads), num_cpus_(num_cpus), base_ns_(base_ns) {}

  // Host workers for a run on `fs`: up to `host_workers` when fs's policy is
  // kSharded, otherwise one.
  ParallelRunner& SetWorkers(uint32_t host_workers, const vfs::FileSystem& fs) {
    workers_ = fs.parallel_policy() == vfs::ParallelPolicy::kSharded && host_workers > 1
                   ? host_workers
                   : 1;
    return *this;
  }
  // Torn-schedule stress: sharded workers inject pseudo-random host yields
  // (seeded, per-worker) so TSan explores adversarial interleavings. Modeled
  // outputs must not change — that is the point of the test that uses it.
  ParallelRunner& SetStressYields(uint64_t seed) {
    stress_seed_ = seed;
    stress_ = true;
    return *this;
  }
  // Observability sinks propagated into every simulated thread's ExecContext
  // (null disables collection; not owned, must outlive Run()). Attached only
  // by the one-worker schedule: sharded workers would race on the shared
  // buffers, so they run without sinks.
  ParallelRunner& SetObservers(obs::TimeSeriesSampler* sampler,
                               obs::Profiler* profiler = nullptr) {
    sampler_ = sampler;
    profiler_ = profiler;
    return *this;
  }

  ParallelResult Run(uint64_t ops_per_thread, const OpFn& op) const;

 private:
  uint32_t num_threads_;
  uint32_t num_cpus_;
  uint64_t base_ns_;
  uint32_t workers_ = 1;
  bool stress_ = false;
  uint64_t stress_seed_ = 0;
  obs::TimeSeriesSampler* sampler_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
};

}  // namespace wload

#endif  // SRC_WLOAD_PARALLEL_RUNNER_H_
