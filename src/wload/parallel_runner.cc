#include "src/wload/parallel_runner.h"

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace wload {

namespace {

// Own cache lines: sharded workers run neighbouring tids at once, and each
// op writes its thread's clock, counters and next_op.
struct alignas(64) ThreadState {
  common::ExecContext ctx;
  uint64_t next_op = 0;
  bool done = false;

  explicit ThreadState(uint32_t cpu) : ctx(cpu, 0) {}
};

// xorshift64* — cheap per-worker stress-yield source (never used for modeled
// decisions, only for host-side scheduling noise).
struct StressRng {
  uint64_t state;
  explicit StressRng(uint64_t seed) : state(seed | 1) {}
  uint64_t Next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545f4914f6cdd1dull;
  }
};

// The discrete-event pick: the runnable thread with the smallest (clock,
// tid). Returns nullptr when every thread is done.
ThreadState* NextThread(std::vector<ThreadState>& threads, uint32_t* best_tid) {
  ThreadState* best = nullptr;
  for (uint32_t t = 0; t < threads.size(); t++) {
    if (!threads[t].done &&
        (best == nullptr || threads[t].ctx.clock.NowNs() < best->ctx.clock.NowNs())) {
      best = &threads[t];
      *best_tid = t;
    }
  }
  return best;
}

// Moves the calling sharded worker onto the w-th CPU the process may use,
// then restores its CPU mask. A new thread starts on its creator's CPU, and
// some kernels (observed on 4-vCPU VMs) leave all workers stacked there for
// hundreds of milliseconds, longer than a whole run; placing each worker
// makes the run parallel from its first op. The scheduler may still move the
// worker afterwards.
void SpreadWorker(uint32_t w) {
#if defined(__linux__)
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 || CPU_COUNT(&allowed) < 2) {
    return;
  }
  int skip = static_cast<int>(w % static_cast<uint32_t>(CPU_COUNT(&allowed)));
  for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
    if (CPU_ISSET(cpu, &allowed) && skip-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      if (sched_setaffinity(0, sizeof(one), &one) == 0) {
        sched_setaffinity(0, sizeof(allowed), &allowed);
      }
      return;
    }
  }
#else
  (void)w;
#endif
}

// Runs the next op of `ts`; a thread with no op left, or whose op returns
// false, is done.
void Step(ThreadState& ts, uint32_t tid, uint64_t ops_per_thread,
          const ParallelRunner::OpFn& op) {
  if (ts.next_op >= ops_per_thread || !op(tid, ts.next_op, ts.ctx)) {
    ts.done = true;
    return;
  }
  ts.next_op++;
}

}  // namespace

ParallelResult ParallelRunner::Run(uint64_t ops_per_thread, const OpFn& op) const {
  ParallelResult out;
  const uint32_t workers = std::min(workers_, std::max<uint32_t>(num_threads_, 1));
  out.workers = workers;

  common::HazardSink hazards;

  // Observers are only safe when ops execute one at a time on one host
  // thread; free-running shards drop them.
  const bool attach_observers = workers == 1;

  std::vector<ThreadState> threads;
  threads.reserve(num_threads_);
  for (uint32_t t = 0; t < num_threads_; t++) {
    threads.emplace_back(t % num_cpus_);
    threads.back().ctx.pid = t;
    threads.back().ctx.clock.SetNs(base_ns_);
    threads.back().ctx.hazards = &hazards;
    if (attach_observers) {
      threads.back().ctx.AttachSampler(sampler_);
      if (profiler_ != nullptr) {
        threads.back().ctx.AttachProfiler(profiler_);
      }
    }
  }

  const auto host_start = std::chrono::steady_clock::now();

  if (workers == 1) {
    // Discrete-event order: always run the thread with the smallest simulated
    // clock. This keeps SimMutex watermark jumps bounded by actual critical-
    // section durations — running a leading thread's future before a lagging
    // thread's past would serialize everything through shared locks.
    uint32_t tid = 0;
    while (ThreadState* best = NextThread(threads, &tid)) {
      Step(*best, tid, ops_per_thread, op);
    }
  } else {
    // Sharded free-run: each worker claims the next unclaimed simulated
    // thread and runs it to completion, so a worker whose host CPU is taken
    // away holds up only the thread it is running while the others drain
    // the rest. Host interleaving is arbitrary; the shard-purity contract
    // (one CPU and one namespace subtree per simulated thread) makes
    // modeled outputs independent of it.
    std::atomic<uint32_t> next_tid{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (uint32_t w = 0; w < workers; w++) {
      pool.emplace_back([&, w]() {
        SpreadWorker(w);
        StressRng rng(stress_seed_ + 0x9e3779b97f4a7c15ull * (w + 1));
        for (uint32_t tid = next_tid++; tid < num_threads_; tid = next_tid++) {
          ThreadState& ts = threads[tid];
          while (!ts.done) {
            if (stress_ && (rng.Next() & 7) == 0) {
              std::this_thread::yield();
            }
            Step(ts, tid, ops_per_thread, op);
          }
        }
      });
    }
    for (auto& th : pool) {
      th.join();
    }
  }

  out.host_wall_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - host_start)
          .count());

  // Deterministic merge: counters summed in global tid order, wall_ns the max
  // simulated end time.
  for (uint32_t t = 0; t < num_threads_; t++) {
    out.run.total_ops += threads[t].next_op;
    out.run.wall_ns = std::max(out.run.wall_ns, threads[t].ctx.clock.NowNs() - base_ns_);
    out.run.counters.Add(threads[t].ctx.counters);
  }
  out.hazards = hazards.count();
  return out;
}

}  // namespace wload
