// Metrics registry: named counters and per-op simulated-latency histograms
// keyed by (fs, op). Filesystems feed it through obs::OpScope (installed in
// the GenericFs chassis); benches and tests read it back out or dump it into
// BENCH_*.json via obs::BenchReport.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/exec_context.h"
#include "src/common/histogram.h"
#include "src/common/perf_counters.h"
#include "src/common/prof_zone.h"
#include "src/obs/gauges.h"

namespace obs {

// Thread-safe sink for per-(fs, op) latency samples and named counters.
// Attach via ExecContext::AttachMetrics; null means "not collecting".
class MetricsRegistry : public common::ObsSink {
 public:
  // Records one operation of `op` on filesystem `fs` taking `latency_ns` of
  // simulated time.
  void RecordOp(std::string_view fs, std::string_view op, uint64_t latency_ns);

  // Bumps the named counter for `fs` by `delta`.
  void AddCounter(std::string_view fs, std::string_view counter, uint64_t delta);

  // Folds a PerfCounters snapshot into the named counters for `fs`, one entry
  // per registered field (common::kCounterFields) — the registry is the
  // aggregation path, so an unregistered field cannot reach it.
  void MergeCounters(std::string_view fs, const common::PerfCounters& counters);

  // Filesystems with at least one sample or counter, sorted.
  std::vector<std::string> FsNames() const;
  // Ops recorded for `fs`, sorted.
  std::vector<std::string> OpsFor(std::string_view fs) const;
  // Snapshot of the histogram for (fs, op); empty histogram if absent.
  common::LatencyHistogram OpHistogram(std::string_view fs, std::string_view op) const;
  // Value of a named counter for `fs`; 0 if absent.
  uint64_t Counter(std::string_view fs, std::string_view name) const;
  // All named counters for `fs`, sorted by name.
  std::vector<std::pair<std::string, uint64_t>> CountersFor(std::string_view fs) const;

  void Clear();
  // common::ObsSink: attached contexts clear all samples + counters on Reset().
  void ResetSamples() override { Clear(); }

 private:
  using Key = std::pair<std::string, std::string>;  // (fs, op/counter)
  mutable std::mutex mu_;
  std::map<Key, common::LatencyHistogram> ops_;
  std::map<Key, uint64_t> counters_;
};

// RAII scope that records the simulated time spent in one op — a filesystem
// syscall or a mapped call (vmem::MappedFile) — into the context's
// MetricsRegistry, and, because every such op passes through here, gives the
// context's TimeSeriesSampler its sample-on-cross opportunity and the
// attached profiler its per-op attribution flush when the op completes. The
// root zone (fscore for syscalls, mmu for mapped calls) makes every sampled
// op fully covered: time not claimed by a nested journal / allocator / device
// / mmu zone lands in the root's bucket, and none is left over for the next
// op. No-op when no sink is attached.
class OpScope {
 public:
  OpScope(common::ExecContext& ctx, std::string_view fs, std::string_view op,
          common::ProfLayer root = common::ProfLayer::kFsCore)
      : ctx_(ctx),
        fs_(fs),
        op_(op),
        start_ns_(ctx.metrics != nullptr ? ctx.clock.NowNs() : 0),
        zone_(ctx, root) {}

  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  ~OpScope() {
    // Order matters: close the root zone first so its exclusive time is in
    // the context's layer buckets, then let the profiler flush the op. The
    // tick itself is inline; the virtual flush fires only for sampled ops.
    zone_.End();
    if (ctx_.profiler != nullptr && ctx_.zones.Tick()) {
      ctx_.profiler->EndOp(ctx_, fs_, op_);
    }
    if (ctx_.metrics != nullptr) {
      ctx_.metrics->RecordOp(fs_, op_, ctx_.clock.NowNs() - start_ns_);
    }
    if (ctx_.sampler != nullptr) {
      ctx_.sampler->MaybeSample(ctx_);
    }
  }

 private:
  common::ExecContext& ctx_;
  std::string_view fs_;
  std::string_view op_;
  uint64_t start_ns_;
  common::ProfileZone zone_;
};

}  // namespace obs

#endif  // SRC_OBS_METRICS_H_
