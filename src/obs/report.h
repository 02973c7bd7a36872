// Structured bench results. Every bench target builds a BenchReport and calls
// WriteFile(), which emits BENCH_<name>.json (schema v3: config, per-fs
// metrics + latency summaries with tails and extremes + the full registered
// counter dump, optional gauge time series sampled along the simulated
// timeline, optional per-lock-site `contention` and per-op per-layer
// `attribution` sections from the profiler) into
// $BENCH_OUT_DIR (default: current directory). The emitted JSON is validated
// against the schema before it hits disk, so a bench that produces malformed
// output fails loudly at runtime — and the bench_json_schema CTest target
// re-validates a real emitted file end-to-end.
#ifndef SRC_OBS_REPORT_H_
#define SRC_OBS_REPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/perf_counters.h"
#include "src/common/result.h"
#include "src/obs/gauges.h"

namespace obs {

class Profiler;

// v2: latency summaries gained min/max/p999; results may carry a
// `timeseries` section of gauges sampled along the simulated timeline.
// v3: results may carry a `contention` section (named lock sites with
// acquisition counts and wait/hold totals + percentile summaries) and an
// `attribution` section (per-op modeled-ns decomposition into exclusive
// per-layer buckets), both produced by obs::Profiler.
// v4: results may carry a `tenants` section (tenant id -> ops, throughput,
// and a per-request latency summary) from multi-tenant trace replay.
inline constexpr int kBenchSchemaVersion = 4;

struct LatencySummary {
  std::string op;
  uint64_t count = 0;
  double mean_ns = 0;
  uint64_t p50_ns = 0;
  uint64_t p90_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t p999_ns = 0;
  // Exact extremes (LatencyHistogram tracks them sample-exactly).
  uint64_t min_ns = 0;
  uint64_t max_ns = 0;
};

// One named lock site's contention row (schema v3 `contention` section).
struct ContentionSite {
  std::string site;
  uint64_t acquisitions = 0;
  uint64_t contended = 0;
  uint64_t total_wait_ns = 0;
  uint64_t total_hold_ns = 0;
  uint64_t max_wait_ns = 0;
  LatencySummary wait;  // `op` field unused; percentile fields carry the data
  LatencySummary hold;
};

// One tenant's replay outcome (schema v4 `tenants` section).
struct TenantSummary {
  uint32_t tenant = 0;
  uint64_t ops = 0;
  double ops_per_sec = 0;
  LatencySummary latency;  // per-request service latency; `op` field unused
};

// One op's per-layer modeled-ns decomposition (schema v3 `attribution`).
struct AttributionOp {
  std::string op;
  uint64_t ops_sampled = 0;
  LatencySummary total;
  // layer name ("vfs", "journal", ...) -> exclusive-ns summary; only layers
  // the op actually touched appear.
  std::vector<std::pair<std::string, LatencySummary>> layers;
};

// One filesystem's results within a bench.
struct FsResult {
  std::string fs;
  // Bench-specific numbers (throughput, fractions, ...), insertion order.
  std::vector<std::pair<std::string, double>> metrics;
  // Full registered counter dump (one JSON key per common::kCounterFields).
  common::PerfCounters counters;
  // Per-op latency summaries from a bench's own histograms.
  std::vector<LatencySummary> latencies;
  // Gauge time series sampled on the simulated timeline: gauge -> points.
  std::vector<std::pair<std::string, std::vector<TimeSeriesPoint>>> timeseries;
  // Per-lock-site contention rows, sorted by total wait descending.
  std::vector<ContentionSite> contention;
  // Per-op layer attribution rows.
  std::vector<AttributionOp> attribution;
  // Per-tenant replay rows (schema v4), in tenant-id order.
  std::vector<TenantSummary> tenants;
};

class BenchReport {
 public:
  explicit BenchReport(std::string bench_name);

  void AddConfig(std::string key, std::string value);
  void AddConfig(std::string key, double value);

  // Returns (creating on first use) the result row for `fs`.
  FsResult& ForFs(std::string_view fs);

  void AddMetric(std::string_view fs, std::string key, double value);
  void SetCounters(std::string_view fs, const common::PerfCounters& counters);

  // Appends every gauge series of `series` to `fs`'s timeseries section.
  // Calling it again for the same fs extends existing gauges (points are
  // appended in call order), so one JSON key never appears twice.
  void AddTimeSeries(std::string_view fs, const TimeSeries& series);

  // Replaces `fs`'s contention section with the profiler's per-lock-site
  // stats, sorted by total wait descending (last call wins, so a bench that
  // runs the same fs in several phases reports the final phase). Sites with
  // zero acquisitions are dropped; a profiler that saw no lock events leaves
  // the section absent.
  void AddContention(std::string_view fs, const Profiler& profiler);

  // Replaces `fs`'s attribution section with the profiler's per-op per-layer
  // decomposition (same last-call-wins semantics).
  void AddAttribution(std::string_view fs, const Profiler& profiler);

  // Replaces `fs`'s per-tenant section (schema v4). Tenants with zero ops are
  // dropped; an empty vector leaves the section absent.
  void AddTenants(std::string_view fs, const std::vector<TenantSummary>& tenants);

  std::string ToJson() const;

  // Validates ToJson() against the schema and writes it to
  // $BENCH_OUT_DIR/BENCH_<name>.json (BENCH_OUT_DIR defaults to "."). Returns
  // the path written.
  common::Result<std::string> WriteFile() const;

  const std::string& name() const { return name_; }
  const std::vector<FsResult>& results() const { return results_; }

 private:
  struct ConfigEntry {
    std::string key;
    bool is_number = false;
    std::string str;
    double num = 0;
  };

  std::string name_;
  std::vector<ConfigEntry> config_;
  std::vector<FsResult> results_;
};

// Checks `json_text` against bench schema v4; kOk iff it validates.
common::Status ValidateBenchReportJson(std::string_view json_text);

// Builds a LatencySummary (count/mean/p50/p90/p99/p999/min/max) from a
// histogram.
LatencySummary SummarizeHistogram(std::string op, const common::LatencyHistogram& hist);

}  // namespace obs

#endif  // SRC_OBS_REPORT_H_
