// Multi-tenant scenario fleet: replays the seeded src/trace scenario traces
// (production shapes the paper never tested — mail churn, container-image
// extraction, ML checkpointing, log ingest + compaction, metadata storms
// across >= 1000 tenants) on every filesystem through the batched op-vector
// spine, and reports per-tenant throughput and tail latency (schema v4
// `tenants` section) plus replay-progress time series.
//
// Rows are named <fs>:<scenario>; the mail_churn shape additionally runs on a
// Geriatrix-aged WineFS image drawn from the snap corpus (<fs>:mail_churn@aged)
// so aging shows up in multi-tenant tails, not just microbenchmarks.
//
// Before any measured row, the binary replays one scenario twice on twin beds
// — once through ExecuteBatch, once through the scalar reference loop — and
// exits non-zero if any modeled field (clock, counters, per-tenant outcomes)
// diverges, so every fleet run re-proves the PR-6 batch contract end to end.
//
// Traces are cached in $WINEFS_TRACE_DIR keyed on generator provenance
// (scenario knobs + format version), mirroring the snap corpus: a warm cache
// deserializes instead of regenerating, and a stale/corrupt file is silently
// regenerated. --quick shrinks the fleet for CI smoke runs.
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "bench/bench_util.h"
#include "src/trace/replayer.h"
#include "src/trace/scenarios.h"

using benchutil::Fmt;
using benchutil::FmtU;
using benchutil::Row;
using common::ExecContext;
using common::kMiB;

namespace {

struct FleetConfig {
  bool quick = false;
  uint64_t device_bytes = 512 * kMiB;
  std::vector<std::string> lineup;
  std::vector<trace::scenarios::ScenarioSpec> shapes;
};

constexpr double kAgeUtil = 0.70;
constexpr double kAgeChurn = 2.5;
constexpr uint64_t kAgeSeed = 42;

snap::Corpus& TheCorpus() {
  static snap::Corpus corpus = snap::Corpus::FromEnv();
  return corpus;
}

aging::AgingConfig AgeConfig() {
  aging::AgingConfig config;
  config.target_utilization = kAgeUtil;
  config.write_multiplier = kAgeChurn;
  config.seed = kAgeSeed;
  return config;
}

snap::ImageKey AgedKey(const std::string& fs_name, uint64_t device_bytes) {
  snap::ImageKey key;
  key.fs = fs_name;
  key.device_bytes = device_bytes;
  key.num_cpus = 8;
  key.numa_nodes = 1;
  key.profile = "agrawal";
  key.seed = kAgeSeed;
  key.utilization = kAgeUtil;
  key.churn = kAgeChurn;
  key.detail = aging::AgingProvenance(AgeConfig());
  return key;
}

// Replays `tr` on `bed` and records the row (metrics, counters, per-tenant
// summaries, progress time series) under `row_name`. Returns the result for
// callers that want to cross-check it.
trace::ReplayResult ReplayRow(const std::string& row_name, benchutil::TestBed& bed,
                              const trace::Trace& tr, obs::BenchReport& report,
                              bool use_batch) {
  obs::TimeSeriesSampler sampler(obs::TimeSeriesSampler::kDefaultPeriodNs);
  trace::ReplayOptions options;
  options.use_batch = use_batch;
  options.base_ns = bed.setup.clock.NowNs();
  options.sampler = &sampler;
  trace::TraceReplayer replayer(bed.fs.get(), options);
  sampler.AddProvider(bed.fs.get());
  sampler.AddProvider(&replayer);

  const auto host0 = std::chrono::steady_clock::now();
  auto result = replayer.Replay(tr);
  const double host_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - host0)
          .count();
  if (!result.ok()) {
    std::fprintf(stderr, "%s: replay failed\n", row_name.c_str());
    std::exit(1);
  }

  // Aggregate per-request latency across tenants for the row summary; keep
  // the per-tenant split for the schema-v4 tenants section.
  common::LatencyHistogram all_requests;
  std::vector<obs::TenantSummary> tenants;
  for (const trace::TenantStats& ts : result->tenants) {
    if (ts.ops == 0) {
      continue;
    }
    all_requests.Merge(ts.latency);
    obs::TenantSummary summary;
    summary.tenant = ts.tenant;
    summary.ops = ts.ops;
    summary.ops_per_sec = result->wall_ns == 0
                              ? 0.0
                              : static_cast<double>(ts.ops) * 1e9 /
                                    static_cast<double>(result->wall_ns);
    summary.latency = obs::SummarizeHistogram("request", ts.latency);
    tenants.push_back(summary);
  }

  report.AddMetric(row_name, "kops_per_sec", result->OpsPerSecond() / 1000.0);
  report.AddMetric(row_name, "records", static_cast<double>(result->records));
  report.AddMetric(row_name, "windows", static_cast<double>(result->windows));
  report.AddMetric(row_name, "errors", static_cast<double>(result->errors));
  report.AddMetric(row_name, "active_tenants", static_cast<double>(tenants.size()));
  report.AddMetric(row_name, "wall_ms", static_cast<double>(result->wall_ns) / 1e6);
  report.AddMetric(row_name, "p999_request_us",
                   static_cast<double>(all_requests.Percentile(99.9)) / 1e3);
  report.AddMetric(row_name, "host_ms", host_ms);
  report.SetCounters(row_name, result->counters);
  report.ForFs(row_name).latencies.push_back(
      obs::SummarizeHistogram("request", all_requests));
  report.AddTenants(row_name, tenants);
  report.AddTimeSeries(row_name, sampler.series());

  Row({row_name, Fmt(result->OpsPerSecond() / 1000.0, 1), FmtU(result->records),
       FmtU(result->errors), FmtU(tenants.size()),
       Fmt(static_cast<double>(all_requests.Percentile(99.9)) / 1e3, 1)},
      22);
  return std::move(result.value());
}

// Replays `tr` through ExecuteBatch and through the scalar reference loop on
// twin fresh beds and exits non-zero unless the modeled outcomes are
// bit-identical — simulated wall clock, every registered counter, and every
// tenant's op/error/latency tallies.
void SelfCheckBatchVsScalar(const FleetConfig& fleet, const trace::Trace& tr) {
  obs::BenchReport scratch("scenarios_selfcheck");
  auto batch_bed = benchutil::MakeBed("winefs", fleet.device_bytes);
  auto scalar_bed = benchutil::MakeBed("winefs", fleet.device_bytes);
  trace::ReplayResult batch =
      ReplayRow("selfcheck:batch", batch_bed, tr, scratch, /*use_batch=*/true);
  trace::ReplayResult scalar =
      ReplayRow("selfcheck:scalar", scalar_bed, tr, scratch, /*use_batch=*/false);

  bool identical = batch.records == scalar.records && batch.windows == scalar.windows &&
                   batch.errors == scalar.errors && batch.wall_ns == scalar.wall_ns;
  for (const common::CounterField& field : common::kCounterFields) {
    if (batch.counters.*field.member != scalar.counters.*field.member) {
      std::fprintf(stderr, "selfcheck: counter %s diverges: %llu vs %llu\n", field.name,
                   static_cast<unsigned long long>(batch.counters.*field.member),
                   static_cast<unsigned long long>(scalar.counters.*field.member));
      identical = false;
    }
  }
  if (batch.tenants.size() == scalar.tenants.size()) {
    for (size_t t = 0; t < batch.tenants.size(); t++) {
      const trace::TenantStats& a = batch.tenants[t];
      const trace::TenantStats& b = scalar.tenants[t];
      if (a.ops != b.ops || a.errors != b.errors || a.windows != b.windows ||
          a.latency.count() != b.latency.count() ||
          a.latency.Percentile(99.9) != b.latency.Percentile(99.9)) {
        std::fprintf(stderr, "selfcheck: tenant %zu outcome diverges\n", t);
        identical = false;
      }
    }
  } else {
    identical = false;
  }
  if (!identical) {
    std::fprintf(stderr,
                 "selfcheck: batch and scalar replay diverged (wall %llu vs %llu ns) — "
                 "the ExecuteBatch contract is broken\n",
                 static_cast<unsigned long long>(batch.wall_ns),
                 static_cast<unsigned long long>(scalar.wall_ns));
    std::exit(1);
  }
  std::printf("selfcheck: batch == scalar replay (%llu records, wall %llu ns)\n",
              static_cast<unsigned long long>(batch.records),
              static_cast<unsigned long long>(batch.wall_ns));
}

}  // namespace

int main(int argc, char** argv) {
  FleetConfig fleet;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      fleet.quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 2;
    }
  }
  if (fleet.quick) {
    fleet.device_bytes = 256 * kMiB;
    fleet.lineup = {"winefs", "ext4-dax"};
    for (const auto& spec : trace::scenarios::ScenarioFleet(/*quick=*/true)) {
      if (spec.name == "mail_churn" || spec.name == "metadata_storm") {
        fleet.shapes.push_back(spec);
      }
    }
  } else {
    fleet.lineup = {"winefs", "ext4-dax", "xfs-dax", "pmfs", "nova", "splitfs"};
    fleet.shapes = trace::scenarios::ScenarioFleet(/*quick=*/false);
  }

  benchutil::Banner("scenarios: multi-tenant trace-replay fleet",
                    "production shapes beyond the paper's workloads (src/trace)");
  obs::BenchReport report("scenarios");
  report.AddConfig("device_mib", static_cast<double>(fleet.device_bytes / kMiB));
  report.AddConfig("quick", fleet.quick ? 1.0 : 0.0);
  report.AddConfig("trace_format_version", static_cast<double>(trace::kTraceFormatVersion));
  {
    std::string names;
    for (const auto& spec : fleet.shapes) {
      names += (names.empty() ? "" : ",") + spec.name;
    }
    report.AddConfig("scenarios", names);
  }

  // Generate (or load from $WINEFS_TRACE_DIR) every shape up front.
  const char* trace_dir_env = std::getenv("WINEFS_TRACE_DIR");
  const std::string trace_dir = trace_dir_env != nullptr ? trace_dir_env : "";
  trace::scenarios::TraceCacheStats cache;
  std::vector<trace::Trace> traces;
  for (const auto& spec : fleet.shapes) {
    auto tr = trace::scenarios::LoadOrGenerate(trace_dir, spec, &cache);
    if (!tr.ok()) {
      std::fprintf(stderr, "%s: trace generation failed\n", spec.name.c_str());
      return 1;
    }
    std::printf("trace %-18s %8zu records, %5u tenants, %4zu paths%s\n", spec.name.c_str(),
                tr->records.size(), tr->TenantCount(), tr->paths.size(),
                trace_dir.empty() ? "" : " (cached)");
    traces.push_back(std::move(tr.value()));
  }
  report.AddConfig("trace_dir", trace_dir.empty() ? "disabled" : trace_dir);
  report.AddConfig("trace_hits", static_cast<double>(cache.hits));
  report.AddConfig("trace_misses", static_cast<double>(cache.misses));
  report.AddConfig("trace_rejects", static_cast<double>(cache.rejects));

  std::printf("\n--- batch-vs-scalar replay self-check (winefs, %s) ---\n",
              fleet.shapes.front().name.c_str());
  SelfCheckBatchVsScalar(fleet, traces.front());

  std::printf("\n--- fleet: %zu shapes x %zu filesystems (fresh beds) ---\n",
              fleet.shapes.size(), fleet.lineup.size());
  Row({"row", "Kops/s", "records", "errors", "tenants", "p999-us"}, 22);
  for (size_t s = 0; s < fleet.shapes.size(); s++) {
    for (const std::string& fs_name : fleet.lineup) {
      auto bed = benchutil::MakeBed(fs_name, fleet.device_bytes);
      ReplayRow(fs_name + ":" + fleet.shapes[s].name, bed, traces[s], report,
                /*use_batch=*/true);
    }
  }

  // Aged arm: mail_churn on a corpus-served Geriatrix-aged WineFS image. The
  // scenario namespace (/scn_*) is disjoint from the aged content, so replay
  // runs against realistic allocator fragmentation without path collisions.
  std::printf("\n--- aged arm: mail_churn on corpus-aged winefs (%.0f%% util) ---\n",
              kAgeUtil * 100);
  size_t mail_index = 0;
  for (size_t s = 0; s < fleet.shapes.size(); s++) {
    if (fleet.shapes[s].name == "mail_churn") {
      mail_index = s;
    }
  }
  const snap::ImageKey aged_key = AgedKey("winefs", fleet.device_bytes);
  auto snapshot = TheCorpus().LoadOrBuild(
      aged_key, [&]() -> common::Result<pmem::DeviceSnapshot> {
        auto bed = benchutil::MakeBed("winefs", fleet.device_bytes);
        ExecContext ctx;
        aging::Geriatrix geriatrix(bed.fs.get(), aging::Profile::Agrawal(kAgeSeed),
                                   AgeConfig());
        auto stats = geriatrix.Run(ctx);
        if (!stats.ok()) {
          return stats.status();
        }
        RETURN_IF_ERROR(bed.fs->Unmount(ctx));
        return bed.dev->Snapshot();
      });
  if (!snapshot.ok()) {
    std::fprintf(stderr, "aging failed for winefs\n");
    return 1;
  }
  Row({"row", "Kops/s", "records", "errors", "tenants", "p999-us"}, 22);
  {
    auto bed = benchutil::MakeBedFromSnapshot("winefs", *snapshot);
    ReplayRow("winefs:mail_churn@aged", bed, traces[mail_index], report,
              /*use_batch=*/true);
  }
  benchutil::AddSnapConfig(report, TheCorpus(), aged_key.Provenance());

  std::printf("\nexpected shape: WineFS holds per-tenant p999 on fsync-heavy mail_churn\n"
              "and the metadata storm; the aged row shows the fragmentation tax on tails\n"
              "rather than on mean throughput.\n");
  benchutil::EmitReport(report);
  return 0;
}
