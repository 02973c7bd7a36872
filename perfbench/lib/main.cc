// perfbench: one seeded workload, measured for a fixed time, with its outputs
// checked. Normally launched through perfbench/run.py, which builds this
// binary and cleans the environment; see perfbench/README.md.
//
//   perfbench --workload <meta_spine|fleet_replay|mmap_aged> --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--spans-out FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
// traced rounds and prints the per-layer metrics. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "lib/workload.h"
#include "src/vmem/mmu_params.h"

namespace perfbench {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || !defined(__OPTIMIZE__)
constexpr bool kTimingBuild = false;
#else
constexpr bool kTimingBuild = true;
#endif

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work_dir;
  std::string spans_out;
};

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <meta_spine|fleet_replay|mmap_aged> --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--spans-out FILE]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args& args) {
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] == '1';
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && !args.work_dir.empty();
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "meta_spine") {
    return MakeMetaSpine(args.seed);
  }
  if (args.workload == "fleet_replay") {
    return MakeFleetReplay(args.seed);
  }
  if (args.workload == "mmap_aged") {
    return MakeMmapAged(args.seed, args.work_dir);
  }
  return nullptr;
}

// Set-ups in one untraced run; setup_s is their median. mmap_aged's set-up
// ages two images, so it gets fewer.
int SetupRuns(const std::string& workload) { return workload == "mmap_aged" ? 3 : 5; }

// Refuses to time a build or environment whose numbers would mislead: a
// sanitizer or unoptimized build, the reference simulator, or a cache or
// host-thread setting that leaks state between runs.
bool CheckEnvironment() {
  if (!kTimingBuild) {
    std::fprintf(stderr, "perfbench: refusing to time a sanitizer or unoptimized build\n");
    return false;
  }
  for (const char* name :
       {"WINEFS_SNAP_DIR", "WINEFS_SNAP_REBUILD", "WINEFS_TRACE_DIR", "WINEFS_HOST_THREADS"}) {
    const char* value = std::getenv(name);
    if (value != nullptr && value[0] != '\0') {
      std::fprintf(stderr, "perfbench: %s is set; unset it so no cache or mode leaks in\n",
                   name);
      return false;
    }
  }
  if (vmem::MmuParams{}.reference_sim) {
    std::fprintf(stderr, "perfbench: the reference simulator is selected; set "
                         "WINEFS_REFERENCE_SIM=0 to time the fast one\n");
    return false;
  }
  return true;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2);
}

double Max(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

double Min(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

std::string FormatDouble(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

// Everything the measure phase accumulates over its rounds.
struct Tally {
  uint64_t rounds = 0;
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t expected_errors = 0;
  uint64_t images_checked = 0;
  uint64_t images_failed = 0;
  uint64_t records = 0;
  uint64_t write_bytes = 0;
  uint64_t lines = 0;
  TimedFsStats fs;
  uint64_t req_samples = 0;
  // Per-round host throughput and request-time percentiles. On a shared
  // machine, noise from neighbours only ever slows a round, and it comes in
  // phases that can last for most of a run. So the end-to-end host metrics
  // are noise-floor estimates: the best round's throughput and the lowest
  // per-round p50 and p99.
  std::vector<double> round_ops_per_s;
  std::vector<double> round_p50_us;
  std::vector<double> round_p99_us;

  void Add(RoundOutcome& round) {
    rounds++;
    ops += round.ops;
    failed += round.failed;
    expected_errors += round.expected_errors;
    images_checked += round.images_checked;
    images_failed += round.images_failed;
    records += round.records;
    write_bytes += round.write_bytes;
    lines += round.lines;
    fs.batch_ops += round.fs_stats.batch_ops;
    fs.batch_reused_paths += round.fs_stats.batch_reused_paths;
    fs.faults_4k += round.fs_stats.faults_4k;
    fs.faults_2m += round.fs_stats.faults_2m;
    req_samples += round.req_host_ns.size();
    round_ops_per_s.push_back(Ratio(static_cast<double>(round.ops) * 1e9, round.host_ns));
    round_p50_us.push_back(static_cast<double>(Percentile(round.req_host_ns, 50)) / 1e3);
    round_p99_us.push_back(static_cast<double>(Percentile(round.req_host_ns, 99)) / 1e3);
  }
  void AddImageChecks(const Workload::ImageChecks& checks) {
    images_checked += checks.checked;
    images_failed += checks.failed;
  }
  double OpsPerSecond() const { return Max(round_ops_per_s); }
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed, const Metrics& metrics) {
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + FormatDouble(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// Prints the fail ratio with its seed floor, and the modeled fingerprint.
void PrintOutcome(const Args& args, const Tally& tally, const RoundOutcome& first,
                  uint64_t fingerprint) {
  const uint64_t errors = tally.expected_errors + tally.failed;
  std::printf("perfbench: fingerprint=0x%016llx rounds=%llu\n",
              static_cast<unsigned long long>(fingerprint),
              static_cast<unsigned long long>(tally.rounds));
  std::printf("perfbench: fail_ratio=%s (%llu failed ops of %llu; seed %llu floor %llu "
              "expected errors per round; %llu/%llu images fsck-clean)\n",
              FormatDouble(Ratio(static_cast<double>(errors), tally.ops)).c_str(),
              static_cast<unsigned long long>(errors), static_cast<unsigned long long>(tally.ops),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(first.expected_errors),
              static_cast<unsigned long long>(tally.images_checked - tally.images_failed),
              static_cast<unsigned long long>(tally.images_checked));
}

double HugePct(const RoundOutcome& first) {
  return first.mapped_bytes == 0 ? 0.0
                                 : 100.0 * Ratio(static_cast<double>(first.huge_bytes),
                                                 static_cast<double>(first.mapped_bytes));
}

// Runs rounds until `seconds` of wall time have passed (at least
// `min_rounds`). Returns false on a round error or fingerprint drift.
template <typename ObserversFor, typename OnRound>
bool MeasureRounds(Workload& workload, double seconds, uint64_t min_rounds,
                   const ObserversFor& observers_for, const OnRound& on_round,
                   RoundOutcome& first, uint64_t& fingerprint) {
  const uint64_t deadline = HostNowNs() + static_cast<uint64_t>(seconds * 1e9);
  for (uint64_t i = 0; i < min_rounds || HostNowNs() < deadline; i++) {
    auto round = workload.RunRound(observers_for(i));
    if (!round.ok()) {
      std::fprintf(stderr, "perfbench: round %llu failed: %s\n",
                   static_cast<unsigned long long>(i),
                   std::string(round.status().message()).c_str());
      return false;
    }
    const uint64_t digest = ModeledFingerprint(*round);
    if (i == 0) {
      fingerprint = digest;
      first = *round;
    } else if (digest != fingerprint) {
      std::fprintf(stderr, "perfbench: round %llu fingerprint 0x%016llx != round 0's 0x%016llx\n",
                   static_cast<unsigned long long>(i), static_cast<unsigned long long>(digest),
                   static_cast<unsigned long long>(fingerprint));
      return false;
    }
    on_round(i, *round);
  }
  return true;
}

int RunUntraced(const Args& args) {
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  const int setups = SetupRuns(args.workload);
  for (int i = 0; i < setups; i++) {
    workload.reset();
    workload = MakeWorkload(args);
    const uint64_t start = HostNowNs();
    const common::Status status = workload->Setup(nullptr);
    setup_s.push_back(static_cast<double>(HostNowNs() - start) / 1e9);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n",
                   std::string(status.message()).c_str());
      return 1;
    }
  }
  std::printf("perfbench: inputs %s\n", workload->Describe().c_str());

  Tally tally;
  RoundOutcome first;
  uint64_t fingerprint = 0;
  const bool steady = MeasureRounds(
      *workload, args.seconds, 1, [](uint64_t) { return Observers{}; },
      [&](uint64_t, RoundOutcome& round) { tally.Add(round); }, first, fingerprint);
  if (!steady) {
    return 1;
  }
  tally.AddImageChecks(workload->CheckImagesAfterMeasure());
  PrintOutcome(args, tally, first, fingerprint);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto [slowest, fastest] =
      std::minmax_element(tally.round_ops_per_s.begin(), tally.round_ops_per_s.end());
  std::printf("perfbench: req_samples=%llu (%zu per round) round_ops_per_s=%s..%s "
              "setup_runs=%d huge_pct=%s\n",
              static_cast<unsigned long long>(tally.req_samples), first.req_host_ns.size(),
              FormatDouble(*slowest).c_str(), FormatDouble(*fastest).c_str(), setups,
              FormatDouble(HugePct(first)).c_str());
  Metrics metrics;
  metrics["ops_per_s"] = {tally.OpsPerSecond(), "ops/s"};
  metrics["req_p50_us"] = {Min(tally.round_p50_us), "us"};
  metrics["req_p99_us"] = {Min(tally.round_p99_us), "us"};
  metrics["setup_s"] = {Median(setup_s), "s"};
  metrics["peak_rss_mib"] = {static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB"};
  metrics["sim_ops_per_s"] = {Ratio(static_cast<double>(first.ops) * 1e9, first.sim_ns), "ops/s"};
  metrics["sim_req_p99_us"] = {static_cast<double>(Percentile(first.req_sim_ns, 99)) / 1e3,
                               "us"};
  const bool correct = tally.failed == 0 && tally.images_failed == 0;
  PrintResult(correct, tally.ops, tally.failed + tally.images_failed, metrics);
  return 0;
}

// Modeled per-layer attribution from the profiler: each layer's share of the
// sampled ops' exclusive modeled time. The profiler's zones only count inside
// a syscall, and MappedFile calls are not syscalls, so the mmu layer would
// always read 0 and is left out.
void AddProfilerMetrics(const obs::Profiler& profiler, Metrics& metrics) {
  std::array<double, common::kNumProfLayers> layer_ns{};
  double total = 0;
  for (const obs::Profiler::OpAttribution& op : profiler.Attribution()) {
    for (size_t l = 0; l < common::kNumProfLayers; l++) {
      const double ns = op.layers[l].MeanNanos() * static_cast<double>(op.layers[l].count());
      layer_ns[l] += ns;
      total += ns;
    }
  }
  for (size_t l = 0; l < common::kNumProfLayers; l++) {
    if (static_cast<common::ProfLayer>(l) == common::ProfLayer::kMmu) {
      continue;
    }
    const std::string name =
        "model.excl_pct." + std::string(common::ProfLayerName(static_cast<common::ProfLayer>(l)));
    metrics[name] = {100.0 * Ratio(layer_ns[l], total), "%"};
  }
  metrics["model.top_lock_wait_ns"] = {static_cast<double>(profiler.TopContendedWaitNs()), "ns"};
  std::printf("perfbench: top lock site %s\n", profiler.TopContendedSite().c_str());
}

int RunTraced(const Args& args) {
  SpanRecorder spans;
  obs::Profiler profiler;
  std::unique_ptr<Workload> workload = MakeWorkload(args);
  const common::Status status = workload->Setup(&spans);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: setup failed: %s\n", std::string(status.message()).c_str());
    return 1;
  }
  std::printf("perfbench: inputs %s\n", workload->Describe().c_str());

  // Odd rounds are traced, even rounds are not; all must share one fingerprint.
  Tally untraced;
  Tally traced;
  RoundOutcome first;
  uint64_t fingerprint = 0;
  const bool steady = MeasureRounds(
      *workload, args.seconds, 2,
      [&](uint64_t i) { return i % 2 == 1 ? Observers{&spans, &profiler} : Observers{}; },
      [&](uint64_t i, RoundOutcome& round) { (i % 2 == 1 ? traced : untraced).Add(round); },
      first, fingerprint);
  if (!steady) {
    return 1;
  }
  Tally all = untraced;
  all.rounds += traced.rounds;
  all.ops += traced.ops;
  all.failed += traced.failed;
  all.expected_errors += traced.expected_errors;
  all.images_checked += traced.images_checked;
  all.images_failed += traced.images_failed;
  all.AddImageChecks(workload->CheckImagesAfterMeasure());
  PrintOutcome(args, all, first, fingerprint);
  std::printf("perfbench: traced and untraced rounds share fingerprint 0x%016llx\n",
              static_cast<unsigned long long>(fingerprint));

  const auto totals = TotalsByName(spans.spans());
  auto total = [&](SpanName name) { return static_cast<double>(totals[size_t(name)].total_ns); };
  auto self = [&](SpanName name) { return static_cast<double>(totals[size_t(name)].self_ns); };
  auto count = [&](SpanName name) { return static_cast<double>(totals[size_t(name)].count); };
  const double traced_rounds = static_cast<double>(traced.rounds);
  const common::PerfCounters& c = first.counters;
  const double ops = static_cast<double>(first.ops);
  const double translations =
      static_cast<double>(c.tlb_hits + c.tlb_l1_misses + c.tlb_l2_misses);

  Metrics m;
  m["fs.batch_ns_per_op"] = {Ratio(total(SpanName::kFsBatch), traced.fs.batch_ops), "ns/op"};
  m["fs.batch_path_reuse"] = {
      Ratio(static_cast<double>(traced.fs.batch_reused_paths), traced.fs.batch_ops), "ratio"};
  m["fs.fault_ns"] = {Ratio(total(SpanName::kFsFault), count(SpanName::kFsFault)), "ns"};
  m["fs.faults_4k"] = {Ratio(static_cast<double>(traced.fs.faults_4k), traced_rounds), "count"};
  m["fs.faults_2m"] = {Ratio(static_cast<double>(traced.fs.faults_2m), traced_rounds), "count"};
  m["fs.scalar_ns_per_call"] = {Ratio(total(SpanName::kFsCall), count(SpanName::kFsCall)), "ns"};
  m["wload.make_bed_s"] = {total(SpanName::kMakeBed) / 1e9, "s"};
  m["wload.fork_mount_s"] = {
      Ratio(total(SpanName::kForkMount), count(SpanName::kForkMount)) / 1e9, "s"};
  m["trace.gen_s"] = {total(SpanName::kTraceGen) / 1e9, "s"};
  m["trace.replay_self_ns_per_record"] = {
      Ratio(self(SpanName::kTraceReplay), static_cast<double>(traced.records)), "ns/record"};
  m["vmem.write_self_ns_per_mib"] = {
      Ratio(self(SpanName::kVmemWrite), static_cast<double>(traced.write_bytes) / (1 << 20)),
      "ns/MiB"};
  m["vmem.lines_self_ns_per_line"] = {
      Ratio(self(SpanName::kVmemLines), static_cast<double>(traced.lines)), "ns/line"};
  m["vmem.huge_pct"] = {HugePct(first), "%"};
  m["aging.self_s"] = {self(SpanName::kAging) / 1e9, "s"};
  m["aging.fs_s"] = {(total(SpanName::kAging) - self(SpanName::kAging)) / 1e9, "s"};
  m["snap.save_s"] = {total(SpanName::kSnapSave) / 1e9, "s"};
  m["snap.load_s"] = {total(SpanName::kSnapLoad) / 1e9, "s"};
  m["pmem.write_bytes_per_op"] = {Ratio(static_cast<double>(c.pm_write_bytes), ops), "B/op"};
  m["pmem.fences_per_op"] = {Ratio(static_cast<double>(c.fence_count), ops), "1/op"};
  m["pmem.clwb_per_op"] = {Ratio(static_cast<double>(c.clwb_count), ops), "1/op"};
  m["journal.bytes_per_op"] = {Ratio(static_cast<double>(c.journal_bytes), ops), "B/op"};
  m["alloc.aligned_ratio"] = {
      Ratio(static_cast<double>(c.aligned_allocs), static_cast<double>(c.alloc_requests)),
      "ratio"};
  m["vmem.tlb_l2_miss_ratio"] = {Ratio(static_cast<double>(c.tlb_l2_misses), translations),
                                 "ratio"};
  m["vmem.llc_miss_ratio"] = {
      Ratio(static_cast<double>(c.llc_misses), static_cast<double>(c.llc_hits + c.llc_misses)),
      "ratio"};
  AddProfilerMetrics(profiler, m);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  m["proc.minflt"] = {static_cast<double>(usage.ru_minflt), "count"};
  m["trace_overhead_ratio"] = {Ratio(traced.OpsPerSecond(), untraced.OpsPerSecond()), "ratio"};

  if (!args.spans_out.empty() && !spans.WriteTsv(args.spans_out).ok()) {
    std::fprintf(stderr, "perfbench: could not write %s\n", args.spans_out.c_str());
    return 1;
  }
  std::printf("perfbench: %zu spans kept in memory\n", spans.spans().size());
  const bool correct = all.failed == 0 && all.images_failed == 0;
  PrintResult(correct, all.ops, all.failed + all.images_failed, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, args) || MakeWorkload(args) == nullptr) {
    return Usage();
  }
  if (!CheckEnvironment()) {
    return 3;
  }
  std::printf("perfbench: workload=%s seed=%llu trace=%d build=%s compiler=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  return args.trace ? RunTraced(args) : RunUntraced(args);
}
