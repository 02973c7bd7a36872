// Standalone validator for bench artifacts. Modes:
//   bench_json_check BENCH_<name>.json
//       schema v4 validation of the report (obs::kBenchSchemaVersion).
//   bench_json_check BENCH_<name>.json --require-attribution <layer>...
//       additionally requires every result row to carry a profiler
//       attribution section with nonzero modeled time, summed over its ops,
//       in each named layer (vfs, fscore, journal, allocator, device, mmu) —
//       e.g. `device fscore` for the zone-derived Figure 2 copy/fault split.
//   bench_json_check BENCH_<name>.json --require-timeseries
//       additionally requires every result row to carry a timeseries section
//       with at least 10 samples each of aligned_free_fraction and
//       free_blocks — the aging-observatory trajectories.
//   bench_json_check --chrome-trace TRACE_<name>.json
//       structural validation of a Chrome trace-event export (the profiler's
//       zone ring and lock events): traceEvents array with complete ("X")
//       events spanning at least 2 categories and at least 2 CPU tracks
//       (tids).
//   bench_json_check BENCH_<name>.json --require-snap
//       requires the snapshot-corpus provenance config keys (snap_corpus,
//       snap_provenance, hit/miss/wall-clock counts) that every aged bench
//       must report.
//   bench_json_check BENCH_<name>.json --require-snap-warm
//       additionally requires the run to have been served entirely from the
//       corpus: snap_hits > 0, snap_misses == 0, and no builder wall time.
//   bench_json_check --compare-metrics A.json B.json
//       asserts both reports carry identical modeled results: same fs rows,
//       same results[].metrics keys/values (keys prefixed host_ are exempt —
//       wall-clock measurements), and bit-identical counter dumps. Used for
//       the cold-aging vs corpus-load equivalence check and the fig04/fig08
//       golden reports.
//   bench_json_check --opperf-speedup BENCH_opperf.json [min_ratio]
//       asserts the batched row's modeled output (non-host_ metrics and the
//       counter dump) is bit-identical to the scalar row's, and that its host
//       ns/op beats the scalar loop by at least min_ratio (default
//       kOpperfMinSpeedup, the one place the gate's threshold lives).
//   bench_json_check BENCH_<name>.json --require-contention [min_sites]
//       requires a schema-v3 contention section somewhere in the report
//       naming at least min_sites (default 1) distinct lock sites, each with
//       wait/hold percentile summaries — the profiler's named-lock-site
//       output.
//   bench_json_check --host-parallel-speedup BENCH_<name>.json [min_ratio]
//       finds the host_parallel block (metrics host_par_wall_w1_ns /
//       host_par_wall_w4_ns / host_par_speedup_4w on some result row) and,
//       when the recording machine had >= 4 cores (config host_cores),
//       asserts the 4-worker host wall-clock speedup is at least min_ratio
//       (default 2.0). On smaller hosts the ratio gate is waived — parallel
//       speedup is a hardware property — but the block's presence and shape
//       are still enforced, as is host_par_speedup_4w > 0.
//   bench_json_check BENCH_<name>.json --require-scenarios [min_tenants]
//       requires a schema-v4 per-tenant section somewhere in the report, with
//       the largest row covering at least min_tenants (default 1) tenants — the
//       trace-replay scenario fleet's multi-tenant output.
// Violations ACCUMULATE: every check scans its whole input and reports each
// violation on stderr before the process exits nonzero, so one run shows the
// full damage instead of the first broken row.
//   bench_json_check --prof-overhead BENCH_opperf.json [max_ratio]
//       asserts the batched-prof row's modeled output is bit-identical to the
//       batched row's (profiling must never perturb the simulation) and its
//       profiler-on host ns/op is at most max_ratio (default 1.05) times its
//       own profiler-off rounds — the <=5% profiling host-overhead gate.
// The CTest bench_json_schema / bench_timeseries_schema / bench_chrome_trace
// targets run a real bench and then this binary, so rot in the reporters
// fails the suite end-to-end.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/report.h"

namespace {

// Count of violations recorded so far. Checks call Fail() for every violation
// they find and keep scanning; main exits nonzero iff this is nonzero.
int g_failures = 0;

int Fail(const char* path, const std::string& why) {
  g_failures++;
  std::fprintf(stderr, "%s: %s\n", path, why.c_str());
  return 1;
}

// 0 iff no violation has been recorded.
int Verdict() { return g_failures == 0 ? 0 : 1; }

// Beyond the schema: every result row must have an attribution section whose
// ops, together, spent nonzero modeled time in each of `layers` (set for
// benches whose headline numbers are zone-derived, like fig02).
int CheckAttribution(const char* path, const obs::JsonValue& root,
                     const std::vector<std::string>& layers) {
  const obs::JsonValue* results = root.Find("results");
  for (const obs::JsonValue& row : results->array) {
    const std::string& fs = row.Find("fs")->string_value;
    const obs::JsonValue* attribution = row.Find("attribution");
    if (attribution == nullptr || !attribution->is_object()) {
      Fail(path, "result row '" + fs + "' lacks attribution");
      continue;
    }
    for (const std::string& layer : layers) {
      double ns = 0;
      for (const auto& [op, entry] : attribution->object) {
        (void)op;
        const obs::JsonValue* summary = entry.Find("layers")->Find(layer);
        if (summary != nullptr) {
          ns += summary->Find("mean")->number_value * summary->Find("count")->number_value;
        }
      }
      if (!(ns > 0)) {
        Fail(path, "result row '" + fs + "' attributes no time to layer " + layer);
      }
    }
  }
  return Verdict();
}

// Beyond the schema: every result row must carry the aging-observatory time
// series with enough samples of the headline fragmentation gauges to plot a
// trajectory.
int CheckTimeSeries(const char* path, const obs::JsonValue& root) {
  constexpr size_t kMinSamples = 10;
  const obs::JsonValue* results = root.Find("results");
  for (const obs::JsonValue& row : results->array) {
    const obs::JsonValue* fs = row.Find("fs");
    const obs::JsonValue* series = row.Find("timeseries");
    if (series == nullptr || !series->is_object()) {
      Fail(path, "result row '" + fs->string_value + "' lacks timeseries");
      continue;
    }
    for (const char* gauge : {"aligned_free_fraction", "free_blocks"}) {
      const obs::JsonValue* points = series->Find(gauge);
      if (points == nullptr || points->type != obs::JsonValue::Type::kArray) {
        Fail(path, "result row '" + fs->string_value + "' timeseries lacks " + gauge);
        continue;
      }
      if (points->array.size() < kMinSamples) {
        Fail(path, "result row '" + fs->string_value + "' timeseries." + gauge +
                       " has " + std::to_string(points->array.size()) +
                       " samples, need >= " + std::to_string(kMinSamples));
      }
    }
  }
  return Verdict();
}

// Structural check of a Chrome trace-event JSON: an object with a traceEvents
// array whose complete ("X") events cover >= 2 categories and >= 2 tids
// (per-CPU tracks), each with name/ts/dur/pid.
int CheckChromeTrace(const char* path, const std::string& text) {
  auto root = obs::JsonValue::Parse(text);
  if (!root.ok()) {
    return Fail(path, "parse failed: " + std::string(root.status().message()));
  }
  if (!root->is_object()) {
    return Fail(path, "top level is not an object");
  }
  const obs::JsonValue* events = root->Find("traceEvents");
  if (events == nullptr || events->type != obs::JsonValue::Type::kArray) {
    return Fail(path, "missing traceEvents array");
  }
  std::set<std::string> cats;
  std::set<double> tids;
  size_t complete_events = 0;
  for (const obs::JsonValue& ev : events->array) {
    if (!ev.is_object()) {
      Fail(path, "traceEvents entry is not an object");
      continue;
    }
    const obs::JsonValue* ph = ev.Find("ph");
    if (ph == nullptr || ph->type != obs::JsonValue::Type::kString) {
      Fail(path, "traceEvents entry lacks ph");
      continue;
    }
    if (ph->string_value != "X") {
      continue;  // metadata etc.
    }
    complete_events++;
    bool shape_ok = true;
    for (const char* key : {"name", "cat"}) {
      const obs::JsonValue* v = ev.Find(key);
      if (v == nullptr || v->type != obs::JsonValue::Type::kString) {
        Fail(path, "X event lacks string " + std::string(key));
        shape_ok = false;
      }
    }
    for (const char* key : {"ts", "dur", "pid", "tid"}) {
      const obs::JsonValue* v = ev.Find(key);
      if (v == nullptr || !v->is_number()) {
        Fail(path, "X event lacks numeric " + std::string(key));
        shape_ok = false;
      }
    }
    if (!shape_ok) {
      continue;
    }
    cats.insert(ev.Find("cat")->string_value);
    tids.insert(ev.Find("tid")->number_value);
  }
  if (complete_events == 0) {
    Fail(path, "no complete (ph=X) events");
  }
  if (cats.size() < 2) {
    Fail(path, "events cover " + std::to_string(cats.size()) +
                   " categories, need >= 2");
  }
  if (tids.size() < 2) {
    Fail(path, "events cover " + std::to_string(tids.size()) +
                   " CPU tracks, need >= 2");
  }
  if (Verdict() != 0) {
    return 1;
  }
  std::printf("%s: ok (%zu X events, %zu categories, %zu cpu tracks)\n", path,
              complete_events, cats.size(), tids.size());
  return 0;
}

// Snapshot-provenance config keys every aged bench must report. `warm`
// additionally asserts the run never aged inline: all images served from the
// corpus, zero misses, zero builder wall-clock.
int CheckSnapConfig(const char* path, const obs::JsonValue& root, bool warm) {
  const obs::JsonValue* config = root.Find("config");
  if (config == nullptr || !config->is_object()) {
    return Fail(path, "missing config object");
  }
  bool keys_ok = true;
  for (const char* key : {"snap_corpus", "snap_provenance"}) {
    const obs::JsonValue* v = config->Find(key);
    if (v == nullptr || v->type != obs::JsonValue::Type::kString ||
        v->string_value.empty()) {
      Fail(path, "config lacks string " + std::string(key));
      keys_ok = false;
    }
  }
  for (const char* key : {"snap_format_version", "snap_hits", "snap_misses",
                          "snap_build_wall_ms", "snap_load_wall_ms"}) {
    const obs::JsonValue* v = config->Find(key);
    if (v == nullptr || !v->is_number()) {
      Fail(path, "config lacks numeric " + std::string(key));
      keys_ok = false;
    }
  }
  if (warm && keys_ok) {
    const double hits = config->Find("snap_hits")->number_value;
    const double misses = config->Find("snap_misses")->number_value;
    const double build_ms = config->Find("snap_build_wall_ms")->number_value;
    if (hits <= 0) {
      Fail(path, "warm corpus run reported snap_hits == 0");
    }
    if (misses != 0) {
      Fail(path, "warm corpus run reported snap_misses == " +
                     std::to_string(misses));
    }
    if (build_ms != 0) {
      Fail(path, "warm corpus run spent " + std::to_string(build_ms) +
                     " ms building images (expected 0: Geriatrix must be skipped)");
    }
    if (Verdict() == 0) {
      const obs::JsonValue* load_ms = config->Find("snap_load_wall_ms");
      std::printf("%s: warm corpus run (hits=%g, load=%g ms, build=0 ms)\n", path, hits,
                  load_ms->number_value);
    }
  }
  return Verdict();
}

// Both reports must carry identical modeled results — same fs rows in any
// order, same metric keys, bit-identical values, and bit-identical counter
// dumps. Metric keys prefixed "host_" (wall-clock measurements, e.g.
// simperf's throughput numbers) are exempt: they describe the machine the
// bench ran on, not the simulation. This is both the aged-bench equivalence
// gate (corpus-loaded images must reproduce inline-aging numbers) and the
// golden-report gate (a bench must reproduce its committed modeled output).
int CompareMetrics(const char* path_a, const obs::JsonValue& a, const char* path_b,
                   const obs::JsonValue& b) {
  auto collect = [](const obs::JsonValue& root, const char* section) {
    std::map<std::string, std::map<std::string, double>> out;
    for (const obs::JsonValue& row : root.Find("results")->array) {
      auto& values = out[row.Find("fs")->string_value];
      const obs::JsonValue* m = row.Find(section);
      if (m != nullptr && m->is_object()) {
        for (const auto& [key, value] : m->object) {
          if (key.rfind("host_", 0) == 0) {
            continue;  // host wall-clock measurement, legitimately differs
          }
          values[key] = value.number_value;
        }
      }
    }
    return out;
  };
  size_t compared = 0;
  size_t rows = 0;
  for (const char* section : {"metrics", "counters"}) {
    const auto ma = collect(a, section);
    const auto mb = collect(b, section);
    if (ma.size() != mb.size()) {
      Fail(path_b, "fs row count differs: " + std::to_string(ma.size()) + " vs " +
                       std::to_string(mb.size()));
    }
    rows = ma.size();
    for (const auto& [fs, values] : ma) {
      auto it = mb.find(fs);
      if (it == mb.end()) {
        Fail(path_b, "missing fs row '" + fs + "'");
        continue;
      }
      if (it->second.size() != values.size()) {
        Fail(path_b, "fs '" + fs + "' " + section + " count differs");
      }
      for (const auto& [key, value] : values) {
        auto mit = it->second.find(key);
        if (mit == it->second.end()) {
          Fail(path_b, "fs '" + fs + "' lacks " + std::string(section) + " " + key);
          continue;
        }
        if (mit->second != value) {
          char why[256];
          std::snprintf(why, sizeof(why), "fs '%s' %s %s differs: %.17g vs %.17g",
                        fs.c_str(), section, key.c_str(), value, mit->second);
          Fail(path_b, why);
          continue;
        }
        compared++;
      }
    }
  }
  if (Verdict() != 0) {
    return 1;
  }
  std::printf("%s == %s: %zu modeled values identical across %zu fs rows\n", path_a, path_b,
              compared, rows);
  return 0;
}

// Reads fs row `fs`'s metric `key` from a parsed report.
const obs::JsonValue* FindMetric(const obs::JsonValue& root, const std::string& fs,
                                 const std::string& key) {
  for (const obs::JsonValue& row : root.Find("results")->array) {
    if (row.Find("fs")->string_value != fs) {
      continue;
    }
    const obs::JsonValue* m = row.Find("metrics");
    return m != nullptr && m->is_object() ? m->Find(key) : nullptr;
  }
  return nullptr;
}

// Shared machinery for the within-one-file opperf gates: asserts rows
// `base_row` and `other_row` carry bit-identical modeled output (every
// non-host_ metric and every counter), then returns the host ns/op ratio
// base/other through `out_ratio`. Returns nonzero on any mismatch.
int CompareRowsModeled(const char* path, const obs::JsonValue& root,
                       const std::string& base_row, const std::string& other_row,
                       double& out_ratio) {
  auto collect = [&root](const std::string& fs, const char* section) {
    std::map<std::string, double> out;
    for (const obs::JsonValue& row : root.Find("results")->array) {
      if (row.Find("fs")->string_value != fs) {
        continue;
      }
      const obs::JsonValue* m = row.Find(section);
      if (m != nullptr && m->is_object()) {
        for (const auto& [key, value] : m->object) {
          if (key.rfind("host_", 0) == 0) {
            continue;  // host wall-clock measurement, legitimately differs
          }
          out[key] = value.number_value;
        }
      }
    }
    return out;
  };
  size_t compared = 0;
  for (const char* section : {"metrics", "counters"}) {
    const auto base = collect(base_row, section);
    const auto other = collect(other_row, section);
    if (base.empty() || base.size() != other.size()) {
      return Fail(path, base_row + "/" + other_row + " " + std::string(section) +
                            " rows missing or ragged");
    }
    for (const auto& [key, value] : base) {
      auto it = other.find(key);
      if (it == other.end()) {
        return Fail(path, other_row + " row lacks " + std::string(section) + " " + key);
      }
      if (it->second != value) {
        char why[256];
        std::snprintf(why, sizeof(why), "%s %s differs: %s %.17g vs %s %.17g", section,
                      key.c_str(), base_row.c_str(), value, other_row.c_str(), it->second);
        return Fail(path, why);
      }
      compared++;
    }
  }
  const obs::JsonValue* b = FindMetric(root, base_row, "host_ns_per_op");
  const obs::JsonValue* o = FindMetric(root, other_row, "host_ns_per_op");
  if (b == nullptr || !b->is_number()) {
    return Fail(path, "no " + base_row + " host_ns_per_op metric");
  }
  if (o == nullptr || !o->is_number() || o->number_value <= 0) {
    return Fail(path, "no usable " + other_row + " host_ns_per_op metric");
  }
  out_ratio = b->number_value / o->number_value;
  std::printf("%s vs %s: %zu modeled values identical; host ns/op %.1f vs %.1f\n",
              base_row.c_str(), other_row.c_str(), compared, b->number_value, o->number_value);
  return 0;
}

// Default --opperf-speedup threshold: 5 x (scalar host ns/op after the
// allocation-free path walker / before it), from the medians of 12
// alternating serial opperf runs of each (340.2 / 810.8 ns/op, RelWithDebInfo
// on a 4-vCPU Xeon VM). It keeps the batched engine's allowed ns/op where the
// earlier 5x gate put it, now that the scalar loop it is divided by is ~2.4x
// faster.
constexpr double kOpperfMinSpeedup = 2.1;

// Within-one-file gate for BENCH_opperf.json: the "scalar" and "batched"
// rows must carry bit-identical modeled output (the batched dispatch is a
// host-speed optimization only), and the batched row's host ns/op must beat
// the scalar row's by at least `min_ratio`.
int CheckOpperfSpeedup(const char* path, const obs::JsonValue& root, double min_ratio) {
  double ratio = 0;
  if (int rc = CompareRowsModeled(path, root, "scalar", "batched", ratio); rc != 0) {
    return rc;
  }
  std::printf("opperf: batched speedup %.2fx\n", ratio);
  if (ratio < min_ratio) {
    char why[128];
    std::snprintf(why, sizeof(why), "speedup %.2fx below required %.2fx", ratio, min_ratio);
    return Fail(path, why);
  }
  return 0;
}

// Profiling host-overhead gate for BENCH_opperf.json: the "batched-prof" row
// (profiler attached) must carry modeled output bit-identical to the plain
// "batched" row, and its host_prof_overhead_factor — the interquartile-mean
// ratio of the profiler-on vs profiler-off round populations, alternated on
// the same bed and computed by opperf itself — may be at most `max_ratio`.
// Same-bed alternation is what keeps a 5% margin testable: cross-bed
// memory-layout luck alone exceeds it.
int CheckProfOverhead(const char* path, const obs::JsonValue& root, double max_ratio) {
  double unused_ratio = 0;
  if (int rc = CompareRowsModeled(path, root, "batched", "batched-prof", unused_ratio);
      rc != 0) {
    return rc;
  }
  const obs::JsonValue* factor = FindMetric(root, "batched-prof", "host_prof_overhead_factor");
  if (factor == nullptr || !factor->is_number() || factor->number_value <= 0) {
    return Fail(path, "no usable batched-prof host_prof_overhead_factor metric");
  }
  const double overhead = factor->number_value;
  std::printf("opperf: profiling host overhead %.2f%% (factor %.4fx, max %.4fx)\n",
              100.0 * (overhead - 1.0), overhead, max_ratio);
  if (overhead > max_ratio) {
    char why[128];
    std::snprintf(why, sizeof(why), "profiling overhead %.4fx above allowed %.4fx", overhead,
                  max_ratio);
    return Fail(path, why);
  }
  return 0;
}

// Requires at least `min_sites` distinct named lock sites across all result
// rows' contention sections (schema validation has already checked each
// site's shape: counts, totals, wait/hold percentile summaries).
int CheckContention(const char* path, const obs::JsonValue& root, size_t min_sites) {
  std::set<std::string> sites;
  size_t rows_with_contention = 0;
  for (const obs::JsonValue& row : root.Find("results")->array) {
    const obs::JsonValue* contention = row.Find("contention");
    if (contention == nullptr || !contention->is_object()) {
      continue;
    }
    rows_with_contention++;
    for (const auto& [site, entry] : contention->object) {
      (void)entry;
      sites.insert(site);
    }
  }
  if (rows_with_contention == 0) {
    Fail(path, "no result row carries a contention section");
  } else if (sites.size() < min_sites) {
    Fail(path, "contention names " + std::to_string(sites.size()) +
                   " distinct lock sites, need >= " + std::to_string(min_sites));
  }
  if (Verdict() != 0) {
    return 1;
  }
  std::printf("%s: contention ok (%zu distinct lock sites across %zu rows)\n", path,
              sites.size(), rows_with_contention);
  return 0;
}

// Requires a schema-v4 per-tenant section somewhere in the report, with the
// largest row covering at least `min_tenants` tenants — each tenants entry's
// shape (ops, ops_per_sec, latency summary) is already schema-validated.
int CheckScenarios(const char* path, const obs::JsonValue& root, size_t min_tenants) {
  size_t rows_with_tenants = 0;
  size_t max_tenants = 0;
  for (const obs::JsonValue& row : root.Find("results")->array) {
    const obs::JsonValue* tenants = row.Find("tenants");
    if (tenants == nullptr || !tenants->is_object()) {
      continue;
    }
    rows_with_tenants++;
    if (tenants->object.size() > max_tenants) {
      max_tenants = tenants->object.size();
    }
  }
  if (rows_with_tenants == 0) {
    Fail(path, "no result row carries a tenants section");
  } else if (max_tenants < min_tenants) {
    Fail(path, "largest tenants section covers " + std::to_string(max_tenants) +
                   " tenants, need >= " + std::to_string(min_tenants));
  }
  if (Verdict() != 0) {
    return 1;
  }
  std::printf("%s: scenarios ok (%zu rows with tenants, max %zu tenants)\n", path,
              rows_with_tenants, max_tenants);
  return 0;
}

// Host-parallel speedup gate: some result row must carry the host_parallel
// metric block (fig10 puts it on the winefs row, opperf on a dedicated
// "host-parallel" row). The >= min_ratio wall-clock gate only binds when the
// recording host had >= 4 cores (config host_cores): a 1-core container
// cannot exhibit parallel speedup, and waiving there keeps the check honest
// rather than flaky.
int CheckHostParallel(const char* path, const obs::JsonValue& root, double min_ratio) {
  const obs::JsonValue* config = root.Find("config");
  const obs::JsonValue* cores =
      config != nullptr && config->is_object() ? config->Find("host_cores") : nullptr;
  if (cores == nullptr || !cores->is_number() || cores->number_value < 1) {
    return Fail(path, "config lacks numeric host_cores (host_parallel provenance)");
  }
  std::string row_name;
  const obs::JsonValue* metrics = nullptr;
  for (const obs::JsonValue& row : root.Find("results")->array) {
    const obs::JsonValue* m = row.Find("metrics");
    if (m != nullptr && m->is_object() && m->Find("host_par_speedup_4w") != nullptr) {
      row_name = row.Find("fs")->string_value;
      metrics = m;
      break;
    }
  }
  if (metrics == nullptr) {
    return Fail(path, "no result row carries a host_par_speedup_4w metric");
  }
  for (const char* key :
       {"host_par_wall_w1_ns", "host_par_wall_w4_ns", "host_par_speedup_4w",
        "host_par_workers"}) {
    const obs::JsonValue* v = metrics->Find(key);
    if (v == nullptr || !v->is_number() || v->number_value <= 0) {
      Fail(path, "row '" + row_name + "' lacks positive metric " + key);
    }
  }
  if (Verdict() != 0) {
    return 1;
  }
  const double speedup = metrics->Find("host_par_speedup_4w")->number_value;
  const double host_cores = cores->number_value;
  std::printf("%s: host_parallel row '%s' speedup %.2fx at %g workers (host_cores=%g)\n",
              path, row_name.c_str(), speedup,
              metrics->Find("host_par_workers")->number_value, host_cores);
  if (host_cores < 4) {
    std::printf("%s: ratio gate waived (host_cores=%g < 4; need real cores for speedup)\n",
                path, host_cores);
    return 0;
  }
  if (speedup < min_ratio) {
    char why[128];
    std::snprintf(why, sizeof(why), "host parallel speedup %.2fx below required %.2fx",
                  speedup, min_ratio);
    return Fail(path, why);
  }
  return 0;
}

std::string ReadAll(const char* path, bool& ok) {
  std::ifstream in(path);
  if (!in) {
    ok = false;
    return {};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  ok = true;
  return buf.str();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s BENCH_<name>.json [--require-attribution <layer>... |\n"
                 "           --require-timeseries |\n"
                 "           --require-snap | --require-snap-warm |\n"
                 "           --require-contention [min_sites] |\n"
                 "           --require-scenarios [min_tenants]]\n"
                 "       %s --compare-metrics A.json B.json\n"
                 "       %s --opperf-speedup BENCH_opperf.json [min_ratio]\n"
                 "       %s --prof-overhead BENCH_opperf.json [max_ratio]\n"
                 "       %s --host-parallel-speedup BENCH_<name>.json [min_ratio]\n"
                 "       %s --chrome-trace TRACE_<name>.json\n",
                 argv[0], argv[0], argv[0], argv[0], argv[0], argv[0]);
    return 2;
  }

  if (std::strcmp(argv[1], "--compare-metrics") == 0) {
    if (argc < 4) {
      std::fprintf(stderr, "usage: %s %s A.json B.json\n", argv[0], argv[1]);
      return 2;
    }
    bool ok_a = false;
    bool ok_b = false;
    const std::string text_a = ReadAll(argv[2], ok_a);
    const std::string text_b = ReadAll(argv[3], ok_b);
    if (!ok_a) {
      return Fail(argv[2], "cannot open");
    }
    if (!ok_b) {
      return Fail(argv[3], "cannot open");
    }
    for (const char* p : {argv[2], argv[3]}) {
      const common::Status status =
          obs::ValidateBenchReportJson(p == argv[2] ? text_a : text_b);
      if (!status.ok()) {
        return Fail(p, "schema violation: " + std::string(status.message()));
      }
    }
    auto a = obs::JsonValue::Parse(text_a);
    auto b = obs::JsonValue::Parse(text_b);
    if (!a.ok() || !b.ok()) {
      return Fail(argv[2], "parse failed after validation");
    }
    return CompareMetrics(argv[2], *a, argv[3], *b);
  }

  if (std::strcmp(argv[1], "--host-parallel-speedup") == 0) {
    if (argc < 3) {
      std::fprintf(stderr, "usage: %s --host-parallel-speedup BENCH_<name>.json [min_ratio]\n",
                   argv[0]);
      return 2;
    }
    bool ok = false;
    const std::string text = ReadAll(argv[2], ok);
    if (!ok) {
      return Fail(argv[2], "cannot open");
    }
    const common::Status status = obs::ValidateBenchReportJson(text);
    if (!status.ok()) {
      return Fail(argv[2], "schema violation: " + std::string(status.message()));
    }
    auto root = obs::JsonValue::Parse(text);
    if (!root.ok()) {
      return Fail(argv[2], "parse failed after validation");
    }
    const double min_ratio = argc > 3 ? std::atof(argv[3]) : 2.0;
    return CheckHostParallel(argv[2], *root, min_ratio);
  }

  if (std::strcmp(argv[1], "--opperf-speedup") == 0 ||
      std::strcmp(argv[1], "--prof-overhead") == 0) {
    if (argc < 3) {
      std::fprintf(stderr, "usage: %s %s BENCH_opperf.json [ratio]\n", argv[0], argv[1]);
      return 2;
    }
    bool ok = false;
    const std::string text = ReadAll(argv[2], ok);
    if (!ok) {
      return Fail(argv[2], "cannot open");
    }
    const common::Status status = obs::ValidateBenchReportJson(text);
    if (!status.ok()) {
      return Fail(argv[2], "schema violation: " + std::string(status.message()));
    }
    auto root = obs::JsonValue::Parse(text);
    if (!root.ok()) {
      return Fail(argv[2], "parse failed after validation");
    }
    if (std::strcmp(argv[1], "--prof-overhead") == 0) {
      const double max_ratio = argc > 3 ? std::atof(argv[3]) : 1.05;
      return CheckProfOverhead(argv[2], *root, max_ratio);
    }
    const double min_ratio = argc > 3 ? std::atof(argv[3]) : kOpperfMinSpeedup;
    return CheckOpperfSpeedup(argv[2], *root, min_ratio);
  }

  if (std::strcmp(argv[1], "--chrome-trace") == 0) {
    if (argc < 3) {
      std::fprintf(stderr, "usage: %s --chrome-trace TRACE_<name>.json\n", argv[0]);
      return 2;
    }
    bool ok = false;
    const std::string text = ReadAll(argv[2], ok);
    if (!ok) {
      return Fail(argv[2], "cannot open");
    }
    return CheckChromeTrace(argv[2], text);
  }

  bool ok = false;
  const std::string text = ReadAll(argv[1], ok);
  if (!ok) {
    return Fail(argv[1], "cannot open");
  }

  const common::Status status = obs::ValidateBenchReportJson(text);
  if (!status.ok()) {
    return Fail(argv[1], "schema violation: " + std::string(status.message()));
  }
  if (argc > 2) {
    auto root = obs::JsonValue::Parse(text);
    if (!root.ok()) {
      return Fail(argv[1], "parse failed after validation");
    }
    if (std::strcmp(argv[2], "--require-attribution") == 0) {
      const std::vector<std::string> layers(argv + 3, argv + argc);
      if (int rc = CheckAttribution(argv[1], *root, layers); rc != 0) {
        return rc;
      }
    } else if (std::strcmp(argv[2], "--require-timeseries") == 0) {
      if (int rc = CheckTimeSeries(argv[1], *root); rc != 0) {
        return rc;
      }
    } else if (std::strcmp(argv[2], "--require-snap") == 0) {
      if (int rc = CheckSnapConfig(argv[1], *root, /*warm=*/false); rc != 0) {
        return rc;
      }
    } else if (std::strcmp(argv[2], "--require-snap-warm") == 0) {
      if (int rc = CheckSnapConfig(argv[1], *root, /*warm=*/true); rc != 0) {
        return rc;
      }
    } else if (std::strcmp(argv[2], "--require-contention") == 0) {
      const size_t min_sites =
          argc > 3 ? static_cast<size_t>(std::atoi(argv[3])) : 1;
      if (int rc = CheckContention(argv[1], *root, min_sites); rc != 0) {
        return rc;
      }
    } else if (std::strcmp(argv[2], "--require-scenarios") == 0) {
      const size_t min_tenants =
          argc > 3 ? static_cast<size_t>(std::atoi(argv[3])) : 1;
      if (int rc = CheckScenarios(argv[1], *root, min_tenants); rc != 0) {
        return rc;
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[2]);
      return 2;
    }
  }
  std::printf("%s: ok\n", argv[1]);
  return 0;
}
