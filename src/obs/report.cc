#include "src/obs/report.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>

#include "src/common/prof.h"
#include "src/obs/json.h"
#include "src/obs/profiler.h"

namespace obs {

LatencySummary SummarizeHistogram(std::string op, const common::LatencyHistogram& hist) {
  LatencySummary s;
  s.op = std::move(op);
  s.count = hist.count();
  if (s.count > 0) {
    s.mean_ns = hist.MeanNanos();
    s.p50_ns = hist.Percentile(50.0);
    s.p90_ns = hist.Percentile(90.0);
    s.p99_ns = hist.Percentile(99.0);
    s.p999_ns = hist.Percentile(99.9);
    s.min_ns = hist.MinNanos();
    s.max_ns = hist.MaxNanos();
  }
  return s;
}

BenchReport::BenchReport(std::string bench_name) : name_(std::move(bench_name)) {}

void BenchReport::AddConfig(std::string key, std::string value) {
  ConfigEntry entry;
  entry.key = std::move(key);
  entry.str = std::move(value);
  config_.push_back(std::move(entry));
}

void BenchReport::AddConfig(std::string key, double value) {
  ConfigEntry entry;
  entry.key = std::move(key);
  entry.is_number = true;
  entry.num = value;
  config_.push_back(std::move(entry));
}

FsResult& BenchReport::ForFs(std::string_view fs) {
  for (FsResult& row : results_) {
    if (row.fs == fs) {
      return row;
    }
  }
  results_.emplace_back();
  results_.back().fs = std::string(fs);
  return results_.back();
}

void BenchReport::AddMetric(std::string_view fs, std::string key, double value) {
  ForFs(fs).metrics.emplace_back(std::move(key), value);
}

void BenchReport::SetCounters(std::string_view fs, const common::PerfCounters& counters) {
  ForFs(fs).counters = counters;
}

void BenchReport::AddContention(std::string_view fs, const Profiler& profiler) {
  std::vector<LockSiteStats> sites = profiler.LockSites();
  if (sites.empty()) {
    return;
  }
  std::sort(sites.begin(), sites.end(), [](const LockSiteStats& a, const LockSiteStats& b) {
    return a.total_wait_ns > b.total_wait_ns;
  });
  FsResult& row = ForFs(fs);
  row.contention.clear();
  for (const LockSiteStats& stats : sites) {
    ContentionSite site;
    site.site = stats.site;
    site.acquisitions = stats.acquisitions;
    site.contended = stats.contended;
    site.total_wait_ns = stats.total_wait_ns;
    site.total_hold_ns = stats.total_hold_ns;
    site.max_wait_ns = stats.max_wait_ns;
    site.wait = SummarizeHistogram("wait", stats.wait);
    site.hold = SummarizeHistogram("hold", stats.hold);
    row.contention.push_back(std::move(site));
  }
}

void BenchReport::AddAttribution(std::string_view fs, const Profiler& profiler) {
  std::vector<Profiler::OpAttribution> ops = profiler.Attribution();
  if (ops.empty()) {
    return;
  }
  FsResult& row = ForFs(fs);
  row.attribution.clear();
  for (const Profiler::OpAttribution& op : ops) {
    AttributionOp out;
    out.op = op.op;
    out.ops_sampled = op.ops_sampled;
    out.total = SummarizeHistogram("total", op.total);
    for (size_t i = 0; i < common::kNumProfLayers; i++) {
      if (op.layers[i].count() == 0) {
        continue;
      }
      const auto layer = static_cast<common::ProfLayer>(i);
      out.layers.emplace_back(std::string(common::ProfLayerName(layer)),
                              SummarizeHistogram("layer", op.layers[i]));
    }
    row.attribution.push_back(std::move(out));
  }
}

void BenchReport::AddTenants(std::string_view fs, const std::vector<TenantSummary>& tenants) {
  FsResult& row = ForFs(fs);
  row.tenants.clear();
  for (const TenantSummary& t : tenants) {
    if (t.ops > 0) {
      row.tenants.push_back(t);
    }
  }
}

void BenchReport::AddTimeSeries(std::string_view fs, const TimeSeries& series) {
  FsResult& row = ForFs(fs);
  for (const auto& [gauge, points] : series.series()) {
    auto existing = row.timeseries.end();
    for (auto it = row.timeseries.begin(); it != row.timeseries.end(); ++it) {
      if (it->first == gauge) {
        existing = it;
        break;
      }
    }
    if (existing == row.timeseries.end()) {
      row.timeseries.emplace_back(gauge, points);
    } else {
      existing->second.insert(existing->second.end(), points.begin(), points.end());
    }
  }
}

namespace {

// Emits {count, mean, p50, p90, p99, p999, min, max} for one summary.
void WriteSummaryObject(JsonWriter& w, const LatencySummary& s) {
  w.BeginObject();
  w.Key("count").Number(s.count);
  w.Key("mean").Number(s.mean_ns);
  w.Key("p50").Number(s.p50_ns);
  w.Key("p90").Number(s.p90_ns);
  w.Key("p99").Number(s.p99_ns);
  w.Key("p999").Number(s.p999_ns);
  w.Key("min").Number(s.min_ns);
  w.Key("max").Number(s.max_ns);
  w.EndObject();
}

}  // namespace

std::string BenchReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema_version").Number(static_cast<uint64_t>(kBenchSchemaVersion));
  w.Key("bench").String(name_);
  w.Key("config").BeginObject();
  for (const ConfigEntry& entry : config_) {
    w.Key(entry.key);
    if (entry.is_number) {
      w.Number(entry.num);
    } else {
      w.String(entry.str);
    }
  }
  w.EndObject();
  w.Key("results").BeginArray();
  for (const FsResult& row : results_) {
    w.BeginObject();
    w.Key("fs").String(row.fs);
    w.Key("metrics").BeginObject();
    for (const auto& [key, value] : row.metrics) {
      w.Key(key).Number(value);
    }
    w.EndObject();
    if (!row.latencies.empty()) {
      w.Key("latency_ns").BeginObject();
      for (const LatencySummary& lat : row.latencies) {
        w.Key(lat.op);
        WriteSummaryObject(w, lat);
      }
      w.EndObject();
    }
    if (!row.contention.empty()) {
      // site -> counts/totals plus wait/hold percentile summaries.
      w.Key("contention").BeginObject();
      for (const ContentionSite& site : row.contention) {
        w.Key(site.site).BeginObject();
        w.Key("acquisitions").Number(site.acquisitions);
        w.Key("contended").Number(site.contended);
        w.Key("total_wait_ns").Number(site.total_wait_ns);
        w.Key("total_hold_ns").Number(site.total_hold_ns);
        w.Key("max_wait_ns").Number(site.max_wait_ns);
        w.Key("wait");
        WriteSummaryObject(w, site.wait);
        w.Key("hold");
        WriteSummaryObject(w, site.hold);
        w.EndObject();
      }
      w.EndObject();
    }
    if (!row.attribution.empty()) {
      // op -> sampled count, total summary, and per-layer exclusive-ns
      // summaries for the layers the op touched.
      w.Key("attribution").BeginObject();
      for (const AttributionOp& op : row.attribution) {
        w.Key(op.op).BeginObject();
        w.Key("ops_sampled").Number(op.ops_sampled);
        w.Key("total");
        WriteSummaryObject(w, op.total);
        w.Key("layers").BeginObject();
        for (const auto& [layer, summary] : op.layers) {
          w.Key(layer);
          WriteSummaryObject(w, summary);
        }
        w.EndObject();
        w.EndObject();
      }
      w.EndObject();
    }
    if (!row.tenants.empty()) {
      // tenant id -> ops, throughput, and per-request latency summary.
      w.Key("tenants").BeginObject();
      for (const TenantSummary& t : row.tenants) {
        w.Key(std::to_string(t.tenant)).BeginObject();
        w.Key("ops").Number(t.ops);
        w.Key("ops_per_sec").Number(t.ops_per_sec);
        w.Key("latency");
        WriteSummaryObject(w, t.latency);
        w.EndObject();
      }
      w.EndObject();
    }
    if (!row.timeseries.empty()) {
      // gauge -> [[t_ns, value], ...] in sample order.
      w.Key("timeseries").BeginObject();
      for (const auto& [gauge, points] : row.timeseries) {
        w.Key(gauge).BeginArray();
        for (const TimeSeriesPoint& point : points) {
          w.BeginArray();
          w.Number(point.t_ns);
          w.Number(point.value);
          w.EndArray();
        }
        w.EndArray();
      }
      w.EndObject();
    }
    w.Key("counters").BeginObject();
    for (const common::CounterField& field : common::kCounterFields) {
      w.Key(field.name).Number(row.counters.*field.member);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

common::Result<std::string> BenchReport::WriteFile() const {
  const std::string json = ToJson();
  RETURN_IF_ERROR(ValidateBenchReportJson(json));
  const char* dir = std::getenv("BENCH_OUT_DIR");
  std::string path = (dir != nullptr && dir[0] != '\0') ? std::string(dir) : std::string(".");
  if (path.back() != '/') {
    path += '/';
  }
  path += "BENCH_" + name_ + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return common::ErrorCode::kIoError;
  }
  out << json << "\n";
  out.close();
  if (!out) {
    return common::ErrorCode::kIoError;
  }
  return path;
}

namespace {

bool IsNumber(const JsonValue* value) {
  return value != nullptr && value->is_number();
}

// All members of `parent[key]`'s object must be numbers.
bool IsNumberObject(const JsonValue* value) {
  if (value == nullptr || !value->is_object()) {
    return false;
  }
  for (const auto& [key, member] : value->object) {
    (void)key;
    if (!member.is_number()) {
      return false;
    }
  }
  return true;
}

// A {count, mean, p50, p90, p99, p999, min, max} summary object.
bool IsSummaryObject(const JsonValue* value) {
  if (value == nullptr || !value->is_object()) {
    return false;
  }
  for (const char* key : {"count", "mean", "p50", "p90", "p99", "p999", "min", "max"}) {
    if (!IsNumber(value->Find(key))) {
      return false;
    }
  }
  return true;
}

}  // namespace

common::Status ValidateBenchReportJson(std::string_view json_text) {
  common::Result<JsonValue> parsed = JsonValue::Parse(json_text);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const JsonValue& root = *parsed;
  const auto invalid = common::ErrorStatus(common::ErrorCode::kInvalidArgument);
  if (!root.is_object()) {
    return invalid;
  }
  const JsonValue* version = root.Find("schema_version");
  if (!IsNumber(version) || version->number_value != kBenchSchemaVersion) {
    return invalid;
  }
  const JsonValue* bench = root.Find("bench");
  if (bench == nullptr || !bench->is_string() || bench->string_value.empty()) {
    return invalid;
  }
  const JsonValue* config = root.Find("config");
  if (config == nullptr || !config->is_object()) {
    return invalid;
  }
  const JsonValue* results = root.Find("results");
  if (results == nullptr || !results->is_array() || results->array.empty()) {
    return invalid;
  }
  for (const JsonValue& row : results->array) {
    if (!row.is_object()) {
      return invalid;
    }
    const JsonValue* fs = row.Find("fs");
    if (fs == nullptr || !fs->is_string() || fs->string_value.empty()) {
      return invalid;
    }
    if (!IsNumberObject(row.Find("metrics"))) {
      return invalid;
    }
    // Counter dump must cover every registered counter.
    const JsonValue* counters = row.Find("counters");
    if (!IsNumberObject(counters)) {
      return invalid;
    }
    for (const common::CounterField& field : common::kCounterFields) {
      if (counters->Find(field.name) == nullptr) {
        return invalid;
      }
    }
    const JsonValue* latency = row.Find("latency_ns");
    if (latency != nullptr) {
      if (!latency->is_object()) {
        return invalid;
      }
      for (const auto& [op, summary] : latency->object) {
        (void)op;
        if (!IsSummaryObject(&summary)) {
          return invalid;
        }
      }
    }
    // contention (optional, v3): site -> numeric counts/totals plus wait/hold
    // percentile summary objects.
    const JsonValue* contention = row.Find("contention");
    if (contention != nullptr) {
      if (!contention->is_object() || contention->object.empty()) {
        return invalid;
      }
      for (const auto& [site, entry] : contention->object) {
        if (site.empty() || !entry.is_object()) {
          return invalid;
        }
        for (const char* key :
             {"acquisitions", "contended", "total_wait_ns", "total_hold_ns", "max_wait_ns"}) {
          if (!IsNumber(entry.Find(key))) {
            return invalid;
          }
        }
        if (!IsSummaryObject(entry.Find("wait")) || !IsSummaryObject(entry.Find("hold"))) {
          return invalid;
        }
      }
    }
    // attribution (optional, v3): op -> {ops_sampled, total summary, layers:
    // layer-name -> summary}.
    const JsonValue* attribution = row.Find("attribution");
    if (attribution != nullptr) {
      if (!attribution->is_object() || attribution->object.empty()) {
        return invalid;
      }
      for (const auto& [op, entry] : attribution->object) {
        if (op.empty() || !entry.is_object()) {
          return invalid;
        }
        if (!IsNumber(entry.Find("ops_sampled")) || !IsSummaryObject(entry.Find("total"))) {
          return invalid;
        }
        const JsonValue* layers = entry.Find("layers");
        if (layers == nullptr || !layers->is_object() || layers->object.empty()) {
          return invalid;
        }
        for (const auto& [layer, summary] : layers->object) {
          if (layer.empty() || !IsSummaryObject(&summary)) {
            return invalid;
          }
        }
      }
    }
    // tenants (optional, v4): tenant id -> {ops, ops_per_sec, latency
    // summary}.
    const JsonValue* tenants = row.Find("tenants");
    if (tenants != nullptr) {
      if (!tenants->is_object() || tenants->object.empty()) {
        return invalid;
      }
      for (const auto& [tenant, entry] : tenants->object) {
        if (tenant.empty() || !entry.is_object()) {
          return invalid;
        }
        if (!IsNumber(entry.Find("ops")) || !IsNumber(entry.Find("ops_per_sec")) ||
            !IsSummaryObject(entry.Find("latency"))) {
          return invalid;
        }
      }
    }
    // timeseries (optional): gauge -> array of [t_ns, value] number pairs.
    const JsonValue* timeseries = row.Find("timeseries");
    if (timeseries != nullptr) {
      if (!timeseries->is_object()) {
        return invalid;
      }
      for (const auto& [gauge, points] : timeseries->object) {
        (void)gauge;
        if (!points.is_array()) {
          return invalid;
        }
        for (const JsonValue& point : points.array) {
          if (!point.is_array() || point.array.size() != 2 ||
              !point.array[0].is_number() || !point.array[1].is_number()) {
            return invalid;
          }
        }
      }
    }
  }
  return common::OkStatus();
}

}  // namespace obs
