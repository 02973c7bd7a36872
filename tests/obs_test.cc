// Tests for the observability layer (src/obs): the profiler's zone ring and
// op scopes, JSON writer/parser, the bench-report schema validator, the
// Chrome-trace export, and the counter-accounting invariants the
// registered-counter table makes checkable across every filesystem.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/exec_context.h"
#include "src/common/prof_zone.h"
#include "src/fs/registry.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/gauges.h"
#include "src/obs/json.h"
#include "src/obs/op_scope.h"
#include "src/obs/profiler.h"
#include "src/obs/report.h"
#include "src/pmem/device.h"
#include "src/vfs/op_batch.h"

namespace {

using common::ExecContext;
using common::kMiB;

using common::ProfLayer;

// Runs one zone of `layer` spanning [enter_ns, exit_ns) on `ctx`'s clock.
void RunZone(ExecContext& ctx, ProfLayer layer, uint64_t enter_ns, uint64_t exit_ns) {
  ctx.clock.SetNs(enter_ns);
  common::ProfileZone zone(ctx, layer);
  ctx.clock.SetNs(exit_ns);
}

// Modeled ns of one folded stack (0 when absent).
uint64_t FoldedNs(const obs::Profiler& profiler, const std::string& stack) {
  for (const obs::Profiler::FoldedFrame& frame : profiler.FoldedStacks()) {
    if (frame.stack == stack) {
      return frame.ns;
    }
  }
  return 0;
}

// ---- profiler zone ring -----------------------------------------------------

TEST(ProfilerZoneRing, RecordsClosedZonesOfSampledOps) {
  obs::Profiler profiler(/*sample_shift=*/0);
  ExecContext cpu0(0);
  ExecContext cpu1(1);
  cpu0.AttachProfiler(&profiler);
  cpu1.AttachProfiler(&profiler);
  RunZone(cpu0, ProfLayer::kAllocator, 100, 150);
  RunZone(cpu1, ProfLayer::kAllocator, 200, 230);
  cpu0.clock.SetNs(280);
  {
    // Nested zones close innermost first.
    common::ProfileZone outer(cpu0, ProfLayer::kFsCore);
    RunZone(cpu0, ProfLayer::kDevice, 300, 400);
    cpu0.clock.SetNs(420);
  }

  const std::vector<obs::Profiler::ZoneEvent> events = profiler.ZoneEvents();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].cpu, 0u);
  EXPECT_EQ(events[0].layer, ProfLayer::kAllocator);
  EXPECT_EQ(events[0].enter_ns, 100u);
  EXPECT_EQ(events[0].exit_ns, 150u);
  EXPECT_EQ(events[1].cpu, 1u);
  EXPECT_EQ(events[2].layer, ProfLayer::kDevice);
  EXPECT_EQ(events[2].exit_ns - events[2].enter_ns, 100u);
  EXPECT_EQ(events[3].layer, ProfLayer::kFsCore);
  EXPECT_EQ(events[3].enter_ns, 280u);
  EXPECT_EQ(events[3].exit_ns, 420u);
  // The folded stacks aggregate the same zones by exclusive time.
  EXPECT_EQ(FoldedNs(profiler, "allocator"), 80u);
  EXPECT_EQ(FoldedNs(profiler, "fscore;device"), 100u);
  EXPECT_EQ(FoldedNs(profiler, "fscore"), 40u);
}

TEST(ProfilerZoneRing, RingWrapKeepsNewestZones) {
  constexpr size_t kCapacity = obs::EventRing<obs::Profiler::ZoneEvent>::kEventCapacity;
  obs::Profiler profiler(/*sample_shift=*/0);
  ExecContext ctx;
  ctx.AttachProfiler(&profiler);
  for (uint64_t i = 0; i < kCapacity + 10; i++) {
    RunZone(ctx, ProfLayer::kFsCore, i * 10, i * 10 + 5);
  }
  // The ring only retains the newest kCapacity zones...
  const std::vector<obs::Profiler::ZoneEvent> events = profiler.ZoneEvents();
  ASSERT_EQ(events.size(), kCapacity);
  EXPECT_EQ(events.front().enter_ns, 100u);  // oldest retained
  EXPECT_EQ(events.back().enter_ns, (kCapacity + 9) * 10);
  // ...but the folded stacks cover every zone ever closed.
  EXPECT_EQ(FoldedNs(profiler, "fscore"), (kCapacity + 10) * 5);
}

TEST(ProfilerZoneRing, ResetAfterWrapRestartsRing) {
  constexpr size_t kCapacity = obs::EventRing<obs::Profiler::ZoneEvent>::kEventCapacity;
  obs::Profiler profiler(/*sample_shift=*/0);
  ExecContext ctx;
  ctx.AttachProfiler(&profiler);
  for (uint64_t i = 0; i < kCapacity + 1; i++) {
    RunZone(ctx, ProfLayer::kDevice, i * 10, i * 10 + 3);
  }
  profiler.ResetSamples();
  // Both the ring and the folded stacks start over...
  EXPECT_TRUE(profiler.ZoneEvents().empty());
  EXPECT_TRUE(profiler.FoldedStacks().empty());
  // ...and the wrap cursor is rewound: new zones land at the front, in order.
  RunZone(ctx, ProfLayer::kAllocator, 500'000, 500'010);
  RunZone(ctx, ProfLayer::kAllocator, 600'000, 600'020);
  const std::vector<obs::Profiler::ZoneEvent> events = profiler.ZoneEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].enter_ns, 500'000u);
  EXPECT_EQ(events[1].enter_ns, 600'000u);
  EXPECT_EQ(FoldedNs(profiler, "allocator"), 30u);
}

TEST(ProfileZoneTest, NoOpWithoutProfilerRecordsWithProfiler) {
  ExecContext ctx;
  RunZone(ctx, ProfLayer::kAllocator, 0, 500);  // no profiler: nothing opens
  EXPECT_EQ(ctx.zones.layer_ns[static_cast<size_t>(ProfLayer::kAllocator)], 0u);

  obs::Profiler profiler(/*sample_shift=*/0);
  ctx.AttachProfiler(&profiler);
  RunZone(ctx, ProfLayer::kAllocator, 1000, 1250);
  ctx.AttachProfiler(nullptr);
  const std::vector<obs::Profiler::ZoneEvent> events = profiler.ZoneEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].layer, ProfLayer::kAllocator);
  EXPECT_EQ(events[0].exit_ns - events[0].enter_ns, 250u);
}

TEST(ProfLayerTest, EveryLayerHasAName) {
  for (size_t l = 0; l < common::kNumProfLayers; l++) {
    const std::string_view name = common::ProfLayerName(static_cast<ProfLayer>(l));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?");
  }
}

// ---- op scopes --------------------------------------------------------------

TEST(OpScopeTest, FeedsProfilerThroughContext) {
  ExecContext ctx;
  obs::Profiler profiler(/*sample_shift=*/0);
  ctx.AttachProfiler(&profiler);
  {
    obs::OpScope op(ctx, "open");
    ctx.clock.Advance(1234);
  }
  ctx.AttachProfiler(nullptr);
  const std::vector<obs::Profiler::OpAttribution> attr = profiler.Attribution();
  ASSERT_EQ(attr.size(), 1u);
  EXPECT_EQ(attr[0].op, "open");
  EXPECT_EQ(attr[0].ops_sampled, 1u);
  // The extremes are sample-exact; the root zone is fscore by default.
  EXPECT_EQ(attr[0].total.MaxNanos(), 1234u);
  EXPECT_EQ(attr[0].layers[static_cast<size_t>(ProfLayer::kFsCore)].MaxNanos(), 1234u);
}

// Each syscall is attributed under its own op name, on the scalar path and in
// the native batch engine alike: a readdir is a "readdir" row, never a "stat".
TEST(OpScopeTest, ReadDirAndStatRecordUnderTheirOwnNames) {
  pmem::PmemDevice device(64 * kMiB);
  auto fs = fsreg::Create("winefs", &device);
  ExecContext ctx;
  ASSERT_TRUE(fs->Mkfs(ctx).ok());
  ASSERT_TRUE(fs->Mkdir(ctx, "/d").ok());
  obs::Profiler profiler(/*sample_shift=*/0);
  ctx.AttachProfiler(&profiler);
  ASSERT_TRUE(fs->ReadDir(ctx, "/d").ok());
  ASSERT_TRUE(fs->ReadDir(ctx, "/").ok());
  ASSERT_TRUE(fs->Stat(ctx, "/d").ok());
  vfs::OpBatch batch;
  batch.ReadDir("/d");
  batch.Stat("/d");
  std::vector<vfs::OpResult> results;
  fs->ExecuteBatch(ctx, batch, results);
  ASSERT_TRUE(results[0].ok() && results[1].ok());
  ctx.AttachProfiler(nullptr);
  std::map<std::string, uint64_t> sampled;
  for (const obs::Profiler::OpAttribution& op : profiler.Attribution()) {
    sampled[op.op] = op.ops_sampled;
  }
  EXPECT_EQ(sampled["readdir"], 3u);
  EXPECT_EQ(sampled["stat"], 2u);
}

// ---- JSON writer/parser -----------------------------------------------------

TEST(JsonTest, WriterParserRoundTrip) {
  obs::JsonWriter w;
  w.BeginObject()
      .Key("name")
      .String("fig\"02\"\n")
      .Key("count")
      .Number(uint64_t{18446744073709551615ull})
      .Key("ratio")
      .Number(2.5)
      .Key("bad")
      .Number(std::nan(""))
      .Key("flag")
      .Bool(true)
      .Key("list")
      .BeginArray()
      .Number(1)
      .Number(2)
      .EndArray()
      .EndObject();

  auto parsed = obs::JsonValue::Parse(w.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->Find("name")->string_value, "fig\"02\"\n");
  // 2^64-1 exceeds double precision; the writer prints it exactly, and the
  // parser reads it to the nearest representable double.
  EXPECT_NEAR(parsed->Find("count")->number_value, 1.8446744073709552e19, 1e5);
  EXPECT_EQ(parsed->Find("ratio")->number_value, 2.5);
  EXPECT_EQ(parsed->Find("bad")->type, obs::JsonValue::Type::kNull);
  EXPECT_TRUE(parsed->Find("flag")->bool_value);
  ASSERT_EQ(parsed->Find("list")->array.size(), 2u);
  EXPECT_EQ(parsed->Find("list")->array[1].number_value, 2.0);
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  EXPECT_FALSE(obs::JsonValue::Parse("{\"a\": 1,}").ok());
  EXPECT_FALSE(obs::JsonValue::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(obs::JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(obs::JsonValue::Parse("{} trailing").ok());
  EXPECT_FALSE(obs::JsonValue::Parse("").ok());
}

// ---- bench report + schema validator ----------------------------------------

obs::BenchReport MakeValidReport() {
  obs::BenchReport report("unit_test");
  report.AddConfig("device_mib", 64.0);
  report.AddMetric("winefs", "throughput_mbps", 123.4);
  common::PerfCounters counters;
  counters.alloc_requests = 3;
  report.SetCounters("winefs", counters);
  return report;
}

TEST(BenchReportTest, EmittedJsonValidates) {
  const obs::BenchReport report = MakeValidReport();
  const std::string json = report.ToJson();
  EXPECT_TRUE(obs::ValidateBenchReportJson(json).ok())
      << obs::ValidateBenchReportJson(json).message();

  auto parsed = obs::JsonValue::Parse(json);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("bench")->string_value, "unit_test");
  const obs::JsonValue& row = parsed->Find("results")->array[0];
  EXPECT_EQ(row.Find("fs")->string_value, "winefs");
  EXPECT_EQ(row.Find("counters")->Find("alloc_requests")->number_value, 3.0);
}

TEST(BenchReportTest, ValidatorRejectsBrokenReports) {
  EXPECT_FALSE(obs::ValidateBenchReportJson("not json").ok());
  EXPECT_FALSE(obs::ValidateBenchReportJson("[]").ok());
  // Stale pre-v2 schema version.
  EXPECT_FALSE(obs::ValidateBenchReportJson(
                   R"({"schema_version":1,"bench":"x","config":{},"results":[)"
                   R"({"fs":"a","metrics":{},"counters":{}}]})")
                   .ok());
  // Empty results array.
  EXPECT_FALSE(obs::ValidateBenchReportJson(
                   R"({"schema_version":2,"bench":"x","config":{},"results":[]})")
                   .ok());
  // Counters object missing registered fields.
  EXPECT_FALSE(obs::ValidateBenchReportJson(
                   R"({"schema_version":2,"bench":"x","config":{},"results":[)"
                   R"({"fs":"a","metrics":{},"counters":{}}]})")
                   .ok());
}

TEST(BenchReportTest, LatencySummaryCarriesTailAndExtremes) {
  common::LatencyHistogram hist;
  hist.Record(100);
  hist.Record(200);
  hist.Record(5000);
  const obs::LatencySummary s = obs::SummarizeHistogram("pwrite", hist);
  EXPECT_EQ(s.count, 3u);
  // The extremes are tracked sample-exactly, outside the log buckets.
  EXPECT_EQ(s.min_ns, 100u);
  EXPECT_EQ(s.max_ns, 5000u);
  EXPECT_GE(s.p999_ns, s.p99_ns);
  EXPECT_GE(s.p99_ns, s.p50_ns);
  EXPECT_LE(s.min_ns, s.p50_ns);
  // p999 of 3 samples is the top sample's bucket; buckets are ~6% wide.
  EXPECT_GE(s.p999_ns, 5000u);
  EXPECT_LE(s.p999_ns, 5000u * 110 / 100);

  const obs::LatencySummary empty = obs::SummarizeHistogram("noop", common::LatencyHistogram{});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.min_ns, 0u);
  EXPECT_EQ(empty.max_ns, 0u);
}

TEST(BenchReportTest, TimeSeriesSectionRoundTripsAndValidates) {
  obs::BenchReport report = MakeValidReport();
  obs::TimeSeries series;
  series.Add(1000, "free_blocks", 42.0);
  series.Add(2000, "free_blocks", 40.0);
  series.Add(1000, "aligned_free_fraction", 0.97);
  report.AddTimeSeries("winefs", series);
  // A second merge for the same fs extends existing gauges instead of
  // duplicating JSON keys.
  obs::TimeSeries more;
  more.Add(3000, "free_blocks", 38.0);
  report.AddTimeSeries("winefs", more);

  const std::string json = report.ToJson();
  ASSERT_TRUE(obs::ValidateBenchReportJson(json).ok())
      << obs::ValidateBenchReportJson(json).message();
  auto parsed = obs::JsonValue::Parse(json);
  ASSERT_TRUE(parsed.ok());
  const obs::JsonValue& row = parsed->Find("results")->array[0];
  const obs::JsonValue* ts = row.Find("timeseries");
  ASSERT_NE(ts, nullptr);
  const obs::JsonValue* free_blocks = ts->Find("free_blocks");
  ASSERT_NE(free_blocks, nullptr);
  ASSERT_EQ(free_blocks->array.size(), 3u);
  EXPECT_EQ(free_blocks->array[0].array[0].number_value, 1000.0);
  EXPECT_EQ(free_blocks->array[0].array[1].number_value, 42.0);
  EXPECT_EQ(free_blocks->array[2].array[1].number_value, 38.0);
  ASSERT_NE(ts->Find("aligned_free_fraction"), nullptr);
}

TEST(BenchReportTest, ValidatorRejectsMalformedTimeSeriesPoints) {
  const std::string json = MakeValidReport().ToJson();
  ASSERT_TRUE(obs::ValidateBenchReportJson(json).ok());
  const size_t pos = json.find("\"counters\"");
  ASSERT_NE(pos, std::string::npos);
  // A point must be a [t_ns, value] pair of numbers.
  for (const char* bad :
       {R"("timeseries":{"g":[[1000]]},)", R"("timeseries":{"g":[[1000,1,2]]},)",
        R"("timeseries":{"g":[["t",1]]},)", R"("timeseries":{"g":[0]},)",
        R"("timeseries":{"g":0},)", R"("timeseries":[],)"}) {
    std::string broken = json;
    broken.insert(pos, bad);
    EXPECT_FALSE(obs::ValidateBenchReportJson(broken).ok()) << bad;
  }
  // The well-formed equivalent passes.
  std::string good = json;
  good.insert(pos, R"("timeseries":{"g":[[1000,1],[2000,2]]},)");
  EXPECT_TRUE(obs::ValidateBenchReportJson(good).ok());
}

TEST(BenchReportTest, LatencyAndAttributionSectionsValidate) {
  obs::BenchReport report = MakeValidReport();
  obs::Profiler profiler(/*sample_shift=*/0);
  ExecContext ctx;
  ctx.AttachProfiler(&profiler);
  {
    obs::OpScope op(ctx, "fsync");
    RunZone(ctx, ProfLayer::kJournal, 0, 42);
  }
  ctx.AttachProfiler(nullptr);
  report.AddAttribution("winefs", profiler);
  common::LatencyHistogram hist;
  hist.Record(100);
  hist.Record(300);
  report.ForFs("winefs").latencies.push_back(obs::SummarizeHistogram("pwrite", hist));

  const std::string json = report.ToJson();
  ASSERT_TRUE(obs::ValidateBenchReportJson(json).ok())
      << obs::ValidateBenchReportJson(json).message();
  auto parsed = obs::JsonValue::Parse(json);
  ASSERT_TRUE(parsed.ok());
  const obs::JsonValue& row = parsed->Find("results")->array[0];
  const obs::JsonValue* fsync = row.Find("attribution")->Find("fsync");
  ASSERT_NE(fsync, nullptr);
  EXPECT_EQ(fsync->Find("ops_sampled")->number_value, 1.0);
  EXPECT_EQ(fsync->Find("layers")->Find("journal")->Find("max")->number_value, 42.0);
  EXPECT_EQ(row.Find("latency_ns")->Find("pwrite")->Find("count")->number_value, 2.0);
}

// ---- gauge time-series sampler ----------------------------------------------

// Deterministic provider: reports how many times it has been polled.
class CountingProvider : public obs::GaugeProvider {
 public:
  void SampleGauges(obs::GaugeSample& out) override {
    polls_++;
    out.Set("polls", static_cast<double>(polls_));
  }
  int polls() const { return polls_; }

 private:
  int polls_ = 0;
};

TEST(TimeSeriesSamplerTest, SamplesOnPeriodCrossingsOnly) {
  ExecContext ctx;
  obs::TimeSeriesSampler sampler(/*period_ns=*/1000);
  CountingProvider provider;
  sampler.AddProvider(&provider);
  ctx.AttachSampler(&sampler);

  sampler.MaybeSample(ctx);  // t=0: baseline sample
  EXPECT_EQ(sampler.samples_taken(), 1u);
  ctx.clock.Advance(400);
  sampler.MaybeSample(ctx);  // t=400: same period, no sample
  EXPECT_EQ(sampler.samples_taken(), 1u);
  ctx.clock.Advance(700);
  sampler.MaybeSample(ctx);  // t=1100: crossed 1000
  sampler.MaybeSample(ctx);  // still t=1100: no double sample
  EXPECT_EQ(sampler.samples_taken(), 2u);
  ctx.clock.Advance(5000);
  sampler.MaybeSample(ctx);  // t=6100: one sample per crossing, not per period
  EXPECT_EQ(sampler.samples_taken(), 3u);
  ctx.AttachSampler(nullptr);

  const auto* points = sampler.series().Points("polls");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->size(), 3u);
  EXPECT_EQ((*points)[0].t_ns, 0u);
  EXPECT_EQ((*points)[1].t_ns, 1100u);
  EXPECT_EQ((*points)[2].t_ns, 6100u);
  EXPECT_EQ((*points)[2].value, 3.0);
  EXPECT_EQ(provider.polls(), 3);
}

TEST(TimeSeriesSamplerTest, AddProviderIsIdempotent) {
  ExecContext ctx;
  obs::TimeSeriesSampler sampler;
  CountingProvider provider;
  // Foreground and background contexts of one bench attach the same bundle;
  // the provider must still be polled exactly once per sample.
  sampler.AddProvider(&provider);
  sampler.AddProvider(&provider);
  sampler.SampleNow(ctx);
  const auto* points = sampler.series().Points("polls");
  ASSERT_NE(points, nullptr);
  EXPECT_EQ(points->size(), 1u);
  EXPECT_EQ(provider.polls(), 1);
}

TEST(TimeSeriesSamplerTest, DecimatesAndDoublesPeriodAtCapacity) {
  ExecContext ctx;
  obs::TimeSeriesSampler sampler(/*period_ns=*/10);
  CountingProvider provider;
  sampler.AddProvider(&provider);
  EXPECT_EQ(sampler.period_ns(), 10u);
  for (size_t i = 0; i < obs::TimeSeriesSampler::kMaxPointsPerGauge + 100; i++) {
    sampler.MaybeSample(ctx);
    ctx.clock.Advance(10);
  }
  // Memory stays bounded; cadence coarsens instead of dropping the tail.
  EXPECT_LE(sampler.series().MaxPoints(), obs::TimeSeriesSampler::kMaxPointsPerGauge);
  EXPECT_GE(sampler.period_ns(), 20u);
  const auto* points = sampler.series().Points("polls");
  ASSERT_NE(points, nullptr);
  // Decimation keeps full-run coverage: both ends of the run survive.
  EXPECT_EQ(points->front().t_ns, 0u);
  EXPECT_GT(points->back().t_ns, obs::TimeSeriesSampler::kMaxPointsPerGauge * 10 / 2);
}

TEST(TimeSeriesSamplerTest, ContextResetClearsSamplesKeepsProviders) {
  ExecContext ctx;
  obs::TimeSeriesSampler sampler(/*period_ns=*/1000);
  obs::Profiler profiler(/*sample_shift=*/0);
  CountingProvider provider;
  sampler.AddProvider(&provider);
  ctx.AttachSampler(&sampler);
  ctx.AttachProfiler(&profiler);
  sampler.SampleNow(ctx);
  RunZone(ctx, ProfLayer::kAllocator, 0, 10);
  ASSERT_FALSE(sampler.series().empty());
  ASSERT_FALSE(profiler.ZoneEvents().empty());

  // Reset between per-fs bench rows: every attached sink restarts so samples
  // never bleed from one filesystem into the next row.
  ctx.Reset();
  EXPECT_TRUE(sampler.series().empty());
  EXPECT_EQ(sampler.samples_taken(), 0u);
  EXPECT_TRUE(profiler.ZoneEvents().empty());

  // Providers stay registered: the next sample polls them again.
  sampler.SampleNow(ctx);
  EXPECT_EQ(provider.polls(), 2);
  ctx.AttachSampler(nullptr);
  ctx.AttachProfiler(nullptr);
}

// ---- chrome trace export ----------------------------------------------------

TEST(ChromeTraceTest, EmitsPerCpuTracksAndCategories) {
  obs::Profiler profiler(/*sample_shift=*/0);
  ExecContext cpu0(0);
  ExecContext cpu1(1);
  cpu0.AttachProfiler(&profiler);
  cpu1.AttachProfiler(&profiler);
  // Two layers across two simulated CPUs; ts/dur are microseconds in the
  // export (1500ns -> 1.5us).
  RunZone(cpu0, ProfLayer::kAllocator, 1000, 2500);
  RunZone(cpu1, ProfLayer::kJournal, 3000, 6000);
  const std::string json = obs::ChromeTraceJson({obs::NamedProfiler{"winefs", &profiler}});

  auto parsed = obs::JsonValue::Parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->Find("displayTimeUnit")->string_value, "ms");
  const obs::JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);

  std::vector<const obs::JsonValue*> complete;
  size_t metadata = 0;
  for (const obs::JsonValue& ev : events->array) {
    const std::string& ph = ev.Find("ph")->string_value;
    if (ph == "M") {
      metadata++;
    } else if (ph == "X") {
      complete.push_back(&ev);
    }
  }
  // process_name for the fs + thread_name per CPU track.
  EXPECT_GE(metadata, 3u);
  ASSERT_EQ(complete.size(), 2u);
  EXPECT_EQ(complete[0]->Find("cat")->string_value, "allocator");
  EXPECT_EQ(complete[0]->Find("ts")->number_value, 1.0);
  EXPECT_EQ(complete[0]->Find("dur")->number_value, 1.5);
  EXPECT_EQ(complete[0]->Find("tid")->number_value, 0.0);
  EXPECT_EQ(complete[1]->Find("cat")->string_value, "journal");
  EXPECT_EQ(complete[1]->Find("tid")->number_value, 1.0);
  // Both zones belong to the same filesystem "process".
  EXPECT_EQ(complete[0]->Find("pid")->number_value, complete[1]->Find("pid")->number_value);
}

TEST(ChromeTraceTest, SeparatesFilesystemsIntoProcesses) {
  obs::Profiler a(/*sample_shift=*/0);
  obs::Profiler b(/*sample_shift=*/0);
  ExecContext ctx_a;
  ExecContext ctx_b;
  ctx_a.AttachProfiler(&a);
  ctx_b.AttachProfiler(&b);
  RunZone(ctx_a, ProfLayer::kDevice, 0, 100);
  RunZone(ctx_b, ProfLayer::kDevice, 0, 100);
  const std::string json = obs::ChromeTraceJson(
      {obs::NamedProfiler{"ext4-dax", &a}, obs::NamedProfiler{"winefs", &b}});
  auto parsed = obs::JsonValue::Parse(json);
  ASSERT_TRUE(parsed.ok());
  std::vector<double> pids;
  for (const obs::JsonValue& ev : parsed->Find("traceEvents")->array) {
    if (ev.Find("ph")->string_value == "X") {
      pids.push_back(ev.Find("pid")->number_value);
    }
  }
  ASSERT_EQ(pids.size(), 2u);
  EXPECT_NE(pids[0], pids[1]);
}

// ---- counter-accounting invariants across all filesystems -------------------

// Runs a small metadata + data workload and adds its counters to `out`.
void RunAccountingWorkload(const std::string& fs_name, common::PerfCounters& out) {
  pmem::PmemDevice dev(64 * kMiB);
  auto fs = fsreg::Create(fs_name, &dev, /*num_cpus=*/2);
  ASSERT_NE(fs, nullptr) << fs_name;
  ExecContext ctx;
  ASSERT_TRUE(fs->Mkfs(ctx).ok()) << fs_name;

  std::vector<uint8_t> buf(4096, 0x5c);
  for (int i = 0; i < 8; i++) {
    auto fd = fs->Open(ctx, "/f" + std::to_string(i), vfs::OpenFlags::Create());
    ASSERT_TRUE(fd.ok()) << fs_name;
    for (int b = 0; b < 8; b++) {
      ASSERT_TRUE(fs->Pwrite(ctx, *fd, buf.data(), buf.size(), b * 4096).ok()) << fs_name;
    }
    // Partially overwrite an existing block: strict-mode filesystems must
    // make this atomic (journal or CoW with old-byte copy-in), which is what
    // the invariants below check.
    ASSERT_TRUE(fs->Pwrite(ctx, *fd, buf.data(), 1000, 100).ok()) << fs_name;
    ASSERT_TRUE(fs->Fsync(ctx, *fd).ok()) << fs_name;
    ASSERT_TRUE(fs->Close(ctx, *fd).ok()) << fs_name;
  }
  out.Add(ctx.counters);
}

TEST(CounterAccountingTest, InvariantsHoldAcrossAllFilesystems) {
  std::map<std::string, common::PerfCounters> counters;
  std::vector<std::string> lineup = fsreg::RelaxedLineup();
  for (const std::string& fs_name : fsreg::StrictLineup()) {
    lineup.push_back(fs_name);
  }
  for (const std::string& fs_name : lineup) {
    SCOPED_TRACE(fs_name);
    common::PerfCounters& c = counters[fs_name];
    RunAccountingWorkload(fs_name, c);
    // Aligned allocations are a subset of all allocation requests.
    EXPECT_LE(c.aligned_allocs, c.alloc_requests);
    EXPECT_GT(c.alloc_requests, 0u);
  }

  // Strict WineFS journals metadata (and small data overwrites): the undo
  // journal must have seen bytes.
  EXPECT_GT(counters["winefs"].journal_bytes, 0u);
  // Strict NOVA is log-structured/CoW for data: overwrites relocate bytes.
  EXPECT_GT(counters["nova"].cow_bytes, 0u);
}

}  // namespace
