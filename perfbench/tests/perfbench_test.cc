// Tests of the benchmark's own machinery: the span self-time arithmetic, the
// TimedFs decorator's forwarding (it must only observe), and fleet_replay's
// trace namespace model.
#include <gtest/gtest.h>

#include <vector>

#include "lib/spans.h"
#include "lib/timed_fs.h"
#include "lib/workload.h"
#include "src/vfs/op_batch.h"
#include "src/wload/harness.h"

namespace perfbench {
namespace {

using common::ExecContext;
using common::kMiB;

Span MakeSpan(int64_t parent, uint64_t start, uint64_t end) {
  Span span;
  span.parent = parent;
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

TEST(SelfTimes, LeafSelfTimeIsItsDuration) {
  const std::vector<uint64_t> self = SelfTimes({MakeSpan(-1, 10, 35)});
  ASSERT_EQ(self.size(), 1u);
  EXPECT_EQ(self[0], 25u);
}

TEST(SelfTimes, SubtractsDisjointChildren) {
  // Parent [0,100) with children [10,30) and [50,60): 70 ns of self time.
  const std::vector<uint64_t> self =
      SelfTimes({MakeSpan(-1, 0, 100), MakeSpan(0, 10, 30), MakeSpan(0, 50, 60)});
  EXPECT_EQ(self[0], 70u);
  EXPECT_EQ(self[1], 20u);
  EXPECT_EQ(self[2], 10u);
}

TEST(SelfTimes, OverlappingChildrenCountOnce) {
  // Children [10,40) and [30,50) cover [10,50): 40 ns, not 50.
  const std::vector<uint64_t> self =
      SelfTimes({MakeSpan(-1, 0, 100), MakeSpan(0, 30, 50), MakeSpan(0, 10, 40)});
  EXPECT_EQ(self[0], 60u);
}

TEST(SelfTimes, ChildrenAreClippedToTheParent) {
  const std::vector<uint64_t> self = SelfTimes({MakeSpan(-1, 20, 80), MakeSpan(0, 0, 30),
                                                MakeSpan(0, 70, 200)});
  EXPECT_EQ(self[0], 40u);  // [20,80) minus [20,30) and [70,80)
}

TEST(SelfTimes, OnlyDirectChildrenAreSubtracted) {
  // A grandchild is covered by its parent, so it must not be subtracted again.
  const std::vector<uint64_t> self =
      SelfTimes({MakeSpan(-1, 0, 100), MakeSpan(0, 10, 60), MakeSpan(1, 20, 40)});
  EXPECT_EQ(self[0], 50u);
  EXPECT_EQ(self[1], 30u);
  EXPECT_EQ(self[2], 20u);
}

TEST(SelfTimes, TotalsByNameSumSelfAndTotal) {
  std::vector<Span> spans = {MakeSpan(-1, 0, 100), MakeSpan(0, 10, 30), MakeSpan(0, 40, 50)};
  spans[0].name = SpanName::kTraceReplay;
  spans[1].name = SpanName::kFsBatch;
  spans[2].name = SpanName::kFsBatch;
  const auto totals = TotalsByName(spans);
  const NameTotals& replay = totals[static_cast<size_t>(SpanName::kTraceReplay)];
  const NameTotals& batch = totals[static_cast<size_t>(SpanName::kFsBatch)];
  EXPECT_EQ(replay.count, 1u);
  EXPECT_EQ(replay.total_ns, 100u);
  EXPECT_EQ(replay.self_ns, 70u);
  EXPECT_EQ(batch.count, 2u);
  EXPECT_EQ(batch.total_ns, 30u);
  EXPECT_EQ(batch.self_ns, 30u);
}

TEST(SpanRecorder, NestsSpansAndTagsRequests) {
  SpanRecorder recorder;
  {
    ScopedSpan outer(&recorder, SpanName::kTraceReplay);
    recorder.NextRequest();
    ScopedSpan inner(&recorder, SpanName::kFsBatch);
  }
  ScopedSpan after(&recorder, SpanName::kFsCall);
  const std::vector<Span>& spans = recorder.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, -1);
  EXPECT_EQ(spans[0].request, 0u);
  EXPECT_EQ(spans[1].request, 1u);
  EXPECT_LE(spans[1].start_ns, spans[1].end_ns);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
}

TEST(SpanRecorder, NullRecorderRecordsNothing) {
  ScopedSpan span(nullptr, SpanName::kFsCall);  // must not crash
}

wload::Bed FreshBed() {
  wload::BedSpec spec;
  spec.fs_name = "winefs";
  spec.device_bytes = 64 * kMiB;
  auto bed = wload::MakeBed(spec);
  EXPECT_TRUE(bed.ok());
  return std::move(bed.value());
}

// The same scalar calls through the decorator and straight to a twin
// filesystem give the same results, clock and counters.
TEST(TimedFs, ScalarCallsForwardUnchanged) {
  wload::Bed direct = FreshBed();
  wload::Bed wrapped = FreshBed();
  TimedFs timed(wrapped.fs.get());
  SpanRecorder recorder;
  timed.set_recorder(&recorder);
  EXPECT_EQ(timed.Name(), direct.fs->Name());
  EXPECT_EQ(timed.guarantee_mode(), direct.fs->guarantee_mode());
  EXPECT_EQ(timed.parallel_policy(), direct.fs->parallel_policy());

  auto run = [](vfs::FileSystem& fs, ExecContext& ctx) {
    const std::vector<uint8_t> data(5000, 0x3c);
    std::vector<uint8_t> back(5000, 0);
    EXPECT_TRUE(fs.Mkdir(ctx, "/d").ok());
    auto fd = fs.Open(ctx, "/d/f", vfs::OpenFlags::Create());
    EXPECT_TRUE(fd.ok());
    EXPECT_EQ(fs.Pwrite(ctx, *fd, data.data(), data.size(), 0).bytes(), data.size());
    EXPECT_EQ(fs.Append(ctx, *fd, data.data(), 100).bytes(), data.size());
    EXPECT_TRUE(fs.Fsync(ctx, *fd).ok());
    EXPECT_EQ(fs.Pread(ctx, *fd, back.data(), back.size(), 0).bytes(), back.size());
    EXPECT_EQ(back, data);
    EXPECT_EQ(*fs.SizeOf(ctx, *fd), 5100u);
    EXPECT_TRUE(fs.Ftruncate(ctx, *fd, 4096).ok());
    EXPECT_TRUE(fs.Fallocate(ctx, *fd, 0, 8192).ok());
    EXPECT_TRUE(fs.InodeOf(ctx, *fd).ok());
    EXPECT_TRUE(fs.Close(ctx, *fd).ok());
    EXPECT_TRUE(fs.Rename(ctx, "/d/f", "/d/g").ok());
    EXPECT_EQ(fs.Stat(ctx, "/d/g")->size, 8192u);
    EXPECT_EQ(fs.Stat(ctx, "/d/f").status().code(), common::ErrorCode::kNotFound);
    EXPECT_EQ(fs.ReadDir(ctx, "/d")->size(), 1u);
    (void)fs.SetXattr(ctx, "/d/g", "user.k", "v");
    (void)fs.GetXattr(ctx, "/d/g", "user.k");
    EXPECT_TRUE(fs.StatFs(ctx).ok());
    EXPECT_TRUE(fs.Unlink(ctx, "/d/g").ok());
    EXPECT_TRUE(fs.Rmdir(ctx, "/d").ok());
    EXPECT_TRUE(fs.Unmount(ctx).ok());
    EXPECT_TRUE(fs.Mount(ctx).ok());
  };
  ExecContext direct_ctx;
  ExecContext wrapped_ctx;
  run(*direct.fs, direct_ctx);
  run(timed, wrapped_ctx);
  EXPECT_EQ(direct_ctx.clock.NowNs(), wrapped_ctx.clock.NowNs());
  for (const common::CounterField& field : common::kCounterFields) {
    EXPECT_EQ(direct_ctx.counters.*field.member, wrapped_ctx.counters.*field.member)
        << field.name;
  }
  // One fs.call span per forwarded call, none left open.
  EXPECT_GE(recorder.spans().size(), 20u);
  for (const Span& span : recorder.spans()) {
    EXPECT_EQ(span.name, SpanName::kFsCall);
    EXPECT_EQ(span.parent, -1);
  }
}

// ExecuteBatch forwards to the wrapped filesystem's native engine and logs
// one sample per batch, with the batch's modeled duration.
TEST(TimedFs, BatchForwardsAndLogsOneSamplePerBatch) {
  wload::Bed direct = FreshBed();
  wload::Bed wrapped = FreshBed();
  TimedFs timed(wrapped.fs.get());
  SpanRecorder recorder;
  timed.set_recorder(&recorder);

  vfs::OpBatch batch;
  const size_t open = batch.Open("/f", vfs::OpenFlags::Create());
  batch.Append(vfs::FdRef::From(open), "payload", 7);
  batch.Close(vfs::FdRef::From(open));
  batch.Stat("/f");
  batch.Stat("/f");
  batch.Stat("/missing");
  std::vector<vfs::OpResult> direct_results;
  std::vector<vfs::OpResult> wrapped_results;
  ExecContext direct_ctx;
  ExecContext wrapped_ctx;
  direct.fs->ExecuteBatch(direct_ctx, batch, direct_results);
  const uint64_t before = wrapped_ctx.clock.NowNs();
  timed.ExecuteBatch(wrapped_ctx, batch, wrapped_results);

  ASSERT_EQ(direct_results.size(), wrapped_results.size());
  for (size_t i = 0; i < direct_results.size(); i++) {
    EXPECT_EQ(direct_results[i].status, wrapped_results[i].status) << i;
    EXPECT_EQ(direct_results[i].value, wrapped_results[i].value) << i;
  }
  EXPECT_EQ(wrapped_results[4].stat.size, 7u);
  EXPECT_EQ(direct_ctx.clock.NowNs(), wrapped_ctx.clock.NowNs());
  ASSERT_EQ(timed.batches().size(), 1u);
  EXPECT_EQ(timed.batches()[0].ops, batch.size());
  EXPECT_EQ(timed.batches()[0].sim_ns, wrapped_ctx.clock.NowNs() - before);
  EXPECT_EQ(timed.stats().batch_ops, batch.size());
  EXPECT_EQ(timed.stats().batch_reused_paths, 2u);  // the two later stats of /f
  ASSERT_EQ(recorder.spans().size(), 1u);
  EXPECT_EQ(recorder.spans()[0].name, SpanName::kFsBatch);
  EXPECT_EQ(recorder.spans()[0].request, 1u);
}

TEST(TimedFs, FaultsForwardAndAreCountedBySize) {
  wload::Bed bed = FreshBed();
  TimedFs timed(bed.fs.get());
  SpanRecorder recorder;
  timed.set_recorder(&recorder);
  ExecContext ctx;
  auto fd = timed.Open(ctx, "/m", vfs::OpenFlags::Create());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(timed.Fallocate(ctx, *fd, 0, 4 * kMiB).ok());
  auto ino = timed.InodeOf(ctx, *fd);
  ASSERT_TRUE(ino.ok());
  auto map = bed.engine->Mmap(&timed, *ino, 4 * kMiB, /*writable=*/true);
  const std::vector<uint8_t> data(4 * kMiB, 0x11);
  ASSERT_TRUE(map->Write(ctx, 0, data.data(), data.size()).ok());
  EXPECT_EQ(timed.stats().faults_2m, 2u);  // fresh WineFS: two aligned 2 MiB chunks
  EXPECT_EQ(timed.stats().faults_4k, 0u);
  size_t fault_spans = 0;
  for (const Span& span : recorder.spans()) {
    fault_spans += span.name == SpanName::kFsFault ? 1 : 0;
  }
  EXPECT_EQ(fault_spans, 2u);
}

TEST(TraceModel, PredictsNamespaceAndSlotErrors) {
  trace::Trace tr;
  const uint32_t dir = tr.AddPath("/t0");
  const uint32_t file = tr.AddPath("/t0/a");
  const uint32_t other = tr.AddPath("/t0/b");
  auto rec = [&](trace::TraceOp op, uint32_t path, int32_t slot = trace::kNoSlot) {
    trace::TraceRecord r;
    r.op = op;
    r.path_id = path;
    r.fd_slot = slot;
    tr.records.push_back(r);
    return &tr.records.back();
  };
  rec(trace::TraceOp::kStat, file);                     // ENOENT
  rec(trace::TraceOp::kMkdir, dir);                     // ok
  rec(trace::TraceOp::kOpen, file, 0)->open_flags = vfs::OpenFlags::kCreate;  // ok
  rec(trace::TraceOp::kAppend, trace::kNoPath, 0);      // ok
  rec(trace::TraceOp::kClose, trace::kNoPath, 0);       // ok
  rec(trace::TraceOp::kFsync, trace::kNoPath, 0);       // EBADF: slot closed
  rec(trace::TraceOp::kOpen, other, 1);                 // ENOENT: no create flag
  rec(trace::TraceOp::kPread, trace::kNoPath, 1);       // EBADF: open failed
  rec(trace::TraceOp::kRmdir, dir);                     // ENOTEMPTY
  rec(trace::TraceOp::kUnlink, file);                   // ok
  rec(trace::TraceOp::kRmdir, dir);                     // ok
  const std::vector<uint64_t> errors = ExpectedTraceErrors(tr);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0], 5u);
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(Percentile({}, 50), 0u);
  EXPECT_EQ(Percentile({5, 1, 3, 2, 4}, 50), 3u);
  std::vector<uint64_t> hundred;
  for (uint64_t i = 1; i <= 100; i++) {
    hundred.push_back(i);
  }
  EXPECT_EQ(Percentile(hundred, 99), 99u);
  EXPECT_EQ(Percentile(hundred, 100), 100u);
}

}  // namespace
}  // namespace perfbench
