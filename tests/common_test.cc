// Unit tests for src/common: Status/Result, RNG/Zipf, histogram, sim clocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/sim_clock.h"
#include "src/common/sim_mutex.h"
#include "src/common/status.h"
#include "src/common/units.h"

namespace {

using common::ErrorCode;
using common::LatencyHistogram;
using common::Result;
using common::Rng;
using common::Status;
using common::ZipfGenerator;

TEST(StatusTest, OkIsOk) {
  EXPECT_TRUE(common::OkStatus().ok());
  EXPECT_EQ(common::OkStatus().code(), ErrorCode::kOk);
}

TEST(StatusTest, ErrorCarriesCodeAndErrno) {
  const Status s(ErrorCode::kNoSpace);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNoSpace);
  EXPECT_EQ(s.errno_value(), ENOSPC);
  EXPECT_FALSE(s.message().empty());
}

TEST(StatusTest, ErrnoMappingMatchesPosix) {
  EXPECT_EQ(common::ErrnoOf(ErrorCode::kOk), 0);
  EXPECT_EQ(common::ErrnoOf(ErrorCode::kNotFound), ENOENT);
  EXPECT_EQ(common::ErrnoOf(ErrorCode::kExists), EEXIST);
  EXPECT_EQ(common::ErrnoOf(ErrorCode::kInvalidArgument), EINVAL);
  EXPECT_EQ(common::ErrnoOf(ErrorCode::kBadFd), EBADF);
  EXPECT_EQ(common::ErrnoOf(ErrorCode::kNotDir), ENOTDIR);
  EXPECT_EQ(common::ErrnoOf(ErrorCode::kIsDir), EISDIR);
  EXPECT_EQ(common::ErrnoOf(ErrorCode::kNotEmpty), ENOTEMPTY);
  // Simulator-internal failures surface to applications as I/O errors.
  EXPECT_EQ(common::ErrnoOf(ErrorCode::kCorrupt), EIO);
  EXPECT_EQ(common::ErrnoOf(ErrorCode::kInternal), EIO);
}

TEST(StatusTest, EveryCodeHasAMessage) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); c++) {
    const Status s(static_cast<ErrorCode>(c));
    EXPECT_FALSE(s.message().empty());
    EXPECT_NE(s.message(), "unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(ErrorCode::kNotFound);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
}

Result<int> Doubler(Result<int> in) {
  ASSIGN_OR_RETURN(const int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_EQ(Doubler(ErrorCode::kIoError).status().code(), ErrorCode::kIoError);
}

TEST(UnitsTest, Rounding) {
  EXPECT_EQ(common::RoundUp(1, 512), 512u);
  EXPECT_EQ(common::RoundUp(512, 512), 512u);
  EXPECT_EQ(common::RoundDown(1023, 512), 512u);
  EXPECT_TRUE(common::IsAligned(2 * common::kMiB, common::kHugepageSize));
  EXPECT_EQ(common::BytesToBlocks(1), 1u);
  EXPECT_EQ(common::BytesToBlocks(4096), 1u);
  EXPECT_EQ(common::BytesToBlocks(4097), 2u);
  EXPECT_EQ(common::kBlocksPerHugepage, 512u);
}

TEST(RngTest, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, BoundsRespected) {
  Rng rng(1);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(rng.NextBelow(17), 17u);
    const uint64_t v = rng.NextInRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ZipfTest, SkewsTowardHotKeys) {
  ZipfGenerator zipf(10000, 0.99, 3);
  std::vector<uint64_t> counts(10000, 0);
  for (int i = 0; i < 100000; i++) {
    const uint64_t key = zipf.Next();
    ASSERT_LT(key, 10000u);
    counts[key]++;
  }
  // Key 0 must be much hotter than the median key.
  EXPECT_GT(counts[0], 5000u);
  EXPECT_LT(counts[5000], counts[0] / 10);
}

TEST(ZipfTest, ScrambledStaysInRange) {
  ZipfGenerator zipf(1000, 0.9, 4);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(zipf.ScrambledNext(), 1000u);
  }
}

TEST(HistogramTest, PercentilesBracketSamples) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 1000; v++) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(static_cast<double>(h.MedianNanos()), 500.0, 50.0);
  EXPECT_NEAR(static_cast<double>(h.Percentile(99)), 990.0, 100.0);
  EXPECT_NEAR(h.MeanNanos(), 500.5, 1.0);
}

TEST(HistogramTest, MergeCombinesCounts) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.Record(10);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_GT(a.Percentile(100), 900u);
}

TEST(HistogramTest, CdfRowsMonotonic) {
  LatencyHistogram h;
  for (int i = 0; i < 100; i++) {
    h.Record(i * 7 + 1);
  }
  const std::string rows = h.CdfRows();
  EXPECT_FALSE(rows.empty());
  EXPECT_NE(rows.find("1\n"), std::string::npos);  // ends at fraction 1
}

TEST(SimClockTest, AdvanceAndAdvanceTo) {
  common::SimClock clock;
  clock.Advance(100);
  EXPECT_EQ(clock.NowNs(), 100u);
  clock.AdvanceTo(50);  // no going back
  EXPECT_EQ(clock.NowNs(), 100u);
  clock.AdvanceTo(200);
  EXPECT_EQ(clock.NowNs(), 200u);
}

TEST(ResourceClockTest, SerializesAcquirers) {
  common::ResourceClock resource("journal");
  common::SimClock a;
  common::SimClock b;
  resource.Acquire(a, 100);  // a: 0 -> 100, resource free at 100
  EXPECT_EQ(a.NowNs(), 100u);
  const uint64_t waited = resource.Acquire(b, 50);  // b queues behind a
  EXPECT_EQ(waited, 100u);
  EXPECT_EQ(b.NowNs(), 150u);
}

TEST(SimMutexTest, RequestInsideBusyIntervalWaits) {
  common::SimMutex mutex;
  common::ExecContext a(0);
  common::ExecContext b(1);
  mutex.Lock(a);
  a.clock.Advance(500);  // critical section [0, 500)
  mutex.Unlock(a);
  // b arrives at sim time 100, inside a's hold: must wait until 500.
  b.clock.Advance(100);
  mutex.Lock(b);
  EXPECT_EQ(b.clock.NowNs(), 500u);
  mutex.Unlock(b);
  EXPECT_EQ(mutex.total_wait_ns(), 400u);
}

TEST(SimMutexTest, RequestOutsideBusyIntervalProceeds) {
  common::SimMutex mutex;
  common::ExecContext a(0);
  common::ExecContext b(1);
  a.clock.Advance(1000);
  mutex.Lock(a);
  a.clock.Advance(100);  // busy [1000, 1100)
  mutex.Unlock(a);
  // b at time 200 — the lock was free back then; no delay.
  b.clock.Advance(200);
  mutex.Lock(b);
  EXPECT_EQ(b.clock.NowNs(), 200u);
  mutex.Unlock(b);
}

TEST(SimMutexTest, ChainsThroughBackToBackHolds) {
  common::SimMutex mutex;
  common::ExecContext a(0);
  mutex.Lock(a);
  a.clock.Advance(100);  // [0, 100)
  mutex.Unlock(a);
  common::ExecContext b(1);
  b.clock.AdvanceTo(100);
  mutex.Lock(b);
  b.clock.Advance(100);  // [100, 200)
  mutex.Unlock(b);
  // c arrives at 50: waits through a's hold, lands in b's, exits at 200.
  common::ExecContext c(2);
  c.clock.Advance(50);
  mutex.Lock(c);
  EXPECT_EQ(c.clock.NowNs(), 200u);
  mutex.Unlock(c);
}

// Random lock/unlock times, including zero-length holds (never recorded),
// out-of-order interval ends and many ring wrap-arounds. Each acquire must
// land on the first time at or after its arrival that no interval among the
// last 64 recorded covers — computed here by brute force over the candidate
// points (the arrival and every recorded end).
TEST(SimMutexTest, RandomScheduleMatchesBruteForce) {
  constexpr size_t kRing = 64;
  common::SimMutex mutex;
  common::Rng rng(4242);
  std::vector<std::pair<uint64_t, uint64_t>> recorded;  // [start, end)
  uint64_t max_end = 0;
  uint64_t expected_wait = 0;
  size_t waited = 0;
  size_t past_every_end = 0;
  for (int step = 0; step < 20000; step++) {
    // One arrival in eight lands at or past every recorded end; the rest
    // land up to 3 us before the latest end, often inside a recent hold.
    const uint64_t back = rng.NextBelow(3000);
    const uint64_t arrival = rng.NextBelow(8) == 0 ? max_end + rng.NextBelow(100)
                                                   : (max_end > back ? max_end - back : 0);
    const uint64_t hold = rng.NextBelow(5) == 0 ? 0 : rng.NextBelow(200);

    const size_t first = recorded.size() > kRing ? recorded.size() - kRing : 0;
    const auto covered = [&](uint64_t t) {
      for (size_t i = first; i < recorded.size(); i++) {
        if (recorded[i].first <= t && t < recorded[i].second) {
          return true;
        }
      }
      return false;
    };
    uint64_t expected = covered(arrival) ? UINT64_MAX : arrival;
    for (size_t i = first; i < recorded.size(); i++) {
      const uint64_t end = recorded[i].second;
      if (end >= arrival && end < expected && !covered(end)) {
        expected = end;
      }
    }
    ASSERT_NE(expected, UINT64_MAX) << "step " << step;
    waited += expected > arrival ? 1 : 0;
    past_every_end += arrival >= max_end ? 1 : 0;

    common::ExecContext ctx(static_cast<uint32_t>(step % 8));
    ctx.clock.SetNs(arrival);
    mutex.Lock(ctx);
    ASSERT_EQ(ctx.clock.NowNs(), expected) << "step " << step << " arrival " << arrival;
    ctx.clock.Advance(hold);
    mutex.Unlock(ctx);
    expected_wait += expected - arrival;
    if (hold > 0) {
      recorded.emplace_back(expected, expected + hold);
      max_end = std::max(max_end, expected + hold);
    }
  }
  EXPECT_EQ(mutex.total_wait_ns(), expected_wait);
  // Both paths ran: acquires that had to wait, and arrivals past every end.
  EXPECT_GT(waited, 1000u);
  EXPECT_GT(past_every_end, 1000u);
}

TEST(SimMutexTest, ThreadSafetyUnderRealConcurrency) {
  common::SimMutex mutex;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&mutex, t] {
      common::ExecContext ctx(t);
      for (int i = 0; i < 1000; i++) {
        mutex.Lock(ctx);
        ctx.clock.Advance(1);
        mutex.Unlock(ctx);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  // No crashes/data races, and each thread observed serialized time when its
  // window overlapped another's.
  common::ExecContext probe(9);
  mutex.Lock(probe);
  mutex.Unlock(probe);
  SUCCEED();
}

TEST(PerfCountersTest, AddAggregates) {
  common::PerfCounters a;
  common::PerfCounters b;
  a.page_faults_4k = 3;
  b.page_faults_4k = 4;
  b.page_faults_2m = 1;
  a.Add(b);
  EXPECT_EQ(a.page_faults_4k, 7u);
  EXPECT_EQ(a.total_page_faults(), 8u);
}

}  // namespace
