#include "lib/workload.h"

#include <algorithm>
#include <cmath>

#include "src/fs/fscore/fsck.h"
#include "src/snap/image.h"

namespace perfbench {

namespace {

common::Result<TimedBed> Wrap(common::Result<wload::Bed> bed) {
  if (!bed.ok()) {
    return bed.status();
  }
  TimedBed out;
  out.bed = std::move(bed.value());
  out.fs = std::make_unique<TimedFs>(out.bed.fs.get());
  return out;
}

void MixU64(uint64_t& hash, uint64_t value) {
  hash = snap::Fnv1a(reinterpret_cast<const uint8_t*>(&value), sizeof(value), hash);
}

}  // namespace

common::Result<TimedBed> MakeFreshBed(const std::string& fs_name, uint64_t device_bytes,
                                      SpanRecorder* spans) {
  ScopedSpan span(spans, SpanName::kMakeBed);
  wload::BedSpec spec;
  spec.fs_name = fs_name;
  spec.device_bytes = device_bytes;
  return Wrap(wload::MakeBed(spec));
}

common::Result<TimedBed> ForkBed(const std::string& fs_name, const pmem::DeviceSnapshot& base,
                                 SpanRecorder* spans) {
  ScopedSpan span(spans, SpanName::kForkMount);
  wload::BedSpec spec;
  spec.fs_name = fs_name;
  spec.snapshot = &base;
  return Wrap(wload::MakeBed(spec));
}

common::Result<pmem::DeviceSnapshot> UnmountAndSnapshot(TimedBed& bed) {
  RETURN_IF_ERROR(bed.fs->Unmount(bed.bed.setup));
  return bed.bed.dev->Snapshot();
}

bool UnmountAndCheck(TimedBed& bed, common::ExecContext& ctx) {
  bed.fs->set_recorder(nullptr);
  if (!bed.fs->Unmount(ctx).ok()) {
    return false;
  }
  return fscore::CheckImage(*bed.bed.dev).ok();
}

uint64_t ModeledFingerprint(const RoundOutcome& round) {
  uint64_t hash = 14695981039346656037ull;
  MixU64(hash, round.ops);
  MixU64(hash, round.failed);
  MixU64(hash, round.expected_errors);
  MixU64(hash, round.sim_ns);
  for (const common::CounterField& field : common::kCounterFields) {
    MixU64(hash, round.counters.*field.member);
  }
  common::LatencyHistogram histogram;
  for (uint64_t ns : round.req_sim_ns) {
    histogram.Record(ns);
  }
  const std::string rows = histogram.CdfRows();
  hash = snap::Fnv1a(reinterpret_cast<const uint8_t*>(rows.data()), rows.size(), hash);
  MixU64(hash, histogram.count());
  MixU64(hash, histogram.MinNanos());
  MixU64(hash, histogram.MaxNanos());
  MixU64(hash, round.mapped_bytes);
  MixU64(hash, round.huge_bytes);
  return hash;
}

uint64_t Percentile(std::vector<uint64_t> samples, double pct) {
  if (samples.empty()) {
    return 0;
  }
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(samples.size()));
  const size_t index =
      std::min(samples.size() - 1, static_cast<size_t>(std::max(1.0, rank)) - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

}  // namespace perfbench
