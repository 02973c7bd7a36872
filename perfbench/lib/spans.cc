#include "lib/spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kFsBatch: return "fs.batch";
    case SpanName::kFsFault: return "fs.fault";
    case SpanName::kFsCall: return "fs.call";
    case SpanName::kMakeBed: return "wload.make_bed";
    case SpanName::kForkMount: return "wload.fork_mount";
    case SpanName::kTraceGen: return "trace.gen";
    case SpanName::kTraceReplay: return "trace.replay";
    case SpanName::kAging: return "aging.run";
    case SpanName::kSnapSave: return "snap.save";
    case SpanName::kSnapLoad: return "snap.load";
    case SpanName::kVmemWrite: return "vmem.write";
    case SpanName::kVmemLines: return "vmem.lines";
    case SpanName::kVmemRead: return "vmem.read";
  }
  return "?";
}

std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  // Visit children in start order so each parent's covered time is a sweep
  // over its children's intervals with a moving cursor.
  std::vector<size_t> order(spans.size());
  for (size_t i = 0; i < order.size(); i++) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return spans[a].start_ns < spans[b].start_ns;
  });
  std::vector<uint64_t> covered(spans.size(), 0);
  std::vector<uint64_t> cursor(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); i++) {
    cursor[i] = spans[i].start_ns;
  }
  for (size_t i : order) {
    const Span& child = spans[i];
    if (child.parent < 0 || static_cast<size_t>(child.parent) >= spans.size()) {
      continue;
    }
    const size_t p = static_cast<size_t>(child.parent);
    const uint64_t lo = std::max(child.start_ns, cursor[p]);
    const uint64_t hi = std::min(child.end_ns, spans[p].end_ns);
    if (hi > lo) {
      covered[p] += hi - lo;
      cursor[p] = hi;
    }
  }
  std::vector<uint64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); i++) {
    const uint64_t duration =
        spans[i].end_ns > spans[i].start_ns ? spans[i].end_ns - spans[i].start_ns : 0;
    self[i] = duration - std::min(duration, covered[i]);
  }
  return self;
}

std::array<NameTotals, kNumSpanNames> TotalsByName(const std::vector<Span>& spans) {
  const std::vector<uint64_t> self = SelfTimes(spans);
  std::array<NameTotals, kNumSpanNames> totals{};
  for (size_t i = 0; i < spans.size(); i++) {
    NameTotals& t = totals[static_cast<size_t>(spans[i].name)];
    t.count++;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return totals;
}

size_t SpanRecorder::Begin(SpanName name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  span.request = request_;
  span.start_ns = HostNowNs();
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::End(size_t index) {
  spans_[index].end_ns = HostNowNs();
  open_.pop_back();  // ScopedSpan closes spans innermost-first
}

common::Status SpanRecorder::WriteTsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return common::Status(common::ErrorCode::kIoError);
  }
  std::fprintf(out, "index\tname\tparent\trequest\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    std::fprintf(out, "%zu\t%s\t%lld\t%llu\t%llu\t%llu\n", i, SpanNameString(s.name),
                 static_cast<long long>(s.parent), static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  const bool ok = std::fclose(out) == 0;
  return ok ? common::OkStatus() : common::Status(common::ErrorCode::kIoError);
}

}  // namespace perfbench
