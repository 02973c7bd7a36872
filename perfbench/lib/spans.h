// In-memory host-time spans for the traced benchmark run, and the self-time
// arithmetic the per-layer metrics are computed with.
//
// Spans are recorded from the benchmark's own code, around its calls into
// each layer's public API. Each span carries a name, a start and end on the
// host steady clock, the span that enclosed it, and the id of the request it
// belongs to. They stay in memory until the run ends.
#ifndef PERFBENCH_LIB_SPANS_H_
#define PERFBENCH_LIB_SPANS_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace perfbench {

inline uint64_t HostNowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Every span name the benchmark records, one per layer boundary it times.
enum class SpanName : uint32_t {
  kFsBatch,      // vfs::FileSystem::ExecuteBatch
  kFsFault,      // vfs::FileSystem::HandleFault (the mmap fault path)
  kFsCall,       // any other (scalar) vfs::FileSystem call
  kMakeBed,      // wload::MakeBed on a fresh device (mkfs)
  kForkMount,    // wload::MakeBed on a COW fork of a snapshot (mount)
  kTraceGen,     // trace::scenarios::GenerateScenario
  kTraceReplay,  // trace::TraceReplayer::Replay
  kAging,        // aging::Geriatrix::Run
  kSnapSave,     // snap::Corpus::Save
  kSnapLoad,     // snap::Corpus::TryLoad (checksums + fsck-on-load)
  kVmemWrite,    // vmem::MappedFile::Write
  kVmemLines,    // vmem::MappedFile::AccessLines
  kVmemRead,     // vmem::MappedFile::Read
};
inline constexpr size_t kNumSpanNames = 13;

const char* SpanNameString(SpanName name);

struct Span {
  SpanName name = SpanName::kFsCall;
  int64_t parent = -1;   // index of the enclosing span; -1 at top level
  uint64_t request = 0;  // shared by every span of one request; 0 outside requests
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// Self time of every span: its duration minus the part of that interval its
// direct children cover (the union of the children's intervals, clipped to
// the parent). Children may appear in any order and may overlap.
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans);

// Per-name sums over a span list.
struct NameTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};
std::array<NameTotals, kNumSpanNames> TotalsByName(const std::vector<Span>& spans);

// Nested span recorder for one host thread.
class SpanRecorder {
 public:
  // Opens a span under the innermost open one; returns its index.
  size_t Begin(SpanName name);
  void End(size_t index);
  // Starts a new request: spans opened from now on carry its id.
  void NextRequest() { request_++; }

  const std::vector<Span>& spans() const { return spans_; }

  // One line per span: index, name, parent, request, start and end ns.
  common::Status WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
  uint64_t request_ = 0;
};

// RAII span that does nothing when the recorder is null (tracing off).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, SpanName name)
      : recorder_(recorder), index_(recorder != nullptr ? recorder->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  size_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LIB_SPANS_H_
