// Event counters accumulated by the simulators; the paper reports several of
// these directly (page faults in Table 2, TLB and LLC misses in §5.4).
//
// Counters are REGISTERED: every field must have an entry in kCounterFields,
// which drives Add/Reset and the BENCH_*.json counter dump generically. The
// static_assert below fails the build if a field is added to the struct
// without registering it, so a new counter can never be silently dropped from
// aggregation. Time breakdowns are not counters: they come from the
// profiler's zones (src/obs/profiler.h).
#ifndef SRC_COMMON_PERF_COUNTERS_H_
#define SRC_COMMON_PERF_COUNTERS_H_

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace common {

struct PerfCounters {
  // Virtual memory.
  uint64_t page_faults_4k = 0;
  uint64_t page_faults_2m = 0;
  uint64_t tlb_hits = 0;
  uint64_t tlb_l1_misses = 0;
  uint64_t tlb_l2_misses = 0;  // full walks
  uint64_t llc_hits = 0;
  uint64_t llc_misses = 0;

  // Persistent memory traffic.
  uint64_t pm_read_bytes = 0;
  uint64_t pm_write_bytes = 0;
  uint64_t clwb_count = 0;
  uint64_t fence_count = 0;
  uint64_t pm_latency_spikes = 0;  // injected transient slow accesses

  // Filesystem-level accounting.
  uint64_t syscall_count = 0;
  uint64_t fsync_count = 0;
  uint64_t journal_bytes = 0;   // metadata (and data-journal) bytes written twice
  uint64_t cow_bytes = 0;       // bytes relocated by copy-on-write / log-structuring
  uint64_t alloc_requests = 0;
  uint64_t aligned_allocs = 0;  // requests satisfied by 2MB-aligned extents

  uint64_t total_page_faults() const { return page_faults_4k + page_faults_2m; }

  inline void Add(const PerfCounters& o);
  void Reset() { *this = PerfCounters{}; }
};

// One registry entry: the counter's wire name and its struct member.
struct CounterField {
  const char* name;
  uint64_t PerfCounters::*member;
};

inline constexpr CounterField kCounterFields[] = {
    {"page_faults_4k", &PerfCounters::page_faults_4k},
    {"page_faults_2m", &PerfCounters::page_faults_2m},
    {"tlb_hits", &PerfCounters::tlb_hits},
    {"tlb_l1_misses", &PerfCounters::tlb_l1_misses},
    {"tlb_l2_misses", &PerfCounters::tlb_l2_misses},
    {"llc_hits", &PerfCounters::llc_hits},
    {"llc_misses", &PerfCounters::llc_misses},
    {"pm_read_bytes", &PerfCounters::pm_read_bytes},
    {"pm_write_bytes", &PerfCounters::pm_write_bytes},
    {"clwb_count", &PerfCounters::clwb_count},
    {"fence_count", &PerfCounters::fence_count},
    {"pm_latency_spikes", &PerfCounters::pm_latency_spikes},
    {"syscall_count", &PerfCounters::syscall_count},
    {"fsync_count", &PerfCounters::fsync_count},
    {"journal_bytes", &PerfCounters::journal_bytes},
    {"cow_bytes", &PerfCounters::cow_bytes},
    {"alloc_requests", &PerfCounters::alloc_requests},
    {"aligned_allocs", &PerfCounters::aligned_allocs},
};

inline constexpr size_t kNumCounterFields = std::size(kCounterFields);

// PerfCounters must be exactly its registered fields — adding a field without
// a kCounterFields entry (or vice versa) breaks this.
static_assert(sizeof(PerfCounters) == kNumCounterFields * sizeof(uint64_t),
              "every PerfCounters field must be registered in kCounterFields");

inline void PerfCounters::Add(const PerfCounters& o) {
  for (const CounterField& field : kCounterFields) {
    this->*field.member += o.*field.member;
  }
}

}  // namespace common

#endif  // SRC_COMMON_PERF_COUNTERS_H_
