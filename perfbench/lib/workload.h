// The benchmark's workload interface and the pieces every workload shares:
// beds wrapped in the TimedFs decorator, the outcome of one measured round,
// and the modeled fingerprint.
//
// A workload builds all of its inputs and base images from the seed in
// Setup(). The measure phase then runs rounds. Every round starts from the
// same base images and issues the same requests, so its modeled outcome (and
// its fingerprint) is identical from round to round and between traced and
// untraced rounds; only host time differs.
#ifndef PERFBENCH_LIB_WORKLOAD_H_
#define PERFBENCH_LIB_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lib/spans.h"
#include "lib/timed_fs.h"
#include "src/common/histogram.h"
#include "src/common/perf_counters.h"
#include "src/common/result.h"
#include "src/obs/profiler.h"
#include "src/pmem/device.h"
#include "src/trace/format.h"
#include "src/wload/harness.h"

namespace perfbench {

// Host-side observers of a traced round; both null when tracing is off.
struct Observers {
  SpanRecorder* spans = nullptr;
  obs::Profiler* profiler = nullptr;
};

// A wload::Bed whose filesystem is reached through the TimedFs decorator.
struct TimedBed {
  wload::Bed bed;
  std::unique_ptr<TimedFs> fs;
};

// wload::MakeBed on a fresh device (mkfs), timed as a wload.make_bed span.
common::Result<TimedBed> MakeFreshBed(const std::string& fs_name, uint64_t device_bytes,
                                      SpanRecorder* spans);
// wload::MakeBed on a COW fork of `base` (mount), timed as wload.fork_mount.
common::Result<TimedBed> ForkBed(const std::string& fs_name, const pmem::DeviceSnapshot& base,
                                 SpanRecorder* spans);
// Unmounts the bed and snapshots its device.
common::Result<pmem::DeviceSnapshot> UnmountAndSnapshot(TimedBed& bed);
// Unmounts the bed under `ctx` and runs fscore::CheckImage on its device.
// Returns whether both succeeded.
bool UnmountAndCheck(TimedBed& bed, common::ExecContext& ctx);

// What one round did. Everything except the host_* fields is modeled and
// deterministic.
struct RoundOutcome {
  uint64_t ops = 0;
  // Ops whose outcome differed from the workload's own model of it.
  uint64_t failed = 0;
  // Ops the model expects to fail (fleet_replay's stats of purged mailboxes).
  uint64_t expected_errors = 0;
  // Modeled time the round's requests took, and per request.
  uint64_t sim_ns = 0;
  std::vector<uint64_t> req_sim_ns;
  common::PerfCounters counters;
  // mmap_aged: bytes mapped, and the part of them mapped with 2 MiB pages.
  uint64_t mapped_bytes = 0;
  uint64_t huge_bytes = 0;
  // Units the per-layer self times are normalized by.
  uint64_t records = 0;      // trace records replayed
  uint64_t write_bytes = 0;  // bytes written through MappedFile::Write
  uint64_t lines = 0;        // cachelines accessed through AccessLines

  // Host time inside the program's calls: in total (the ops_per_s
  // denominator) and per request.
  uint64_t host_ns = 0;
  std::vector<uint64_t> req_host_ns;
  // Decorator counts gathered in traced rounds.
  TimedFsStats fs_stats;
  // Images unmounted and checked after their requests, and how many failed.
  uint64_t images_checked = 0;
  uint64_t images_failed = 0;
};

// FNV-1a digest of a round's modeled outcome: op and failure counts, the
// simulated clock, every kCounterFields counter, the modeled per-request
// latency histogram, and the mapped-byte split.
uint64_t ModeledFingerprint(const RoundOutcome& round);

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds every input and base image from the seed. `spans` is null unless
  // the run is traced.
  virtual common::Status Setup(SpanRecorder* spans) = 0;
  // Runs one round from the base images.
  virtual common::Result<RoundOutcome> RunRound(const Observers& observers) = 0;
  // Unmounts and checks the images a workload keeps mounted across rounds.
  // Workloads that check each round's images have none left to check.
  struct ImageChecks {
    uint64_t checked = 0;
    uint64_t failed = 0;
  };
  virtual ImageChecks CheckImagesAfterMeasure() { return {}; }
  // One-line description of inputs and seed-determined expectations.
  virtual std::string Describe() const = 0;
};

// Workload factories. mmap_aged keeps its private snap corpus under
// `work_dir`, which must exist.
std::unique_ptr<Workload> MakeMetaSpine(uint64_t seed);
std::unique_ptr<Workload> MakeFleetReplay(uint64_t seed);
std::unique_ptr<Workload> MakeMmapAged(uint64_t seed, std::string work_dir);

// fleet_replay's namespace model: per tenant, the number of records of `tr`
// that a fresh filesystem must fail.
std::vector<uint64_t> ExpectedTraceErrors(const trace::Trace& tr);

// Exact percentile (nearest rank) of unsorted samples; 0 for none.
uint64_t Percentile(std::vector<uint64_t> samples, double pct);

// Deterministic payload byte `offset` of a file whose contents derive from
// `key` (used to write and then verify file data).
inline uint8_t PayloadByte(uint64_t key, uint64_t offset) {
  uint64_t x = key * 0x9e3779b97f4a7c15ull + (offset >> 3) * 0xbf58476d1ce4e5b9ull;
  x ^= x >> 29;
  return static_cast<uint8_t>(x >> (8 * (offset & 7)));
}

}  // namespace perfbench

#endif  // PERFBENCH_LIB_WORKLOAD_H_
