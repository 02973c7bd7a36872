// YCSB workload generator [15]: the industry-standard core workloads used by
// the paper's RocksDB evaluation (Fig 7a: Load, A, B, C, D, E, F).
#ifndef SRC_WLOAD_YCSB_H_
#define SRC_WLOAD_YCSB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/wload/kv_interface.h"
#include "src/wload/parallel_runner.h"

namespace wload {

enum class YcsbWorkload { kLoad, kA, kB, kC, kD, kE, kF };

std::string YcsbName(YcsbWorkload workload);
std::vector<YcsbWorkload> AllYcsbWorkloads();

struct YcsbConfig {
  uint64_t record_count = 100000;
  uint64_t operation_count = 100000;
  uint32_t value_bytes = 1024;
  uint32_t num_threads = 4;
  uint32_t num_cpus = 4;
  uint32_t scan_length = 50;
  uint64_t seed = 1234;
  // Simulated-time anchor (pass the setup context's NowNs).
  uint64_t start_time_ns = 0;
};

struct YcsbResult {
  RunResult run;
  uint64_t not_found = 0;
};

class YcsbDriver {
 public:
  YcsbDriver(KvStore* store, YcsbConfig config) : store_(store), config_(config) {}

  // Loads record_count records (always required before running A-F).
  YcsbResult Load(uint32_t num_threads = 0);
  YcsbResult Run(YcsbWorkload workload);

 private:
  KvStore* store_;
  YcsbConfig config_;
  uint64_t base_ns_ = 0;   // advances after each phase
  bool base_init_ = false;
  uint64_t inserted_ = 0;  // grows during D/E inserts
};

}  // namespace wload

#endif  // SRC_WLOAD_YCSB_H_
