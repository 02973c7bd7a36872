// WiredTiger stand-in (Fig 9c/9f): MongoDB's default engine. FillRandom
// appends 1 KiB values at *unaligned offsets* to its log and periodically
// checkpoints B-tree pages — the access pattern where NOVA pays partial-block
// copy-on-write amplification and WineFS appends in place under journaling
// (§5.5). ReadRandom issues random preads over the table file.
#ifndef SRC_WLOAD_WTIGER_H_
#define SRC_WLOAD_WTIGER_H_

#include <vector>

#include "src/vfs/file_system.h"
#include "src/wload/parallel_runner.h"

namespace wload {

struct WtigerConfig {
  uint64_t num_keys = 20000;
  uint32_t value_bytes = 1024;  // paper: 1 KB values
  uint32_t num_threads = 8;
  uint32_t num_cpus = 8;
  uint32_t checkpoint_every = 1000;  // ops between checkpoint page flushes
  uint64_t seed = 31;
  uint64_t start_time_ns = 0;  // simulated-time anchor
};

class Wtiger {
 public:
  Wtiger(vfs::FileSystem* fs, WtigerConfig config) : fs_(fs), config_(config) {}

  common::Status Setup(common::ExecContext& ctx);
  common::Result<RunResult> FillRandom();
  common::Result<RunResult> ReadRandom();
  void set_start_time_ns(uint64_t ns) { config_.start_time_ns = ns; }

 private:
  vfs::FileSystem* fs_;
  WtigerConfig config_;
  int log_fd_ = -1;
  int table_fd_ = -1;
  uint64_t table_bytes_ = 0;
};

}  // namespace wload

#endif  // SRC_WLOAD_WTIGER_H_
