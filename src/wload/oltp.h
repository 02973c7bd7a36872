// PostgreSQL/pgbench stand-in (Fig 9b/9e, "Read-Write (TPC-B)"): a heap-file
// OLTP engine. Each transaction updates one account row in place (page read,
// modify, page write), appends to branch/teller history, writes WAL records,
// and commits with fsync on the WAL — the syscall access mode the paper
// evaluates. 32 threads, scaled table size.
#ifndef SRC_WLOAD_OLTP_H_
#define SRC_WLOAD_OLTP_H_

#include <string>

#include "src/vfs/file_system.h"
#include "src/wload/parallel_runner.h"

namespace wload {

struct OltpConfig {
  uint64_t accounts = 100000;  // scaled from pgbench scale factors
  uint32_t num_threads = 32;
  uint32_t num_cpus = 8;
  uint64_t transactions_per_thread = 500;
  uint64_t seed = 7;
  // Database CPU work per transaction (parsing, locking, WAL CRC, executor):
  // keeps the storage-path share of a transaction realistic.
  uint64_t think_time_ns = 30000;
  uint64_t start_time_ns = 0;  // set from the Setup context before RunReadWrite
};

class OltpEngine {
 public:
  OltpEngine(vfs::FileSystem* fs, OltpConfig config) : fs_(fs), config_(config) {}

  // Creates and populates the heap + WAL files.
  common::Status Setup(common::ExecContext& ctx);

  // Runs the TPC-B-like read/write mix; returns aggregate throughput.
  common::Result<RunResult> RunReadWrite();
  void set_start_time_ns(uint64_t ns) { config_.start_time_ns = ns; }

 private:
  static constexpr uint32_t kRowBytes = 128;
  static constexpr uint32_t kPageBytes = 8192;  // PostgreSQL page

  uint64_t PageOfAccount(uint64_t account) const {
    return account / (kPageBytes / kRowBytes);
  }

  vfs::FileSystem* fs_;
  OltpConfig config_;
  int heap_fd_ = -1;
  int wal_fd_ = -1;
  int history_fd_ = -1;
};

}  // namespace wload

#endif  // SRC_WLOAD_OLTP_H_
