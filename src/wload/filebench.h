// Filebench-style macro-benchmarks [46, 48] (Fig 9a/9d): varmail, fileserver,
// webserver, webproxy personalities driving the POSIX syscall surface with
// the paper's thread counts (Table 1), scaled file counts.
#ifndef SRC_WLOAD_FILEBENCH_H_
#define SRC_WLOAD_FILEBENCH_H_

#include <string>

#include "src/vfs/file_system.h"
#include "src/wload/parallel_runner.h"

namespace wload {

enum class FilebenchPersonality { kVarmail, kFileserver, kWebserver, kWebproxy };

std::string FilebenchName(FilebenchPersonality personality);

struct FilebenchConfig {
  uint32_t num_threads = 16;
  uint32_t num_cpus = 8;
  uint32_t num_files = 2000;   // scaled from the paper's 500K-1M
  uint32_t mean_file_bytes = 16 * 1024;
  uint64_t ops_per_thread = 2000;
  uint64_t seed = 99;
  uint64_t start_time_ns = 0;  // simulated-time anchor
};

// Applies the paper's Table 1 thread counts (file counts stay scaled).
FilebenchConfig PaperConfig(FilebenchPersonality personality);

struct FilebenchResult {
  RunResult run;
  double KopsPerSecond() const { return run.OpsPerSecond() / 1000.0; }
};

class Filebench {
 public:
  Filebench(vfs::FileSystem* fs, FilebenchPersonality personality, FilebenchConfig config)
      : fs_(fs), personality_(personality), config_(config) {}

  // Creates the fileset, then runs the op mix.
  common::Result<FilebenchResult> Run();

 private:
  vfs::FileSystem* fs_;
  FilebenchPersonality personality_;
  FilebenchConfig config_;
};

}  // namespace wload

#endif  // SRC_WLOAD_FILEBENCH_H_
