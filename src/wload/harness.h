// Shared workload-harness scaffolding: the ONE mount/format/ctx-wiring path
// that every load driver uses — bench binaries (through benchutil), the
// wload application models, tools/tracectl, and the trace replayer. Before
// this existed each harness re-implemented "make device + filesystem + mmap
// engine, mkfs-or-mount, anchor the setup clock, hand the end time to
// the runner" by copy; divergence between copies showed up as modeled-time
// skew between benches that should have been comparable.
#ifndef SRC_WLOAD_HARNESS_H_
#define SRC_WLOAD_HARNESS_H_

#include <memory>
#include <string>

#include "src/common/exec_context.h"
#include "src/common/result.h"
#include "src/pmem/device.h"
#include "src/vfs/file_system.h"
#include "src/vmem/mmap_engine.h"
#include "src/wload/parallel_runner.h"

namespace wload {

struct BedSpec {
  std::string fs_name;
  uint64_t device_bytes = 0;
  uint32_t num_cpus = 8;
  uint32_t numa_nodes = 1;
  // VFS front-end lock domains (fsreg::Create); 1 = historical global path.
  uint32_t lock_domains = 1;
  // When set, the bed mounts a COW fork of this snapshot (normal recovery
  // path, writes never touch the shared base) instead of mkfs on a fresh
  // device; device_bytes/numa_nodes are taken from the snapshot.
  const pmem::DeviceSnapshot* snapshot = nullptr;
};

// A complete test substrate. `setup` is the context the mkfs/mount ran under:
// its clock carries the setup cost, so anchoring a ParallelRunner (or a replayer)
// at setup.clock.NowNs() continues the simulated timeline instead of
// replaying over the setup phase's SimMutex watermarks.
struct Bed {
  std::unique_ptr<pmem::PmemDevice> dev;
  std::unique_ptr<vfs::FileSystem> fs;
  std::unique_ptr<vmem::MmapEngine> engine;
  std::string fs_name;
  common::ExecContext setup;
};

// Builds the bed: device (fresh or snapshot fork), filesystem via
// fsreg::Create, mmap engine, then Mkfs (fresh) or Mount (fork) under
// bed.setup. kInvalidArgument for an unknown fs name; the mkfs/mount status
// otherwise.
common::Result<Bed> MakeBed(const BedSpec& spec);

// Anchored setup phase for drivers that run their own pre-population before
// measuring: construct at the workload's start time, run setup ops against
// ctx(), then MakeRunner() hands back a ParallelRunner whose base is wherever the
// setup clock ended (the pattern previously hand-rolled in filebench/oltp/
// wtiger call sites).
class SetupPhase {
 public:
  explicit SetupPhase(uint64_t start_time_ns = 0) {
    ctx_.clock.SetNs(start_time_ns);
  }

  common::ExecContext& ctx() { return ctx_; }
  // Simulated time where setup left off; feed to ParallelRunner / ReplayOptions.
  uint64_t end_ns() const { return ctx_.clock.NowNs(); }

  ParallelRunner MakeRunner(uint32_t num_threads, uint32_t num_cpus) const {
    return ParallelRunner(num_threads, num_cpus, end_ns());
  }

 private:
  common::ExecContext ctx_;
};

}  // namespace wload

#endif  // SRC_WLOAD_HARNESS_H_
