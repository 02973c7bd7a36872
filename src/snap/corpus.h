// Provenance-keyed corpus of aged device images.
//
// A Corpus maps an ImageKey — everything that determines the bytes of an aged
// image (filesystem, device geometry, aging profile + seed, target
// utilization, churn multiplier, format version) — to an image file in a
// corpus directory. Benches ask LoadOrBuild / LoadOrBuildSweep for the image
// they need: a warm corpus answers from disk (after fsck-validating the
// loaded bytes in place), a cold one runs the caller's builder and saves the result for next
// time. With no corpus directory configured the Corpus is disabled and
// degrades to always-build/never-save, so default test runs are byte-for-byte
// identical to a world without src/snap.
//
// Selection: WINEFS_SNAP_DIR names the corpus directory (created on demand);
// WINEFS_SNAP_REBUILD=1 forces builders to run even on a warm corpus
// (refreshing the stored images).
#ifndef SRC_SNAP_CORPUS_H_
#define SRC_SNAP_CORPUS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/pmem/device.h"
#include "src/snap/image.h"

namespace snap {

// Everything that determines the bytes of an aged image. Two runs with equal
// keys (and equal code — the CI cache key folds in a source hash) must
// produce byte-identical images; the determinism test enforces this.
struct ImageKey {
  std::string fs;            // registry name ("winefs", "ext4-dax", ...)
  uint64_t device_bytes = 0;
  uint32_t num_cpus = 4;     // mkfs layout depends on the per-CPU pool count
  uint32_t numa_nodes = 1;
  std::string profile;       // aging profile name ("agrawal", "wang-hpc")
  uint64_t seed = 0;         // aging RNG seed
  double utilization = 0;    // target utilization of this step
  double churn = 0;          // churn multiplier applied at this step
  std::string detail;        // bench-specific extras (mkfs options, workload prep)

  // Canonical provenance string; stored in the image header and embedded in
  // bench reports.
  std::string Provenance() const;
  // Deterministic corpus file name derived from the provenance.
  std::string FileName() const;
};

struct CorpusStats {
  uint64_t hits = 0;          // images served from the corpus
  uint64_t misses = 0;        // images that had to be built
  uint64_t loaded_bytes = 0;  // on-disk bytes read on hits
  uint64_t saved_bytes = 0;   // on-disk bytes written after builds
  uint64_t rejects = 0;       // stored images rejected (corrupt/stale/fsck)
  uint64_t build_wall_ms = 0; // real time spent in builders
  uint64_t load_wall_ms = 0;  // real time spent loading + validating
};

class Corpus {
 public:
  // Empty `dir` disables the corpus (pure passthrough).
  explicit Corpus(std::string dir, bool force_rebuild = false);

  // Reads WINEFS_SNAP_DIR / WINEFS_SNAP_REBUILD.
  static Corpus FromEnv();

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }
  bool force_rebuild() const { return force_rebuild_; }
  const CorpusStats& stats() const { return stats_; }

  // Path the image for `key` lives at (valid only when enabled).
  std::string PathFor(const ImageKey& key) const;

  // Loads and validates the stored image for `key` (LoadCheckedImage). Non-ok
  // on any miss: absent file (kNotFound), unreadable/corrupt/stale image,
  // fsck failure (kCorrupt), or provenance mismatch. A damaged stored image
  // is a miss, never an error the caller has to handle specially.
  common::Result<pmem::DeviceSnapshot> TryLoad(const ImageKey& key);

  // Saves a built image under `key` (no-op when disabled).
  common::Status Save(const ImageKey& key, const pmem::DeviceSnapshot& snap);

  // Load on hit; otherwise run `build` and save its result.
  using BuildFn = std::function<common::Result<pmem::DeviceSnapshot>()>;
  common::Result<pmem::DeviceSnapshot> LoadOrBuild(const ImageKey& key, const BuildFn& build);

  // Chain variant for incremental utilization sweeps (fig01/fig03): keys[i]
  // is step i of one aging chain whose in-memory aging state cannot be
  // resumed from device bytes. If every step hits, the stored snapshots are
  // returned. On any miss the whole chain is rebuilt in one pass: `build`
  // runs once and must call save_step(i, snapshot) exactly once per step, in
  // order, with the device unmounted (fsck-clean).
  using SaveStepFn = std::function<void(size_t step, const pmem::DeviceSnapshot& snap)>;
  using SweepBuilder = std::function<common::Status(const SaveStepFn& save_step)>;
  common::Result<std::vector<pmem::DeviceSnapshot>> LoadOrBuildSweep(
      const std::vector<ImageKey>& keys, const SweepBuilder& build);

 private:
  std::string dir_;
  bool force_rebuild_ = false;
  CorpusStats stats_;
};

}  // namespace snap

#endif  // SRC_SNAP_CORPUS_H_
