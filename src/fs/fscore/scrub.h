// Online scrub/fsck daemon.
//
// A background thread (one extra ParallelRunner simulated thread) that walks
// the checksummed metadata regions of a *mounted* filesystem — superblock,
// journal, inode table — in fixed-size windows while foreground traffic runs.
// Each step probes media health (cost-free ReadStatus, the same probe
// mount-time recovery uses) and, for windows it can interpret, structural
// sanity (superblock magic, in-use inode magics). Injected corruption is
// registered via NoteInjected; the daemon reports detection latency
// (mean time to detect, simulated ns) through the gauges pipeline, so benches
// get an MTTD time series alongside the foreground metrics.
#ifndef SRC_FS_FSCORE_SCRUB_H_
#define SRC_FS_FSCORE_SCRUB_H_

#include <cstdint>
#include <vector>

#include "src/common/exec_context.h"
#include "src/fs/fscore/generic_fs.h"
#include "src/obs/gauges.h"

namespace fscore {

class ScrubDaemon : public obs::GaugeProvider {
 public:
  struct Config {
    // Metadata bytes verified per Step (one scrub window).
    uint64_t window_bytes = 16 * 1024;
    // Simulated idle gap charged after each window, pacing the daemon so it
    // does not monopolize device bandwidth against foreground threads.
    uint64_t step_gap_ns = 50'000;
  };

  // Two overloads instead of a defaulted Config argument: a nested aggregate
  // with member initializers cannot be a default argument inside its own
  // enclosing class.
  explicit ScrubDaemon(GenericFs* fs);
  ScrubDaemon(GenericFs* fs, Config config);

  // One scrub window; safe to call forever (the cursor wraps). Designed as a
  // ParallelRunner OpFn body for the background thread. Always returns true.
  bool Step(common::ExecContext& ctx);

  // Registers injected corruption at simulated time `inject_ns` so the next
  // scrub pass over [offset, offset+len) is attributed a detection latency.
  void NoteInjected(uint64_t offset, uint64_t len, uint64_t inject_ns);

  uint64_t passes() const { return passes_; }
  uint64_t bytes_scanned() const { return bytes_scanned_; }
  uint64_t media_detections() const { return media_detections_; }
  uint64_t structural_errors() const { return structural_errors_; }
  // Mean detection latency over injected corruptions found so far (0 if none).
  double MeanTimeToDetectNs() const;

  // Gauges: scrub_passes, scrub_bytes_scanned, scrub_detections,
  // scrub_mttd_ns.
  void SampleGauges(obs::GaugeSample& out) override;

 private:
  struct Injected {
    uint64_t offset = 0;
    uint64_t len = 0;
    uint64_t inject_ns = 0;
    bool detected = false;
    uint64_t detect_ns = 0;
  };

  uint64_t MetadataBytes() const;

  GenericFs* fs_;
  Config config_;
  uint64_t cursor_ = 0;  // next metadata byte to scrub
  uint64_t passes_ = 0;
  uint64_t bytes_scanned_ = 0;
  uint64_t media_detections_ = 0;
  uint64_t structural_errors_ = 0;
  std::vector<Injected> injected_;
};

}  // namespace fscore

#endif  // SRC_FS_FSCORE_SCRUB_H_
