// Simulated byte-addressable persistent-memory device.
//
// All filesystem metadata and data live in this device's address space, so
// mount/recovery/crash tests operate on real bytes. Stores are volatile until
// flushed (Clwb/NtStore) and fenced (Fence), mirroring the x86 persistence
// model. When crash tracking is enabled the device additionally maintains the
// last guaranteed-persistent image plus the set of in-flight cachelines, from
// which the CrashMonkey-style harness enumerates crash states.
#ifndef SRC_PMEM_DEVICE_H_
#define SRC_PMEM_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/exec_context.h"
#include "src/common/prefetch.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/common/units.h"
#include "src/pmem/cost_model.h"
#include "src/pmem/fault_injector.h"

namespace pmem {

// Copy-on-write sharing granularity for device snapshots and forks; also the
// chunk size of the on-disk snapshot image format (src/snap).
inline constexpr uint64_t kSnapChunkBytes = 256 * 1024;

// Number of kSnapChunkBytes chunks that cover `bytes` device bytes.
inline uint64_t ChunkCount(uint64_t bytes) {
  return (bytes + kSnapChunkBytes - 1) / kSnapChunkBytes;
}

// Immutable full-device image plus the geometry needed to recreate an
// equivalent device. Shareable: any number of COW forks reference one
// snapshot's bytes without copying them up front.
struct DeviceSnapshot {
  std::shared_ptr<const std::vector<uint8_t>> bytes;
  // Per-chunk zero map: zero_chunks[c] is true when chunk c of `bytes` is
  // all zero. Every producer fills it (MakeSnapshot by one scan, snap's
  // LoadImage from its stored-chunk list); false only says the chunk may
  // hold data. Forks skip the copy of a zero chunk, and SaveImage skips it.
  std::vector<bool> zero_chunks;
  CostModel model;
  uint32_t numa_nodes = 1;

  uint64_t size() const { return bytes == nullptr ? 0 : bytes->size(); }
  bool valid() const { return bytes != nullptr; }
  // True when chunk `c` is known to be all zero; a chunk past the end of the
  // map is not.
  bool ChunkIsZero(uint64_t c) const { return c < zero_chunks.size() && zero_chunks[c]; }
};

// Wraps `bytes` in a snapshot and fills its zero map with one scan.
DeviceSnapshot MakeSnapshot(std::vector<uint8_t> bytes, const CostModel& model,
                            uint32_t numa_nodes);

// One not-yet-guaranteed-persistent cacheline: its device offset and payload.
struct PendingLine {
  uint64_t line_offset = 0;  // cacheline-aligned device offset
  bool flushed = false;      // clwb'd but not yet fenced
  uint64_t seq = 0;          // global store order, for ordered crash exploration
  uint8_t data[common::kCacheline] = {};
};

class PmemDevice {
 public:
  // `numa_nodes` splits the device into equal interleave regions for the
  // NUMA-awareness experiments; 1 disables the distinction.
  explicit PmemDevice(uint64_t size_bytes, CostModel model = CostModel{},
                      uint32_t numa_nodes = 1);

  // Adopts `bytes` as the device image without copying them (snap's
  // in-place fsck of a loaded image).
  PmemDevice(std::vector<uint8_t>&& bytes, CostModel model, uint32_t numa_nodes);

  // Copy-on-write fork: the device starts as a logical copy of `base` but
  // copies each kSnapChunkBytes chunk only on first access, so forking a
  // mostly-idle aged image costs far less than re-aging or deep-copying.
  // The fork zero-fills its own buffer here, at construction, so a first
  // access costs at most one chunk copy and never page faults; a chunk the
  // base's zero map marks all zero is not even copied. Forks are fully
  // isolated from the base and from each other.
  explicit PmemDevice(const DeviceSnapshot& base);

  uint64_t size() const { return size_; }
  const CostModel& cost() const { return model_; }
  uint32_t numa_nodes() const { return numa_nodes_; }
  uint32_t NumaNodeOf(uint64_t offset) const;

  // Hands the current volatile image to a shareable snapshot (the input to
  // COW forks and to the src/snap image writer) without copying it, and
  // fills the snapshot's zero map with one scan. The device then continues
  // as a COW fork of that snapshot and allocates a buffer of its own only
  // when it next needs a byte, so no pointer from raw() or raw_span() may be
  // held across this call. A fork that has materialized nothing returns its
  // base. Not safe while other threads access the device.
  DeviceSnapshot Snapshot();

  // True while this fork still has unmaterialized chunks backed by its base.
  bool is_cow_fork() const { return cow_active_.load(std::memory_order_acquire); }
  // Chunks materialized from the base so far, whether copied or known zero
  // (lazy-fork observability; tests assert a fork that touched little
  // materialized little).
  uint64_t cow_chunks_copied() const { return cow_chunks_copied_; }

  // Raw access to the current (volatile) image. Used by readers and by
  // memory-mapped access paths; cost accounting happens in the caller
  // (MmapEngine) or via the charge helpers below. Plain raw() must be able to
  // see every byte, so on a COW fork it materializes the whole base image;
  // range-bounded access paths use raw_span to keep the fork lazy.
  uint8_t* raw() {
    MaterializeAll();
    return data_.data();
  }
  const uint8_t* raw() const {
    const_cast<PmemDevice*>(this)->MaterializeAll();
    return data_.data();
  }
  // Range-bounded raw access: materializes only the chunks covering
  // [offset, offset+len) on a COW fork.
  uint8_t* raw_span(uint64_t offset, uint64_t len) {
    Touch(offset, len);
    return data_.data() + offset;
  }
  const uint8_t* raw_span(uint64_t offset, uint64_t len) const {
    const_cast<PmemDevice*>(this)->Touch(offset, len);
    return data_.data() + offset;
  }
  // Host cache hint for the device byte at `offset` (< size()). It reads
  // data_ directly, so it never materializes a COW chunk: a hint at one not
  // yet copied is wasted, never wrong, and a device without a buffer (it gave
  // its bytes to a snapshot) takes no hint. It reads data_ without
  // cow_fork_mu_, so it must not race the access that allocates that buffer
  // again.
  void PrefetchHint(uint64_t offset) const {
    if (offset < data_.size()) {
      common::PrefetchLine(data_.data() + offset);
    }
  }
  // --- Store/load API used by filesystems (syscall paths) ---------------

  // Regular (cached) store: data is volatile until Clwb+Fence.
  void Store(common::ExecContext& ctx, uint64_t offset, const void* src, uint64_t len);
  // Non-temporal store: bypasses cache; persistent after the next Fence.
  void NtStore(common::ExecContext& ctx, uint64_t offset, const void* src, uint64_t len);
  // Returns kIoError (EIO) if the range covers a poisoned media block; the
  // destination is zero-filled in that case so a caller that drops the status
  // can never observe stale bytes.
  common::Status Load(common::ExecContext& ctx, uint64_t offset, void* dst, uint64_t len,
                      bool sequential = true);
  // Media-error probe: kIoError if any media block in the range is poisoned.
  // No data movement, no cost charged (the DIMM address-indirection table
  // knows without touching media).
  common::Status ReadStatus(uint64_t offset, uint64_t len) const;
  // Flush the cachelines covering [offset, offset+len).
  void Clwb(common::ExecContext& ctx, uint64_t offset, uint64_t len);
  // Store fence / drain: all previously flushed lines become persistent.
  void Fence(common::ExecContext& ctx);

  // Convenience: store + clwb + fence (persist immediately).
  void PersistStore(common::ExecContext& ctx, uint64_t offset, const void* src, uint64_t len);
  // Store a trivially-copyable struct.
  template <typename T>
  void StoreStruct(common::ExecContext& ctx, uint64_t offset, const T& value) {
    Store(ctx, offset, &value, sizeof(T));
  }
  template <typename T>
  void PersistStruct(common::ExecContext& ctx, uint64_t offset, const T& value) {
    PersistStore(ctx, offset, &value, sizeof(T));
  }
  // Unchecked struct load: a poisoned range yields a zeroed value. Metadata
  // paths that must distinguish media errors from absent data use
  // TryLoadStruct instead.
  template <typename T>
  T LoadStruct(common::ExecContext& ctx, uint64_t offset) {
    T value;
    (void)Load(ctx, offset, &value, sizeof(T));
    return value;
  }
  // Checked struct load: kIoError when the range covers a poisoned block.
  template <typename T>
  common::Result<T> TryLoadStruct(common::ExecContext& ctx, uint64_t offset) {
    T value;
    RETURN_IF_ERROR(Load(ctx, offset, &value, sizeof(T)));
    return value;
  }

  // Zero-fill (modeled as streaming stores).
  void Zero(common::ExecContext& ctx, uint64_t offset, uint64_t len);

  // Bookkeeping write: real bytes, no time/counter charge, treated as
  // immediately persistent. Used only where the modeled filesystem's real
  // counterpart would NOT issue this write at this point (e.g. NOVA keeps
  // this state in DRAM indexes; we shadow it on PM so mount-time rebuild
  // stays uniform). Every call site documents why. Not crash-realistic:
  // crash-consistency tests only target filesystems that avoid this path.
  void StoreUncharged(uint64_t offset, const void* src, uint64_t len);

  // Zeroes [offset, offset+len) in place with no time/counter charge, treated
  // as immediately persistent (the crash-tracking persistent image is zeroed
  // too). This is the one legitimate uncharged data write: zero-on-fault
  // filesystems scrub recycled blocks at allocation so reads never see a
  // previous file's bytes, and charge the zeroing when a fault or write
  // converts the unwritten extent (§5.4).
  void ScrubUncharged(uint64_t offset, uint64_t len);

  // --- Fault injection ---------------------------------------------------

  // Attaches a fault plan (not owned; nullptr detaches). Poisoned blocks,
  // latency spikes, and torn-write plans all flow through the injector.
  void AttachFaultInjector(FaultInjector* injector) { injector_ = injector; }

  // --- Crash tracking ----------------------------------------------------

  void EnableCrashTracking();
  void DisableCrashTracking();

  // Snapshot of in-flight (not guaranteed persistent) cachelines, in store order.
  std::vector<PendingLine> PendingLines() const;

  // The image with every in-flight line discarded (what survives a crash if
  // nothing extra made it out of the caches).
  std::vector<uint8_t> PersistentImage() const;

  // Persistent image plus the chosen subset of pending lines applied — one
  // possible post-crash device state.
  std::vector<uint8_t> CrashImage(const std::vector<size_t>& pending_subset) const;

  // Replaces the device contents (used to "reboot" into a crash state). A
  // fork stops being one; the snapshots it shared stay unchanged.
  void RestoreImage(const std::vector<uint8_t>& image);

  // Marks everything persistent (e.g. after mkfs, before the tracked workload).
  void MarkAllPersistent();

  // --- Persist-epoch recording (CrashMonkey-style exploration) ----------

  // One fence boundary: the lines that became persistent at this fence and
  // the still-in-flight lines right after it (crash candidates).
  struct PersistEpoch {
    std::vector<PendingLine> persisted;
    std::vector<PendingLine> in_flight_after;
  };

  // Starts recording one operation's persist epochs (crash tracking must be
  // enabled). Subsequent Fence() calls append epochs.
  void BeginEpochRecording();
  // Stops recording and returns the epochs observed since Begin.
  std::vector<PersistEpoch> TakeEpochLog();

 private:
  // COW fast path: no-op unless this is a fork with unmaterialized chunks.
  // The flag is an acquire-load so host-parallel readers of a fully-plain
  // device never touch the fork state; actual materialization serializes on
  // cow_fork_mu_ (forks driven by one host thread never contend it).
  void Touch(uint64_t offset, uint64_t len) {
    if (cow_active_.load(std::memory_order_acquire) && len != 0) {
      MaterializeRange(offset, len);
    }
  }
  void MaterializeRange(uint64_t offset, uint64_t len);
  void MaterializeAll();
  // Makes this device a COW fork of `base` with nothing materialized.
  void ForkFrom(const DeviceSnapshot& base);
  // Drops the fork state: the device is plain from here on. Caller holds
  // cow_fork_mu_ or is the only thread using the device.
  void EndFork();

  void RecordStore(uint64_t offset, uint64_t len, bool flushed);
  // Charges an injected latency spike (if the plan fires) to ctx.
  void ChargeFaultDelay(common::ExecContext& ctx);
  // Store-side fault bookkeeping: full-block overwrites clear poison.
  void NoteStoreFaults(uint64_t offset, uint64_t len) {
    if (injector_ != nullptr) {
      injector_->NoteStore(offset, len);
    }
  }

  uint64_t size_;
  // The device image. Empty after Snapshot() handed it away, until the
  // device next needs a byte (MaterializeRange allocates it again).
  std::vector<uint8_t> data_;
  CostModel model_;
  uint32_t numa_nodes_;
  FaultInjector* injector_ = nullptr;

  // COW-fork state: base image plus the per-chunk materialization map. Freed
  // once every chunk has been materialized (the fork is then a plain device).
  DeviceSnapshot cow_base_;
  std::vector<bool> cow_present_;
  uint64_t cow_pending_ = 0;
  uint64_t cow_chunks_copied_ = 0;
  std::atomic<bool> cow_active_{false};
  std::mutex cow_fork_mu_;

  bool crash_tracking_ = false;
  mutable std::mutex crash_mu_;
  std::vector<uint8_t> persistent_;
  // line offset -> index into pending_ (a line overwritten twice keeps one entry
  // with the latest payload but its original sequence slot is refreshed).
  std::unordered_map<uint64_t, size_t> pending_index_;
  std::vector<PendingLine> pending_;
  uint64_t next_seq_ = 0;

  bool epoch_recording_ = false;
  std::vector<PersistEpoch> epoch_log_;
};

}  // namespace pmem

#endif  // SRC_PMEM_DEVICE_H_
