// Latency-attribution profiler core types.
//
// The profiler decomposes each operation's modeled nanoseconds into exclusive
// per-layer buckets (VFS / fscore / journal / allocator / device / mmu) and
// aggregates per-lock-site wait/hold statistics, without ever touching the
// simulated clock or the PerfCounters — all modeled outputs are bit-identical
// with the profiler attached or not. Only the types that src/common needs to
// stay obs-free live here: the layer enum, the per-context zone stack state,
// and the abstract hook the obs-side Profiler implements (same one-way
// dependency pattern as ObsSink in exec_context.h).
#ifndef SRC_COMMON_PROF_H_
#define SRC_COMMON_PROF_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace common {

struct ExecContext;

// Which layer of the VFS→journal→device stack a ProfileZone covers. Values
// are packed 3 bits per stack level into ZoneState::path, so there is room
// for at most 7 layers.
enum class ProfLayer : uint8_t {
  kVfs = 0,    // shared VFS path (syscall trap + vfs-shared serialization)
  kFsCore,     // filesystem chassis: namespace, fds, inode bookkeeping
  kJournal,    // consistency engine: undo journals, JBD2, per-inode logs
  kAllocator,  // block-allocator search + pool bookkeeping
  kDevice,     // PM device stores/loads/flushes/fences
  kMmu,        // mmap path: translation, faults, mapped copies
};
inline constexpr size_t kNumProfLayers = 6;

constexpr std::string_view ProfLayerName(ProfLayer layer) {
  switch (layer) {
    case ProfLayer::kVfs:
      return "vfs";
    case ProfLayer::kFsCore:
      return "fscore";
    case ProfLayer::kJournal:
      return "journal";
    case ProfLayer::kAllocator:
      return "allocator";
    case ProfLayer::kDevice:
      return "device";
    case ProfLayer::kMmu:
      return "mmu";
  }
  return "?";
}

// One open zone on a context's stack.
struct ZoneFrame {
  uint64_t enter_ns = 0;
  uint64_t child_ns = 0;  // simulated time spent in closed child zones
};

// Per-ExecContext zone-stack state, embedded directly in the context so the
// hot push/pop path is pointer-chase-free. `active` is the sticky sampling
// decision for the CURRENT op: Tick flips it at each op end for the next op,
// so attribution stays consistent even though the VFS charge zone opens
// before the OpScope that will flush it.
struct ZoneState {
  static constexpr int kMaxDepth = 10;  // 3 bits/level in the 32-bit path key

  ZoneFrame frames[kMaxDepth];
  int depth = 0;
  // Collapsed-stack key: 3 bits per open level, (layer + 1) each, root in the
  // high groups. Deeper-than-kMaxDepth zones merge into their parent.
  uint32_t path = 0;
  bool active = false;
  // Sampler: the gap from one sampled op to the next is drawn uniformly from
  // [1, gap_span] (gap_span = 2^(shift+1) - 1, so the mean gap is 2^shift and
  // shift 0 samples every op). Random gaps keep an op stream whose period
  // divides the mean from being sampled at the same positions forever, and a
  // gap is drawn only when a sampled op is armed, so unsampled ops pay one
  // decrement.
  uint32_t gap_span = 1;
  uint32_t until_sample = 1;  // op ends left before the next sampled op
  uint64_t rng = 0;
  // Exclusive simulated ns per layer accumulated by closed zones of the
  // current op; read-then-zeroed by the Profiler at op end.
  uint64_t layer_ns[kNumProfLayers] = {};

  // Starts sampling afresh from `seed` at 1-in-2^`shift` ops. The first gap
  // is drawn too, so whether the very next op is sampled is itself random.
  void StartSampling(uint64_t seed, uint32_t shift) {
    rng = seed;
    gap_span = (2u << shift) - 1;
    until_sample = NextGap();
    Advance();
  }

  // Per-op sampling tick, run at every op end: counts the finished op and
  // arms `active` for the next one. Returns whether the finished op was
  // sampled — only then does the caller pay the virtual EndOp flush.
  bool Tick() {
    const bool was_sampled = active;
    Advance();
    return was_sampled;
  }

 private:
  void Advance() {
    active = --until_sample == 0;
    if (active) {
      until_sample = NextGap();
    }
  }

  // splitmix64 step scaled onto [1, gap_span].
  uint32_t NextGap() {
    uint64_t z = (rng += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return 1 + static_cast<uint32_t>(((z >> 32) * gap_span) >> 32);
  }
};

// Always-exact per-site lock counters, updated INLINE on every release (plain
// adds on a cached cell — no virtual call, no clock read). Everything beyond
// these totals (contended counts, max wait, histograms, the event ring) lives
// behind the virtual OnLockEvent, which RecordLockRelease below fires only
// for contended releases plus a deterministic 1-in-1024 sample of uncontended
// ones. This split is what keeps always-on lock accounting within the bench
// overhead budget (the slow path costs a virtual call, a clock read, a
// histogram insert, and a ring push — tens of ns against a ~100ns/op gate).
struct LockSiteCell {
  uint64_t acquisitions = 0;
  uint64_t total_wait_ns = 0;
  uint64_t total_hold_ns = 0;
};

inline constexpr uint64_t kUncontendedLockSampleMask = 1023;  // 1-in-1024

// Implemented by obs::Profiler; src/common only ever calls through this
// interface so common never depends on obs. All hooks are observation-only:
// implementations must not advance clocks or touch counters (that is what
// keeps modeled outputs bit-identical with profiling on or off).
class ProfilerHook {
 public:
  virtual ~ProfilerHook() = default;

  // Returns a stable handle for a named lock site; the same name always maps
  // to the same handle, so per-CPU mutexes sharing one name aggregate.
  virtual uint32_t RegisterLockSite(std::string_view site) = 0;

  // The inline fast-path cell for a registered site. The pointer is stable
  // for the profiler's lifetime (sites are never deallocated).
  virtual LockSiteCell* LockSiteCellFor(uint32_t site) = 0;

  // Slow path of one completed acquire/release pair on a lock site —
  // contended or sampled-uncontended only; see RecordLockRelease. `wait_ns`
  // of simulated queueing followed by `hold_ns` of critical section, released
  // at the context's current simulated time. Fast-path totals are NOT
  // re-added here (the caller already bumped the cell).
  virtual void OnLockEvent(ExecContext& ctx, uint32_t site, uint64_t wait_ns,
                           uint64_t hold_ns) = 0;

  // A zone closed at the context's current simulated time, having opened at
  // `enter_ns`, with `exclusive_ns` of it not covered by child zones; `path`
  // is the packed stack key including this zone. Fires for every zone of a
  // sampled op that spans simulated time.
  virtual void OnZoneExit(const ExecContext& ctx, uint32_t path, ProfLayer layer,
                          uint64_t enter_ns, uint64_t exclusive_ns) = 0;

  // Called at the end of a SAMPLED operation only (obs::OpScope runs the
  // inline ZoneState::Tick for every op and pays this virtual call just for
  // ops whose zones collected time): flushes the context's per-layer buckets
  // into the per-op aggregation.
  virtual void EndOp(ExecContext& ctx, std::string_view op) = 0;

  // Zone sampling rate (1 op in 2^shift) and a fresh sampler seed, handed to
  // a context's ZoneState each time it attaches or resets.
  virtual uint32_t ZoneSampleShift() const = 0;
  virtual uint64_t NextZoneSeed() = 0;
};

// Inline accounting for one completed acquire/release: exact totals on the
// cell, virtual OnLockEvent only when the release is contended or falls in
// the 1-in-1024 uncontended sample (histograms + event ring).
inline void RecordLockRelease(ProfilerHook* hook, ExecContext& ctx, LockSiteCell* cell,
                              uint32_t handle, uint64_t wait_ns, uint64_t hold_ns) {
  cell->acquisitions++;
  cell->total_wait_ns += wait_ns;
  cell->total_hold_ns += hold_ns;
  if (wait_ns == 0 && (cell->acquisitions & kUncontendedLockSampleMask) != 0) {
    return;
  }
  hook->OnLockEvent(ctx, handle, wait_ns, hold_ns);
}

// Cached {profiler, handle, cell} triple for serialization points that are
// not SimMutex (SharedResource, ResourceClock). The handle/cell are only
// meaningful for the profiler that issued them; a different attached profiler
// re-resolves. Shared across host threads with no external lock, hence the
// atomics: a race just means both threads call RegisterLockSite, which is
// idempotent.
struct LockSiteRef {
  std::atomic<ProfilerHook*> owner{nullptr};
  std::atomic<uint32_t> handle{0};
  std::atomic<LockSiteCell*> cell{nullptr};

  // Records one release against `site`, resolving on first use per profiler.
  void Record(ProfilerHook* profiler, ExecContext& ctx, std::string_view site,
              uint64_t wait_ns, uint64_t hold_ns) {
    if (owner.load(std::memory_order_acquire) != profiler) {
      const uint32_t resolved = profiler->RegisterLockSite(site);
      handle.store(resolved, std::memory_order_relaxed);
      cell.store(profiler->LockSiteCellFor(resolved), std::memory_order_relaxed);
      owner.store(profiler, std::memory_order_release);
    }
    RecordLockRelease(profiler, ctx, cell.load(std::memory_order_relaxed),
                      handle.load(std::memory_order_relaxed), wait_ns, hold_ns);
  }
};

}  // namespace common

#endif  // SRC_COMMON_PROF_H_
