// ProfileZone: scoped layer-attribution zone, plus profiled-acquire helpers
// for the non-SimMutex serialization points (SharedResource, ResourceClock).
//
// Lives apart from prof.h because it needs the complete ExecContext (prof.h
// is included BY exec_context.h). A zone only reads the simulated clock; it
// never advances it, so wrapping any code in a zone cannot change modeled
// outputs. Exclusive-time accounting: when a zone closes, it records
// (span - time covered by closed child zones) against its layer, and adds its
// full span to the parent's child time — so nested zones never double-count
// and the per-layer buckets sum to the covered portion of the op.
#ifndef SRC_COMMON_PROF_ZONE_H_
#define SRC_COMMON_PROF_ZONE_H_

#include <cstdint>
#include <string_view>

#include "src/common/exec_context.h"
#include "src/common/prof.h"
#include "src/common/sim_clock.h"

namespace common {

class ProfileZone {
 public:
  ProfileZone(ExecContext& ctx, ProfLayer layer) : ctx_(ctx), layer_(layer) {
    ZoneState& zones = ctx_.zones;
    if (zones.active && zones.depth < ZoneState::kMaxDepth) {
      zones.frames[zones.depth] = ZoneFrame{ctx_.clock.NowNs(), 0};
      zones.depth++;
      zones.path = (zones.path << 3) | (static_cast<uint32_t>(layer_) + 1);
      open_ = true;
    }
  }

  ProfileZone(const ProfileZone&) = delete;
  ProfileZone& operator=(const ProfileZone&) = delete;

  // Idempotent explicit close, for callers that must flush before other work
  // in a destructor runs (OpScope ends its root zone before flushing the op).
  void End() {
    if (!open_) {
      return;
    }
    open_ = false;
    ZoneState& zones = ctx_.zones;
    if (zones.depth <= 0) {
      return;  // stack was reset underneath us (context Reset mid-scope)
    }
    zones.depth--;
    const ZoneFrame& frame = zones.frames[zones.depth];
    const uint64_t span = ctx_.clock.NowNs() - frame.enter_ns;
    const uint64_t exclusive = span - (frame.child_ns < span ? frame.child_ns : span);
    zones.layer_ns[static_cast<size_t>(layer_)] += exclusive;
    if (ctx_.profiler != nullptr && span != 0) {
      ctx_.profiler->OnZoneExit(ctx_, zones.path, layer_, frame.enter_ns, exclusive);
    }
    zones.path >>= 3;
    if (zones.depth > 0) {
      zones.frames[zones.depth - 1].child_ns += span;
    }
  }

  ~ProfileZone() { End(); }

 private:
  ExecContext& ctx_;
  ProfLayer layer_;
  bool open_ = false;
};

// SharedResource acquisition that reports the modeled wait/hold to the
// attached profiler as a lock event on `site`. Bit-identical to calling
// resource.Acquire directly (same single Acquire on the same clock).
inline uint64_t ProfiledAcquire(ExecContext& ctx, SharedResource& resource,
                                std::string_view site, LockSiteRef& ref, uint64_t hold_ns) {
  const uint64_t waited = resource.Acquire(ctx.clock, hold_ns);
  if (ctx.profiler != nullptr) {
    ref.Record(ctx.profiler, ctx, site, waited, hold_ns);
  }
  return waited;
}

// ResourceClock (FIFO capacity-1 server) variant of the same.
inline uint64_t ProfiledAcquire(ExecContext& ctx, ResourceClock& resource,
                                std::string_view site, LockSiteRef& ref, uint64_t hold_ns) {
  const uint64_t waited = resource.Acquire(ctx.clock, hold_ns);
  if (ctx.profiler != nullptr) {
    ref.Record(ctx.profiler, ctx, site, waited, hold_ns);
  }
  return waited;
}

}  // namespace common

#endif  // SRC_COMMON_PROF_ZONE_H_
