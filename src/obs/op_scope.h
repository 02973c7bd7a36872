// obs::OpScope: the per-op boundary every filesystem syscall and mapped call
// opens. It roots the op's profile zones, flushes a sampled op's per-layer
// attribution into the attached obs::Profiler, and polls the gauge sampler.
#ifndef SRC_OBS_OP_SCOPE_H_
#define SRC_OBS_OP_SCOPE_H_

#include <string_view>

#include "src/common/exec_context.h"
#include "src/common/prof_zone.h"
#include "src/obs/gauges.h"

namespace obs {

// RAII scope around one op — a filesystem syscall or a mapped call
// (vmem::MappedFile). Every such op passes through here, so it gives the
// context's TimeSeriesSampler its sample-on-cross opportunity and the
// attached profiler its per-op attribution flush when the op completes. The
// root zone (fscore for syscalls, mmu for mapped calls) makes every sampled
// op fully covered: time not claimed by a nested journal / allocator / device
// / mmu zone lands in the root's bucket, and none is left over for the next
// op. No-op when no sink is attached.
class OpScope {
 public:
  OpScope(common::ExecContext& ctx, std::string_view op,
          common::ProfLayer root = common::ProfLayer::kFsCore)
      : ctx_(ctx), op_(op), zone_(ctx, root) {}

  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  ~OpScope() {
    // Order matters: close the root zone first so its exclusive time is in
    // the context's layer buckets, then let the profiler flush the op. The
    // tick itself is inline; the virtual flush fires only for sampled ops.
    zone_.End();
    if (ctx_.profiler != nullptr && ctx_.zones.Tick()) {
      ctx_.profiler->EndOp(ctx_, op_);
    }
    if (ctx_.sampler != nullptr) {
      ctx_.sampler->MaybeSample(ctx_);
    }
  }

 private:
  common::ExecContext& ctx_;
  std::string_view op_;
  common::ProfileZone zone_;
};

}  // namespace obs

#endif  // SRC_OBS_OP_SCOPE_H_
