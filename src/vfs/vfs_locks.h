// VFS-layer lock infrastructure (§3.4): shared per-inode locks that coordinate
// the per-CPU journals, plus the global namespace critical section that caps
// scalability beyond ~16 threads (§5.6).
#ifndef SRC_VFS_VFS_LOCKS_H_
#define SRC_VFS_VFS_LOCKS_H_

#include <array>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/prof_zone.h"
#include "src/common/sim_clock.h"
#include "src/common/sim_mutex.h"
#include "src/vfs/file_system.h"

namespace vfs {

// Hands out one SimMutex per inode. The table is striped by inode number so
// host worker threads resolving disjoint namespace shards do not serialize on
// one map mutex; each stripe's map is protected by its own spin lock and the
// returned locks live until the table is destroyed (unordered_map node
// stability keeps handed-out pointers valid across rehashes).
class InodeLockTable {
 public:
  common::SimMutex& LockFor(InodeNum ino) {
    Stripe& stripe = stripes_[ino % kStripes];
    std::lock_guard<common::SpinMutex> guard(stripe.mu);
    auto& slot = stripe.locks[ino];
    if (!slot) {
      slot = std::make_unique<common::SimMutex>("vfs.inode");
    }
    return *slot;
  }

  void Drop(InodeNum ino) {
    Stripe& stripe = stripes_[ino % kStripes];
    std::lock_guard<common::SpinMutex> guard(stripe.mu);
    stripe.locks.erase(ino);
  }

 private:
  static constexpr size_t kStripes = 16;
  struct alignas(64) Stripe {  // one cache line each: no false sharing
    common::SpinMutex mu;
    std::unordered_map<InodeNum, std::unique_ptr<common::SimMutex>> locks;
  };
  std::array<Stripe, kStripes> stripes_;
};

// Shared VFS bookkeeping every syscall passes through (dentry cache, fd
// bookkeeping, lock coordination). Modeled as a strict FIFO resource: total
// syscall throughput across all threads is capped at 1/kPerSyscallHoldNs —
// this is what makes every filesystem plateau past ~16 threads in Fig 10.
//
// The resource can be split into per-CPU lock domains (FsOptions::
// lock_domains) for host-parallel sharded runs: each simulated CPU then
// charges its own domain's window ledger, modeling a partitioned VFS front
// end (per-shard dentry/fd tables) instead of one global path. The default
// of one domain preserves the historical global-cap behavior bit-for-bit.
class VfsSharedPath {
 public:
  static constexpr uint64_t kPerSyscallHoldNs = 150;

  explicit VfsSharedPath(uint32_t domains = 1) {
    if (domains == 0) {
      domains = 1;
    }
    resources_.reserve(domains);
    for (uint32_t d = 0; d < domains; d++) {
      resources_.push_back(std::make_unique<common::SharedResource>("vfs-shared"));
    }
    site_refs_ = std::vector<common::LockSiteRef>(domains);
  }

  void Charge(common::ExecContext& ctx) {
    const uint32_t d = ctx.cpu % resources_.size();
    common::ProfiledAcquire(ctx, *resources_[d], "vfs.shared", site_refs_[d],
                            kPerSyscallHoldNs);
  }

  uint32_t domains() const { return static_cast<uint32_t>(resources_.size()); }

 private:
  std::vector<std::unique_ptr<common::SharedResource>> resources_;
  std::vector<common::LockSiteRef> site_refs_;
};

}  // namespace vfs

#endif  // SRC_VFS_VFS_LOCKS_H_
