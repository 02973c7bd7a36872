// Tunable sizes for the simulated MMU structures. Defaults approximate one
// core of the paper's test machine (Cascade Lake Xeon), scaled alongside the
// scaled-down PM partition sizes.
#ifndef SRC_VMEM_MMU_PARAMS_H_
#define SRC_VMEM_MMU_PARAMS_H_

#include <cstdint>

namespace vmem {

struct MmuParams {
  // L1 dTLB: split by page size, like Skylake-era cores.
  uint32_t l1_tlb_4k_entries = 64;
  uint32_t l1_tlb_2m_entries = 32;
  // Unified second-level TLB.
  uint32_t l2_tlb_entries = 1536;

  // Last-level cache (per-core slice scaled up for single-threaded runs).
  uint64_t llc_bytes = 8ull * 1024 * 1024;
  uint32_t llc_ways = 16;

  // Page-walk caches are folded into the LLC model: each walk level is one
  // 8-byte PTE read that goes through the LLC.
  uint32_t walk_levels_4k = 4;
  uint32_t walk_levels_2m = 3;

  // There is one simulator; its reference structures live under tests/ as
  // an oracle. Kept so code that asks which simulator it times still builds.
  static constexpr bool reference_sim = false;
};

}  // namespace vmem

#endif  // SRC_VMEM_MMU_PARAMS_H_
