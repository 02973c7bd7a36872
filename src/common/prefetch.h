// Host cache hint for software-pipelined simulator loops.
//
// GCC 12 at -O2/-O3 was seen to delete __builtin_prefetch hints issued
// through small const helpers; an asm volatile prefetcht0 is never removed.
// Check the object code (objdump -d) after touching a caller.
#ifndef SRC_COMMON_PREFETCH_H_
#define SRC_COMMON_PREFETCH_H_

namespace common {

// Asks the host to bring the cacheline holding `p` into every cache level.
// A hint only: it never faults, never blocks and changes no program state.
inline void PrefetchLine(const void* p) {
#if defined(__x86_64__) || defined(__i386__)
  asm volatile("prefetcht0 %0" : : "m"(*static_cast<const char*>(p)));
#else
  __builtin_prefetch(p, 0, 3);
#endif
}

}  // namespace common

#endif  // SRC_COMMON_PREFETCH_H_
