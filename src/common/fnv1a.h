// FNV-1a over a byte range: the one checksum behind undo-journal entries,
// snapshot images, trace files and crash-oracle state hashes.
#ifndef SRC_COMMON_FNV1A_H_
#define SRC_COMMON_FNV1A_H_

#include <cstdint>

namespace common {

inline constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

// Hashes `len` bytes at `data`, continuing from `hash` (pass a previous
// result to hash several ranges as one).
inline uint64_t Fnv1a(const void* data, uint64_t len, uint64_t hash = kFnvOffsetBasis) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  for (uint64_t i = 0; i < len; i++) {
    hash = (hash ^ bytes[i]) * kFnvPrime;
  }
  return hash;
}

}  // namespace common

#endif  // SRC_COMMON_FNV1A_H_
