// Compact binary trace format v1 for the trace-replay front end.
//
// A trace is a sequence of 32-byte records — op, tenant id, path-id into a
// shared string table, a tenant-scoped virtual descriptor slot, offset, size,
// and think-time ticks — plus the string table itself and a checksummed
// header carrying provenance and the tick duration. The on-disk layout
// mirrors the `src/snap` image-format conventions: little-endian only, an
// FNV-1a checksummed header, per-section body checksums, and typed rejection
// (kIoError for truncation/short reads, kCorrupt for magic/checksum/range
// damage, kNotSupported for a foreign format version). Bumping
// kTraceFormatVersion invalidates every existing trace file — do it whenever
// the record layout, header schema, or string-table encoding changes.
//
// Records carry NO payload bytes: replay synthesizes deterministic fill for
// writes, so a multi-GB workload encodes in a few hundred KB. fd slots are
// virtual per-tenant descriptor indexes assigned by the generator; the
// replayer maps slot -> live fd per tenant (and to intra-batch FdRef chains
// when the open rides in the same lowered window).
#ifndef SRC_TRACE_FORMAT_H_
#define SRC_TRACE_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/fnv1a.h"
#include "src/common/result.h"
#include "src/common/status.h"

namespace trace {

// Bump on any incompatible change to the header schema, the 32-byte record
// layout, or the string-table encoding.
inline constexpr uint32_t kTraceFormatVersion = 1;

// Mirrors vfs::OpKind one to one (kept separate so the wire format never
// drifts silently when the VFS enum is reordered; the replayer translates).
enum class TraceOp : uint8_t {
  kOpen = 0,
  kClose,
  kPread,
  kPwrite,
  kAppend,
  kFsync,
  kStat,
  kReadDir,
  kUnlink,
  kMkdir,
  kRmdir,
  kRename,
  kFtruncate,
  kFallocate,
};
inline constexpr uint8_t kNumTraceOps = 14;

const char* TraceOpName(TraceOp op);

// Sentinel for records without a path / without a descriptor slot.
inline constexpr uint32_t kNoPath = 0xffffffffu;
inline constexpr int32_t kNoSlot = -1;
// fd slots are serialized as int16 on the wire.
inline constexpr int32_t kMaxSlot = 32767;

// One trace record (32 bytes on the wire, little-endian):
//   op u8 | open_flags u8 | fd_slot i16 | tenant u32 | path_id u32 |
//   path2_id u32 | offset u64 | size u32 | think_ticks u32
struct TraceRecord {
  TraceOp op = TraceOp::kStat;
  // vfs::OpenFlags bits; meaningful for kOpen only.
  uint8_t open_flags = 0;
  // Tenant-scoped virtual descriptor slot: kOpen assigns it, fd-based ops
  // reference it, kClose releases it. kNoSlot for pure path ops.
  int32_t fd_slot = kNoSlot;
  uint32_t tenant = 0;
  // String-table index of the path operand (rename source); kNoPath for
  // fd-only ops.
  uint32_t path_id = kNoPath;
  // Rename destination; kNoPath otherwise.
  uint32_t path2_id = kNoPath;
  // pread/pwrite/fallocate offset; ftruncate size.
  uint64_t offset = 0;
  // I/O byte count (pread/pwrite/append/fallocate length).
  uint32_t size = 0;
  // Simulated idle time before this op, in ticks of Trace::tick_ns. A nonzero
  // value marks the start of a new request burst for the replayer's
  // window-cutting and per-request latency accounting.
  uint32_t think_ticks = 0;

  bool operator==(const TraceRecord&) const = default;
};

// In-memory trace: header fields + string table + records. The string table
// is expected in first-reference order with no unused entries (the generators
// and the DSL parser both guarantee it); Encode validates referential
// integrity, not ordering.
struct Trace {
  uint64_t tick_ns = 1000;  // one think tick, simulated ns
  std::string provenance;   // generator key / origin, stored in the header
  std::vector<std::string> paths;
  std::vector<TraceRecord> records;

  // Interns `path`, returning its table index (linear scan from the back is
  // wrong for big tables — callers that build large traces use PathInterner).
  uint32_t AddPath(const std::string& path);
  // Max tenant id + 1 over all records (0 for an empty trace).
  uint32_t TenantCount() const;

  bool operator==(const Trace&) const = default;
};

// Hash-indexed interning helper for trace builders (generator, DSL parser).
// Keeps Trace itself a plain value type.
class PathInterner {
 public:
  explicit PathInterner(Trace* trace);
  uint32_t Intern(const std::string& path);

 private:
  Trace* trace_;
  // Open-addressed index over trace_->paths (FNV-1a probe); rebuilt on growth.
  std::vector<uint32_t> index_;
  size_t index_mask_ = 0;
  void Rehash(size_t capacity);
};

// Header metadata of a trace file (everything except paths + records).
struct TraceInfo {
  uint32_t format_version = 0;
  uint64_t tick_ns = 0;
  uint32_t tenant_count = 0;
  uint32_t path_count = 0;
  uint64_t record_count = 0;
  std::string provenance;
};

// Serializes to the on-disk byte layout. kInvalidArgument on malformed input:
// an out-of-range path/tenant/slot reference or an op outside the enum.
common::Result<std::vector<uint8_t>> EncodeTrace(const Trace& trace);

// Decodes a full trace. Typed failures mirror src/snap: kIoError (truncated /
// short buffer), kCorrupt (bad magic, checksum mismatch, out-of-range record
// fields), kNotSupported (format version != kTraceFormatVersion).
common::Result<Trace> DecodeTrace(const uint8_t* data, size_t len);

// File wrappers. SaveTrace writes atomically (tmp file + rename) like
// snap::SaveImage; LoadTrace adds kIoError for an unreadable file.
common::Status SaveTrace(const std::string& path, const Trace& trace);
common::Result<Trace> LoadTrace(const std::string& path);

// Header-only probe (cheap; used by tracectl info and the scenario cache).
common::Result<TraceInfo> ReadTraceInfo(const std::string& path);

// Aggregate stats for tables (tracectl info/gen, scenario banners).
struct TraceStats {
  uint64_t ops_by_kind[kNumTraceOps] = {};
  uint64_t total_records = 0;
  uint64_t bursts = 0;           // records with think_ticks > 0
  uint64_t think_ticks = 0;      // total idle ticks
  uint64_t read_bytes = 0;       // pread sizes
  uint64_t write_bytes = 0;      // pwrite + append sizes
  uint32_t tenants = 0;
};
TraceStats ComputeStats(const Trace& trace);

// FNV-1a over a byte range, shared with snapshot images.
using common::Fnv1a;

}  // namespace trace

#endif  // SRC_TRACE_FORMAT_H_
