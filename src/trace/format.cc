#include "src/trace/format.h"

#include <cstdio>
#include <cstring>
#include <fstream>

namespace trace {

using common::ErrorCode;
using common::Result;
using common::Status;

const char* TraceOpName(TraceOp op) {
  switch (op) {
    case TraceOp::kOpen: return "open";
    case TraceOp::kClose: return "close";
    case TraceOp::kPread: return "pread";
    case TraceOp::kPwrite: return "pwrite";
    case TraceOp::kAppend: return "append";
    case TraceOp::kFsync: return "fsync";
    case TraceOp::kStat: return "stat";
    case TraceOp::kReadDir: return "readdir";
    case TraceOp::kUnlink: return "unlink";
    case TraceOp::kMkdir: return "mkdir";
    case TraceOp::kRmdir: return "rmdir";
    case TraceOp::kRename: return "rename";
    case TraceOp::kFtruncate: return "ftruncate";
    case TraceOp::kFallocate: return "fallocate";
  }
  return "?";
}

uint32_t Trace::AddPath(const std::string& path) {
  for (size_t i = 0; i < paths.size(); i++) {
    if (paths[i] == path) {
      return static_cast<uint32_t>(i);
    }
  }
  paths.push_back(path);
  return static_cast<uint32_t>(paths.size() - 1);
}

uint32_t Trace::TenantCount() const {
  uint32_t max_tenant = 0;
  bool any = false;
  for (const TraceRecord& r : records) {
    max_tenant = std::max(max_tenant, r.tenant);
    any = true;
  }
  return any ? max_tenant + 1 : 0;
}

PathInterner::PathInterner(Trace* trace) : trace_(trace) {
  Rehash(64);
  for (uint32_t i = 0; i < trace_->paths.size(); i++) {
    // Seed the index with any pre-existing entries (parser resuming a trace).
    const std::string& p = trace_->paths[i];
    size_t slot = Fnv1a(reinterpret_cast<const uint8_t*>(p.data()), p.size()) & index_mask_;
    while (index_[slot] != kNoPath) {
      slot = (slot + 1) & index_mask_;
    }
    index_[slot] = i;
  }
}

void PathInterner::Rehash(size_t capacity) {
  index_.assign(capacity, kNoPath);
  index_mask_ = capacity - 1;
  for (uint32_t i = 0; i < trace_->paths.size(); i++) {
    const std::string& p = trace_->paths[i];
    size_t slot = Fnv1a(reinterpret_cast<const uint8_t*>(p.data()), p.size()) & index_mask_;
    while (index_[slot] != kNoPath) {
      slot = (slot + 1) & index_mask_;
    }
    index_[slot] = i;
  }
}

uint32_t PathInterner::Intern(const std::string& path) {
  size_t slot =
      Fnv1a(reinterpret_cast<const uint8_t*>(path.data()), path.size()) & index_mask_;
  while (index_[slot] != kNoPath) {
    if (trace_->paths[index_[slot]] == path) {
      return index_[slot];
    }
    slot = (slot + 1) & index_mask_;
  }
  const uint32_t id = static_cast<uint32_t>(trace_->paths.size());
  trace_->paths.push_back(path);
  index_[slot] = id;
  if (trace_->paths.size() * 2 > index_.size()) {
    Rehash(index_.size() * 2);
  }
  return id;
}

namespace {

constexpr char kMagic[8] = {'W', 'F', 'T', 'R', 'A', 'C', 'E', '1'};
constexpr size_t kRecordBytes = 32;

void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
}
void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; i++) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}
void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; i++) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

// Bounds-checked little-endian reader over the input buffer. A read past the
// end sets `truncated` (mapped to kIoError, mirroring snap's short-read
// classification) and returns zeros so decode can bail at the next check.
struct Reader {
  const uint8_t* data;
  size_t len;
  size_t pos = 0;
  bool truncated = false;

  bool Need(size_t n) {
    if (len - pos < n) {
      truncated = true;
      return false;
    }
    return true;
  }
  uint16_t U16() {
    if (!Need(2)) return 0;
    uint16_t v = static_cast<uint16_t>(data[pos] | (data[pos + 1] << 8));
    pos += 2;
    return v;
  }
  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; i++) {
      v |= static_cast<uint32_t>(data[pos + i]) << (8 * i);
    }
    pos += 4;
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; i++) {
      v |= static_cast<uint64_t>(data[pos + i]) << (8 * i);
    }
    pos += 8;
    return v;
  }
  uint8_t U8() {
    if (!Need(1)) return 0;
    return data[pos++];
  }
};

// Parses and validates the header; on success `r` is positioned at the start
// of the path table and `header_end` is the checksummed prefix length.
Status DecodeHeader(Reader& r, TraceInfo& info) {
  if (!r.Need(sizeof(kMagic))) {
    return Status(ErrorCode::kIoError);
  }
  if (std::memcmp(r.data, kMagic, sizeof(kMagic)) != 0) {
    return Status(ErrorCode::kCorrupt);
  }
  r.pos += sizeof(kMagic);
  info.format_version = r.U32();
  const uint32_t reserved = r.U32();
  info.tick_ns = r.U64();
  info.tenant_count = r.U32();
  info.path_count = r.U32();
  info.record_count = r.U64();
  const uint32_t provenance_len = r.U32();
  if (r.truncated || !r.Need(provenance_len)) {
    return Status(ErrorCode::kIoError);
  }
  info.provenance.assign(reinterpret_cast<const char*>(r.data + r.pos), provenance_len);
  r.pos += provenance_len;
  const size_t checksummed = r.pos;
  const uint64_t stored_csum = r.U64();
  if (r.truncated) {
    return Status(ErrorCode::kIoError);
  }
  if (Fnv1a(r.data, checksummed) != stored_csum) {
    return Status(ErrorCode::kCorrupt);
  }
  // Version is checked only after the checksum proves the header intact, so a
  // flipped version byte reads as corruption, not as a foreign format.
  if (info.format_version != kTraceFormatVersion) {
    return Status(ErrorCode::kNotSupported);
  }
  if (reserved != 0) {
    return Status(ErrorCode::kCorrupt);
  }
  return common::OkStatus();
}

}  // namespace

Result<std::vector<uint8_t>> EncodeTrace(const Trace& trace) {
  const uint32_t path_count = static_cast<uint32_t>(trace.paths.size());
  for (const TraceRecord& r : trace.records) {
    if (static_cast<uint8_t>(r.op) >= kNumTraceOps) {
      return ErrorCode::kInvalidArgument;
    }
    if (r.path_id != kNoPath && r.path_id >= path_count) {
      return ErrorCode::kInvalidArgument;
    }
    if (r.path2_id != kNoPath && r.path2_id >= path_count) {
      return ErrorCode::kInvalidArgument;
    }
    if (r.fd_slot < kNoSlot || r.fd_slot > kMaxSlot) {
      return ErrorCode::kInvalidArgument;
    }
  }

  std::vector<uint8_t> out;
  out.reserve(64 + trace.provenance.size() + trace.records.size() * kRecordBytes);
  out.insert(out.end(), kMagic, kMagic + sizeof(kMagic));
  PutU32(out, kTraceFormatVersion);
  PutU32(out, 0);  // reserved
  PutU64(out, trace.tick_ns);
  PutU32(out, trace.TenantCount());
  PutU32(out, path_count);
  PutU64(out, trace.records.size());
  PutU32(out, static_cast<uint32_t>(trace.provenance.size()));
  out.insert(out.end(), trace.provenance.begin(), trace.provenance.end());
  PutU64(out, Fnv1a(out.data(), out.size()));

  const size_t paths_begin = out.size();
  for (const std::string& path : trace.paths) {
    PutU32(out, static_cast<uint32_t>(path.size()));
    out.insert(out.end(), path.begin(), path.end());
  }
  PutU64(out, Fnv1a(out.data() + paths_begin, out.size() - paths_begin));

  const size_t records_begin = out.size();
  for (const TraceRecord& r : trace.records) {
    out.push_back(static_cast<uint8_t>(r.op));
    out.push_back(r.open_flags);
    PutU16(out, static_cast<uint16_t>(static_cast<int16_t>(r.fd_slot)));
    PutU32(out, r.tenant);
    PutU32(out, r.path_id);
    PutU32(out, r.path2_id);
    PutU64(out, r.offset);
    PutU32(out, r.size);
    PutU32(out, r.think_ticks);
  }
  PutU64(out, Fnv1a(out.data() + records_begin, out.size() - records_begin));
  return out;
}

Result<Trace> DecodeTrace(const uint8_t* data, size_t len) {
  Reader r{data, len};
  TraceInfo info;
  RETURN_IF_ERROR(DecodeHeader(r, info));

  Trace trace;
  trace.tick_ns = info.tick_ns;
  trace.provenance = info.provenance;

  const size_t paths_begin = r.pos;
  trace.paths.reserve(info.path_count);
  for (uint32_t i = 0; i < info.path_count; i++) {
    const uint32_t plen = r.U32();
    if (r.truncated || !r.Need(plen)) {
      return ErrorCode::kIoError;
    }
    trace.paths.emplace_back(reinterpret_cast<const char*>(r.data + r.pos), plen);
    r.pos += plen;
  }
  const size_t paths_end = r.pos;
  const uint64_t paths_csum = r.U64();
  if (r.truncated) {
    return ErrorCode::kIoError;
  }
  if (Fnv1a(r.data + paths_begin, paths_end - paths_begin) != paths_csum) {
    return ErrorCode::kCorrupt;
  }

  const size_t records_begin = r.pos;
  // Overflow-safe sizing: the header checksum already vouches for
  // record_count, but never multiply an untrusted u64 unchecked.
  if (info.record_count > (r.len - r.pos) / kRecordBytes ||
      !r.Need(info.record_count * kRecordBytes + 8)) {
    return ErrorCode::kIoError;
  }
  const uint64_t records_csum_stored = [&] {
    Reader tail = r;
    tail.pos = records_begin + info.record_count * kRecordBytes;
    return tail.U64();
  }();
  if (Fnv1a(r.data + records_begin, info.record_count * kRecordBytes) !=
      records_csum_stored) {
    return ErrorCode::kCorrupt;
  }
  trace.records.reserve(info.record_count);
  for (uint64_t i = 0; i < info.record_count; i++) {
    TraceRecord rec;
    const uint8_t op = r.U8();
    if (op >= kNumTraceOps) {
      return ErrorCode::kCorrupt;
    }
    rec.op = static_cast<TraceOp>(op);
    rec.open_flags = r.U8();
    rec.fd_slot = static_cast<int16_t>(r.U16());
    rec.tenant = r.U32();
    rec.path_id = r.U32();
    rec.path2_id = r.U32();
    rec.offset = r.U64();
    rec.size = r.U32();
    rec.think_ticks = r.U32();
    if (rec.fd_slot < kNoSlot ||
        (rec.path_id != kNoPath && rec.path_id >= info.path_count) ||
        (rec.path2_id != kNoPath && rec.path2_id >= info.path_count) ||
        rec.tenant >= info.tenant_count) {
      return ErrorCode::kCorrupt;
    }
    trace.records.push_back(rec);
  }
  r.pos += 8;  // records checksum, already verified
  return trace;
}

Status SaveTrace(const std::string& path, const Trace& trace) {
  auto bytes = EncodeTrace(trace);
  if (!bytes.ok()) {
    return bytes.status();
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status(ErrorCode::kIoError);
    }
    out.write(reinterpret_cast<const char*>(bytes->data()),
              static_cast<std::streamsize>(bytes->size()));
    out.close();
    if (!out) {
      std::remove(tmp.c_str());
      return Status(ErrorCode::kIoError);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status(ErrorCode::kIoError);
  }
  return common::OkStatus();
}

namespace {

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path, size_t limit) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return ErrorCode::kIoError;
  }
  std::vector<uint8_t> bytes;
  bytes.reserve(4096);
  char chunk[4096];
  while (bytes.size() < limit && in) {
    in.read(chunk, sizeof(chunk));
    bytes.insert(bytes.end(), chunk, chunk + in.gcount());
  }
  if (in.bad()) {
    return ErrorCode::kIoError;
  }
  return bytes;
}

}  // namespace

Result<Trace> LoadTrace(const std::string& path) {
  auto bytes = ReadFileBytes(path, SIZE_MAX);
  if (!bytes.ok()) {
    return bytes.status();
  }
  return DecodeTrace(bytes->data(), bytes->size());
}

Result<TraceInfo> ReadTraceInfo(const std::string& path) {
  // Header = fixed fields + provenance + checksum; 64 KiB covers any sane
  // provenance string. A file shorter than its header is caught as kIoError.
  auto bytes = ReadFileBytes(path, 64 * 1024);
  if (!bytes.ok()) {
    return bytes.status();
  }
  Reader r{bytes->data(), bytes->size()};
  TraceInfo info;
  RETURN_IF_ERROR(DecodeHeader(r, info));
  return info;
}

TraceStats ComputeStats(const Trace& trace) {
  TraceStats stats;
  stats.total_records = trace.records.size();
  stats.tenants = trace.TenantCount();
  for (const TraceRecord& r : trace.records) {
    stats.ops_by_kind[static_cast<uint8_t>(r.op)]++;
    if (r.think_ticks > 0) {
      stats.bursts++;
      stats.think_ticks += r.think_ticks;
    }
    if (r.op == TraceOp::kPread) {
      stats.read_bytes += r.size;
    } else if (r.op == TraceOp::kPwrite || r.op == TraceOp::kAppend) {
      stats.write_bytes += r.size;
    }
  }
  return stats;
}

}  // namespace trace
