#include "src/snap/image.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "src/fs/fscore/fsck.h"

namespace snap {
namespace {

using common::ErrorCode;
using common::kFnvPrime;
using common::Status;

// "SNAPIMG1" read as a little-endian uint64.
constexpr uint64_t kMagic = 0x31474d4950414e53ull;

// CostModel is serialized as an explicit field count + values so a count
// mismatch (model gained/lost a field without a version bump) is caught as
// corruption instead of silently misaligning the rest of the header.
constexpr uint32_t kCostFields = 14;

void CostToFields(const pmem::CostModel& m, uint64_t out[kCostFields]) {
  const uint64_t fields[kCostFields] = {
      m.pm_load_random_ns, m.pm_load_seq_ns,  m.pm_store_ns,
      m.pm_store_seq_ns,   m.clwb_ns,         m.sfence_ns,
      m.dram_load_ns,      m.llc_hit_ns,      m.fault_base_ns,
      m.fault_huge_extra_ns, m.zero_4k_ns,    m.tlb_walk_level_ns,
      m.syscall_trap_ns,   m.vfs_path_component_ns};
  std::memcpy(out, fields, sizeof(fields));
}

pmem::CostModel CostFromFields(const uint64_t f[kCostFields]) {
  pmem::CostModel m;
  m.pm_load_random_ns = f[0];
  m.pm_load_seq_ns = f[1];
  m.pm_store_ns = f[2];
  m.pm_store_seq_ns = f[3];
  m.clwb_ns = f[4];
  m.sfence_ns = f[5];
  m.dram_load_ns = f[6];
  m.llc_hit_ns = f[7];
  m.fault_base_ns = f[8];
  m.fault_huge_extra_ns = f[9];
  m.zero_4k_ns = f[10];
  m.tlb_walk_level_ns = f[11];
  m.syscall_trap_ns = f[12];
  m.vfs_path_component_ns = f[13];
  return m;
}

class Writer {
 public:
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void Raw(const void* data, uint64_t len) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }
  const std::vector<uint8_t>& buf() const { return buf_; }

 private:
  std::vector<uint8_t> buf_;
};

// Reads header fields and chunk records straight from the file, so a load
// never holds more than the image buffer itself.
class Reader {
 public:
  explicit Reader(std::FILE* f) : f_(f) {}

  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool Raw(void* out, uint64_t len) { return std::fread(out, 1, len, f_) == len; }

 private:
  std::FILE* f_;
};

// Chunk checksums are computed kLanes chunks per pass.
constexpr size_t kLanes = 4;

// One chunk of an image buffer: its payload and the checksum stored or to be
// stored for it.
struct ChunkRef {
  uint64_t index = 0;
  const uint8_t* data = nullptr;
  uint64_t len = 0;
  uint64_t csum = 0;
};

// Checksums of chunks[0..n), n <= kLanes, in one pass: out[k] is the FNV-1a
// of chunks[k]'s 8-byte index followed by its payload, so a record whose
// index was damaged fails its checksum like one whose payload was. The
// lanes' multiply chains are independent, so they overlap instead of each
// byte waiting out the previous byte's multiply. Lanes past n hash chunk 0
// again.
void ChunkSums(const ChunkRef* chunks, size_t n, uint64_t out[kLanes]) {
  const uint8_t* p[kLanes];
  uint64_t len[kLanes];
  uint64_t h[kLanes];
  for (size_t k = 0; k < kLanes; k++) {
    const ChunkRef& chunk = chunks[k < n ? k : 0];
    p[k] = chunk.data;
    len[k] = chunk.len;
    h[k] = Fnv1a(reinterpret_cast<const uint8_t*>(&chunk.index), sizeof(chunk.index));
  }
  const uint64_t common = std::min({len[0], len[1], len[2], len[3]});
  for (uint64_t i = 0; i < common; i++) {
    h[0] = (h[0] ^ p[0][i]) * kFnvPrime;
    h[1] = (h[1] ^ p[1][i]) * kFnvPrime;
    h[2] = (h[2] ^ p[2][i]) * kFnvPrime;
    h[3] = (h[3] ^ p[3][i]) * kFnvPrime;
  }
  for (size_t k = 0; k < kLanes; k++) {
    out[k] = Fnv1a(p[k] + common, len[k] - common, h[k]);
  }
}

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) {
      std::fclose(f);
    }
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

// Serializes the header (without its trailing checksum).
std::vector<uint8_t> BuildHeader(const ImageInfo& info) {
  Writer w;
  w.U64(kMagic);
  w.U32(info.format_version);
  w.U32(static_cast<uint32_t>(info.kind));
  w.U64(info.device_bytes);
  w.U64(pmem::kSnapChunkBytes);
  w.U32(info.numa_nodes);
  w.U64(info.stored_chunks);
  w.U32(kCostFields);
  uint64_t cost[kCostFields];
  CostToFields(info.model, cost);
  for (uint32_t i = 0; i < kCostFields; i++) {
    w.U64(cost[i]);
  }
  w.U32(static_cast<uint32_t>(info.provenance.size()));
  w.Raw(info.provenance.data(), info.provenance.size());
  return w.buf();
}

// Reads and validates the header; on success positions `r` at the first
// chunk record.
Status ParseHeader(Reader& r, ImageInfo* info) {
  uint64_t magic = 0;
  if (!r.U64(&magic)) {
    return Status(ErrorCode::kIoError);
  }
  if (magic != kMagic) {
    return Status(ErrorCode::kCorrupt);
  }
  uint32_t kind_raw = 0;
  uint64_t chunk_bytes = 0;
  uint32_t cost_fields = 0;
  if (!r.U32(&info->format_version) || !r.U32(&kind_raw) || !r.U64(&info->device_bytes) ||
      !r.U64(&chunk_bytes) || !r.U32(&info->numa_nodes) || !r.U64(&info->stored_chunks)) {
    return Status(ErrorCode::kIoError);
  }
  if (info->format_version != kSnapFormatVersion) {
    return Status(ErrorCode::kNotSupported);
  }
  if (kind_raw > static_cast<uint32_t>(ImageKind::kCrashState) ||
      chunk_bytes != pmem::kSnapChunkBytes) {
    return Status(ErrorCode::kCorrupt);
  }
  info->kind = static_cast<ImageKind>(kind_raw);
  if (!r.U32(&cost_fields)) {
    return Status(ErrorCode::kIoError);
  }
  if (cost_fields != kCostFields) {
    return Status(ErrorCode::kCorrupt);
  }
  uint64_t cost[kCostFields];
  for (uint32_t i = 0; i < kCostFields; i++) {
    if (!r.U64(&cost[i])) {
      return Status(ErrorCode::kIoError);
    }
  }
  info->model = CostFromFields(cost);
  uint32_t prov_len = 0;
  if (!r.U32(&prov_len)) {
    return Status(ErrorCode::kIoError);
  }
  if (prov_len > 64 * 1024) {  // sanity bound: provenance keys are short
    return Status(ErrorCode::kCorrupt);
  }
  info->provenance.resize(prov_len);
  if (!r.Raw(info->provenance.data(), prov_len)) {
    return Status(ErrorCode::kIoError);
  }
  uint64_t stored_csum = 0;
  if (!r.U64(&stored_csum)) {
    return Status(ErrorCode::kIoError);
  }
  // Re-serialize what we parsed and compare checksums; this also catches any
  // header field the parser accepted but a bit flip altered.
  const std::vector<uint8_t> rebuilt = BuildHeader(*info);
  if (Fnv1a(rebuilt.data(), rebuilt.size()) != stored_csum) {
    return Status(ErrorCode::kCorrupt);
  }
  return common::OkStatus();
}

}  // namespace

uint64_t ContentHash(const pmem::DeviceSnapshot& snap) {
  if (!snap.valid()) {
    return 0;
  }
  return Fnv1a(snap.bytes->data(), snap.bytes->size());
}

common::Status SaveImage(const std::string& path, const pmem::DeviceSnapshot& snap,
                         ImageKind kind, const std::string& provenance) {
  if (!snap.valid()) {
    return Status(ErrorCode::kInvalidArgument);
  }
  const std::vector<uint8_t>& bytes = *snap.bytes;

  ImageInfo info;
  info.format_version = kSnapFormatVersion;
  info.kind = kind;
  info.device_bytes = bytes.size();
  info.numa_nodes = snap.numa_nodes;
  info.model = snap.model;
  info.provenance = provenance;
  // The snapshot's zero map names the chunks to store; the header needs
  // their count up front.
  std::vector<ChunkRef> stored;
  for (uint64_t c = 0; c < pmem::ChunkCount(bytes.size()); c++) {
    if (!snap.ChunkIsZero(c)) {
      const uint64_t off = c * pmem::kSnapChunkBytes;
      stored.push_back(ChunkRef{c, bytes.data() + off,
                                std::min<uint64_t>(pmem::kSnapChunkBytes, bytes.size() - off)});
    }
  }
  info.stored_chunks = stored.size();

  const std::string tmp = path + ".tmp";
  FilePtr f(std::fopen(tmp.c_str(), "wb"));
  if (f == nullptr) {
    return Status(ErrorCode::kIoError);
  }
  const std::vector<uint8_t> header = BuildHeader(info);
  const uint64_t header_csum = Fnv1a(header.data(), header.size());
  if (std::fwrite(header.data(), 1, header.size(), f.get()) != header.size() ||
      std::fwrite(&header_csum, 1, sizeof(header_csum), f.get()) != sizeof(header_csum)) {
    std::remove(tmp.c_str());
    return Status(ErrorCode::kIoError);
  }
  for (size_t first = 0; first < stored.size(); first += kLanes) {
    const size_t n = std::min(kLanes, stored.size() - first);
    uint64_t csums[kLanes];
    ChunkSums(&stored[first], n, csums);
    for (size_t k = 0; k < n; k++) {
      const ChunkRef& chunk = stored[first + k];
      if (std::fwrite(&chunk.index, 1, sizeof(chunk.index), f.get()) != sizeof(chunk.index) ||
          std::fwrite(&csums[k], 1, sizeof(csums[k]), f.get()) != sizeof(csums[k]) ||
          std::fwrite(chunk.data, 1, chunk.len, f.get()) != chunk.len) {
        std::remove(tmp.c_str());
        return Status(ErrorCode::kIoError);
      }
    }
  }
  if (std::fflush(f.get()) != 0) {
    std::remove(tmp.c_str());
    return Status(ErrorCode::kIoError);
  }
  f.reset();
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status(ErrorCode::kIoError);
  }
  return common::OkStatus();
}

namespace {

// Reads the image at `path` into `out` (all but the snapshot's bytes) and
// into `*bytes`, which the caller owns. The zero map marks every chunk
// without a record. Records are read kLanes at a time and checksummed in one
// pass; a record that cannot be read ends its group early, and the records
// read before it are verified first, so the error reported is always the
// first one in file order.
Status ReadImage(const std::string& path, LoadedImage* out, std::vector<uint8_t>* bytes) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return Status(ErrorCode::kIoError);
  }
  Reader r(f.get());
  ImageInfo* info = &out->info;
  RETURN_IF_ERROR(ParseHeader(r, info));
  out->snapshot.model = info->model;
  out->snapshot.numa_nodes = info->numa_nodes;
  std::vector<bool>* zero_chunks = &out->snapshot.zero_chunks;

  const uint64_t total_chunks = pmem::ChunkCount(info->device_bytes);
  bytes->assign(info->device_bytes, 0);
  zero_chunks->assign(total_chunks, true);
  ChunkRef group[kLanes];
  size_t pending = 0;
  // Verifies and empties the group; false on a checksum mismatch.
  auto verify = [&]() {
    uint64_t csums[kLanes];
    ChunkSums(group, pending, csums);
    for (size_t k = 0; k < pending; k++) {
      if (csums[k] != group[k].csum) {
        return false;
      }
    }
    pending = 0;
    return true;
  };
  for (uint64_t i = 0; i < info->stored_chunks; i++) {
    uint64_t index = 0;
    uint64_t csum = 0;
    Status error;
    if (!r.U64(&index) || !r.U64(&csum)) {
      error = Status(ErrorCode::kIoError);  // truncated chunk table
    } else if (index >= total_chunks) {
      error = Status(ErrorCode::kCorrupt);
    } else {
      // A chunk stored twice must not overwrite a payload not yet verified.
      const bool repeat = std::any_of(group, group + pending,
                                      [&](const ChunkRef& c) { return c.index == index; });
      if (repeat && !verify()) {
        return Status(ErrorCode::kCorrupt);
      }
      const uint64_t off = index * pmem::kSnapChunkBytes;
      ChunkRef& chunk = group[pending];
      chunk = ChunkRef{index, bytes->data() + off,
                       std::min<uint64_t>(pmem::kSnapChunkBytes, info->device_bytes - off), csum};
      if (!r.Raw(bytes->data() + off, chunk.len)) {
        error = Status(ErrorCode::kIoError);  // short read of chunk payload
      }
    }
    if (!error.ok()) {
      return verify() ? error : Status(ErrorCode::kCorrupt);
    }
    (*zero_chunks)[index] = false;
    if (++pending == kLanes && !verify()) {
      return Status(ErrorCode::kCorrupt);
    }
  }
  return verify() ? common::OkStatus() : Status(ErrorCode::kCorrupt);
}

}  // namespace

common::Result<LoadedImage> LoadImage(const std::string& path) {
  LoadedImage out;
  std::vector<uint8_t> bytes;
  RETURN_IF_ERROR(ReadImage(path, &out, &bytes));
  out.snapshot.bytes = std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
  return out;
}

common::Result<LoadedImage> LoadCheckedImage(const std::string& path,
                                             fscore::FsckReport* fsck) {
  LoadedImage out;
  std::vector<uint8_t> bytes;
  RETURN_IF_ERROR(ReadImage(path, &out, &bytes));
  if (out.info.kind != ImageKind::kFilesystem) {
    out.snapshot.bytes = std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
    return out;
  }
  // fsck in place: a device adopts the loaded bytes, and Snapshot() hands
  // them back, so no second device-sized buffer is filled.
  pmem::PmemDevice device(std::move(bytes), out.info.model, out.info.numa_nodes);
  const fscore::FsckReport report = fscore::CheckImage(device);
  if (fsck != nullptr) {
    *fsck = report;
  }
  if (!report.ok()) {
    return Status(ErrorCode::kCorrupt);
  }
  out.snapshot = device.Snapshot();
  return out;
}

common::Result<ImageInfo> ReadImageInfo(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return Status(ErrorCode::kIoError);
  }
  Reader r(f.get());
  ImageInfo info;
  RETURN_IF_ERROR(ParseHeader(r, &info));
  return info;
}

common::Result<uint32_t> ReadFormatVersion(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  Reader r(f.get());
  uint64_t magic = 0;
  uint32_t version = 0;
  if (f == nullptr || !r.U64(&magic) || !r.U32(&version)) {
    return Status(ErrorCode::kIoError);
  }
  if (magic != kMagic) {
    return Status(ErrorCode::kCorrupt);
  }
  return version;
}

}  // namespace snap
