// On-disk device-image format for PmemDevice snapshots.
//
// Layout: a fixed header (magic, format version, image kind, device geometry,
// cost-model parameters, provenance string, FNV-1a header checksum) followed
// by one record per non-zero kSnapChunkBytes chunk: {chunk index, FNV-1a of
// the index's 8 bytes then the payload, payload}. All-zero chunks are
// skipped, so an aged image of a mostly-empty device stays small. Everything is little-endian (the
// simulator only targets LE hosts; ReadImageInfo rejects foreign images via
// the magic). Bumping kSnapFormatVersion invalidates every existing image —
// do it whenever the header schema, chunk size, or CostModel field set
// changes.
#ifndef SRC_SNAP_IMAGE_H_
#define SRC_SNAP_IMAGE_H_

#include <cstdint>
#include <string>

#include "src/common/fnv1a.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/pmem/device.h"

namespace fscore {
struct FsckReport;
}  // namespace fscore

namespace snap {

// Bump on any incompatible change to the header schema, chunk encoding,
// kSnapChunkBytes, or the serialized CostModel field set.
// Version 2 folds each chunk record's index into its checksum.
inline constexpr uint32_t kSnapFormatVersion = 2;

enum class ImageKind : uint32_t {
  // A consistent (unmounted) filesystem image; fsck-able before use.
  kFilesystem = 0,
  // A torn post-crash state archived by crashmk; only consistent after the
  // filesystem's own mount-time recovery runs, so loaders skip fsck.
  kCrashState = 1,
};

// Header metadata of an image file (everything except the chunk payloads).
struct ImageInfo {
  uint32_t format_version = 0;
  ImageKind kind = ImageKind::kFilesystem;
  uint64_t device_bytes = 0;
  uint32_t numa_nodes = 1;
  uint64_t stored_chunks = 0;  // non-zero chunks actually present in the file
  std::string provenance;      // corpus key string (see snap::ImageKey)
  pmem::CostModel model;
};

struct LoadedImage {
  pmem::DeviceSnapshot snapshot;
  ImageInfo info;
};

// FNV-1a over a byte range (the checksum used for chunks and the header).
using common::Fnv1a;

// Content hash of a full device snapshot (determinism audits; snapctl list).
uint64_t ContentHash(const pmem::DeviceSnapshot& snap);

// Writes `snap` to `path` atomically (tmp file + rename), storing every
// chunk its zero map does not mark all zero. Overwrites any existing image.
// kIoError on filesystem failures.
common::Status SaveImage(const std::string& path, const pmem::DeviceSnapshot& snap,
                         ImageKind kind, const std::string& provenance);

// Loads a full image, with the snapshot's zero map taken from the stored
// chunk list. Typed failures: kIoError (unreadable / short read), kCorrupt
// (bad magic, header or chunk checksum mismatch, out-of-range chunk),
// kNotSupported (format version != kSnapFormatVersion); with several, the
// first in file order. Never returns a partially-filled snapshot.
common::Result<LoadedImage> LoadImage(const std::string& path);

// LoadImage plus, for a kFilesystem image, fsck (fscore::CheckImage) over the
// loaded bytes in place: a device adopts them, the check runs, and the
// device's Snapshot() hands them back. A failed check is kCorrupt. `fsck`,
// when given, receives the check's report.
common::Result<LoadedImage> LoadCheckedImage(const std::string& path,
                                             fscore::FsckReport* fsck = nullptr);

// Header-only probe (cheap; used by snapctl list/gc and corpus key checks).
common::Result<ImageInfo> ReadImageInfo(const std::string& path);

// The format version an image declares, from the magic and version fields
// alone, so an image of another version can still be named by its version.
// kIoError if unreadable, kCorrupt on a foreign magic.
common::Result<uint32_t> ReadFormatVersion(const std::string& path);

}  // namespace snap

#endif  // SRC_SNAP_IMAGE_H_
