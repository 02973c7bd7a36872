// Corpus management CLI for the device-image snapshot subsystem (src/snap).
//
//   snapctl list   [dir]                 table of images: kind, size, device,
//                                        numa, chunks, provenance
//   snapctl verify [dir]                 full validation of every image:
//                                        header + chunk checksums, and fsck
//                                        over the loaded bytes for filesystem
//                                        images; non-zero exit if anything
//                                        fails. Images of another format
//                                        version are listed as stale (for gc)
//                                        and do not fail
//   snapctl gc     [dir]                 delete stale-format and corrupt
//                                        images (what a version bump leaves
//                                        behind)
//   snapctl build  [dir]                 populate the corpus with the standard
//                                        aged image set (fig07's lineup at 70%
//                                        utilization) — a warm-up shortcut;
//                                        benches build anything else they miss
//   snapctl replay <image.snap>          re-judge an archived crash state: the
//                                        provenance string encodes the fs and
//                                        campaign geometry, so the factory is
//                                        rebuilt from the file alone, the torn
//                                        image COW-forked and mounted, and the
//                                        recovered state hash compared against
//                                        the one the original verdict recorded
//
// `dir` defaults to $WINEFS_SNAP_DIR.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "src/aging/geriatrix.h"
#include "src/crashmk/campaign.h"
#include "src/crashmk/oracle.h"
#include "src/fs/fscore/fsck.h"
#include "src/fs/registry.h"
#include "src/snap/corpus.h"
#include "src/snap/image.h"

namespace {

namespace fs = std::filesystem;

std::vector<std::string> ImagePaths(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".snap") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

const char* KindName(snap::ImageKind kind) {
  return kind == snap::ImageKind::kFilesystem ? "fs" : "crash";
}

int List(const std::string& dir) {
  const auto paths = ImagePaths(dir);
  std::printf("%-44s %-6s %8s %9s %5s %7s  %s\n", "image", "kind", "size_kb", "device_mb",
              "numa", "chunks", "provenance");
  for (const std::string& path : paths) {
    std::error_code ec;
    const uint64_t size = fs::file_size(path, ec);
    auto info = snap::ReadImageInfo(path);
    const std::string name = fs::path(path).filename().string();
    if (!info.ok()) {
      std::printf("%-44s %-6s %8llu %9s %5s %7s  <%s>\n", name.c_str(), "?",
                  static_cast<unsigned long long>(size / 1024), "-", "-", "-",
                  std::string(info.status().message()).c_str());
      continue;
    }
    std::printf("%-44s %-6s %8llu %9llu %5u %7llu  %s\n", name.c_str(), KindName(info->kind),
                static_cast<unsigned long long>(size / 1024),
                static_cast<unsigned long long>(info->device_bytes / (1024 * 1024)),
                info->numa_nodes, static_cast<unsigned long long>(info->stored_chunks),
                info->provenance.c_str());
  }
  std::printf("%zu image(s) in %s\n", paths.size(), dir.c_str());
  return 0;
}

int Verify(const std::string& dir) {
  int failures = 0;
  int stale = 0;
  const auto paths = ImagePaths(dir);
  for (const std::string& path : paths) {
    fscore::FsckReport fsck;
    auto loaded = snap::LoadCheckedImage(path, &fsck);
    // kNotSupported means only another format version: no consumer loads such
    // an image (corpus file names hash the version), so it is not damage.
    if (!loaded.ok() && loaded.status().code() == common::ErrorCode::kNotSupported) {
      const auto version = snap::ReadFormatVersion(path);
      std::printf("STALE %s: format v%s, current v%u; run snapctl gc\n", path.c_str(),
                  version.ok() ? std::to_string(*version).c_str() : "?",
                  snap::kSnapFormatVersion);
      stale++;
      continue;
    }
    if (!loaded.ok()) {
      if (!fsck.ok()) {
        std::printf("FAIL %s: fsck: %s\n", path.c_str(), fsck.Summary().c_str());
      } else {
        std::printf("FAIL %s: %s\n", path.c_str(),
                    std::string(loaded.status().message()).c_str());
      }
      failures++;
      continue;
    }
    std::printf("ok   %s (%s, hash=%016llx)\n", path.c_str(), KindName(loaded->info.kind),
                static_cast<unsigned long long>(snap::ContentHash(loaded->snapshot)));
  }
  std::printf("%zu image(s), %d failure(s), %d stale-format\n", paths.size(), failures, stale);
  return failures == 0 ? 0 : 1;
}

int Gc(const std::string& dir) {
  uint64_t removed = 0;
  for (const std::string& path : ImagePaths(dir)) {
    auto info = snap::ReadImageInfo(path);
    if (info.ok()) {
      continue;
    }
    // Stale format versions and corrupt headers are unusable by every
    // consumer; reclaim them. I/O errors (e.g. transient permission issues)
    // are left alone.
    if (info.status().code() == common::ErrorCode::kNotSupported ||
        info.status().code() == common::ErrorCode::kCorrupt) {
      std::error_code ec;
      if (fs::remove(path, ec)) {
        std::printf("removed %s (%s)\n", path.c_str(),
                    std::string(info.status().message()).c_str());
        removed++;
      }
    }
  }
  std::printf("gc: removed %llu image(s)\n", static_cast<unsigned long long>(removed));
  return 0;
}

int Build(const std::string& dir) {
  snap::Corpus corpus(dir);
  if (!corpus.enabled()) {
    std::fprintf(stderr, "snapctl build: cannot use corpus dir %s\n", dir.c_str());
    return 1;
  }
  // The fig07 working set: every lineup member aged to 70% utilization.
  constexpr uint64_t kDeviceBytes = 1536ull * 1024 * 1024;
  constexpr double kUtil = 0.70;
  constexpr double kChurn = 2.5;
  constexpr uint64_t kSeed = 42;
  for (const std::string fs_name :
       {"ext4-dax", "xfs-dax", "nova", "nova-relaxed", "splitfs", "strata", "winefs",
        "winefs-relaxed"}) {
    aging::AgingConfig config;
    config.target_utilization = kUtil;
    config.write_multiplier = kChurn;
    config.seed = kSeed;
    snap::ImageKey key;
    key.fs = fs_name;
    key.device_bytes = kDeviceBytes;
    key.num_cpus = 8;
    key.numa_nodes = 1;
    key.profile = "agrawal";
    key.seed = kSeed;
    key.utilization = kUtil;
    key.churn = kChurn;
    key.detail = aging::AgingProvenance(config);
    auto snapshot = corpus.LoadOrBuild(key, [&]() -> common::Result<pmem::DeviceSnapshot> {
      std::printf("building %s...\n", key.FileName().c_str());
      pmem::PmemDevice device(kDeviceBytes);
      auto fsys = fsreg::Create(fs_name, &device, 8);
      common::ExecContext ctx;
      RETURN_IF_ERROR(fsys->Mkfs(ctx));
      aging::Geriatrix geriatrix(fsys.get(), aging::Profile::Agrawal(kSeed), config);
      auto stats = geriatrix.Run(ctx);
      if (!stats.ok()) {
        return stats.status();
      }
      RETURN_IF_ERROR(fsys->Unmount(ctx));
      return device.Snapshot();
    });
    if (!snapshot.ok()) {
      std::fprintf(stderr, "snapctl build: %s failed: %s\n", fs_name.c_str(),
                   std::string(snapshot.status().message()).c_str());
      return 1;
    }
    std::printf("ready %s\n", corpus.PathFor(key).c_str());
  }
  const snap::CorpusStats& s = corpus.stats();
  std::printf("build done: %llu hit(s), %llu built, %llu ms building\n",
              static_cast<unsigned long long>(s.hits),
              static_cast<unsigned long long>(s.misses),
              static_cast<unsigned long long>(s.build_wall_ms));
  return 0;
}

std::string ProvenanceField(const std::string& provenance, const std::string& key) {
  const size_t at = provenance.find(key + "=");
  if (at == std::string::npos) {
    return "";
  }
  const size_t start = at + key.size() + 1;
  return provenance.substr(start, provenance.find(';', start) - start);
}

int Replay(const std::string& path) {
  auto loaded = snap::LoadImage(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "replay: cannot load %s: %s\n", path.c_str(),
                 std::string(loaded.status().message()).c_str());
    return 1;
  }
  if (loaded->info.kind != snap::ImageKind::kCrashState) {
    std::fprintf(stderr, "replay: %s is not a crash-state image\n", path.c_str());
    return 1;
  }
  const std::string& provenance = loaded->info.provenance;
  crashmk::CampaignConfig config;
  config.fs = ProvenanceField(provenance, "fs");
  config.device_bytes = std::strtoull(ProvenanceField(provenance, "dev").c_str(), nullptr, 10);
  config.max_inodes = std::strtoull(ProvenanceField(provenance, "mi").c_str(), nullptr, 10);
  config.journal_blocks =
      std::strtoull(ProvenanceField(provenance, "jb").c_str(), nullptr, 10);
  config.num_cpus = static_cast<uint32_t>(
      std::strtoul(ProvenanceField(provenance, "cpu").c_str(), nullptr, 10));
  if (config.fs.empty() || config.device_bytes == 0) {
    std::fprintf(stderr, "replay: %s: provenance lacks campaign fields: %s\n", path.c_str(),
                 provenance.c_str());
    return 1;
  }

  pmem::PmemDevice fork(loaded->snapshot);
  auto fsys = crashmk::MakeCampaignFactory(config)(&fork);
  if (fsys == nullptr) {
    std::fprintf(stderr, "replay: unknown filesystem %s\n", config.fs.c_str());
    return 1;
  }
  common::ExecContext ctx;
  const common::Status mounted = fsys->Mount(ctx);
  const std::string verdict = ProvenanceField(provenance, "verdict");
  if (!mounted.ok()) {
    // A recorded mount failure reproducing is a successful replay.
    const bool expected = verdict == "mountfail";
    std::printf("%s %s: mount failed (recorded verdict: %s)\n",
                expected ? "ok  " : "FAIL", path.c_str(), verdict.c_str());
    return expected ? 0 : 1;
  }
  const crashmk::Oracle recovered = crashmk::Oracle::Capture(ctx, *fsys);
  const uint64_t got = recovered.StateHash();
  const std::string rhash_hex = ProvenanceField(provenance, "rhash");
  if (rhash_hex.empty()) {
    std::printf("ok   %s: mounted, recovered hash=%016llx (no recorded hash)\n",
                path.c_str(), static_cast<unsigned long long>(got));
    return 0;
  }
  const uint64_t want = std::strtoull(rhash_hex.c_str(), nullptr, 16);
  const bool match = got == want;
  std::printf("%s %s: op=%s verdict=%s recovered=%016llx recorded=%016llx\n",
              match ? "ok  " : "FAIL", path.c_str(),
              ProvenanceField(provenance, "op").c_str(), verdict.c_str(),
              static_cast<unsigned long long>(got),
              static_cast<unsigned long long>(want));
  return match ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s {list|verify|gc|build} [corpus-dir] | %s replay <image>\n",
                 argv[0], argv[0]);
    return 2;
  }
  if (std::string(argv[1]) == "replay") {
    if (argc < 3) {
      std::fprintf(stderr, "usage: %s replay <image.snap>\n", argv[0]);
      return 2;
    }
    return Replay(argv[2]);
  }
  std::string dir;
  if (argc >= 3) {
    dir = argv[2];
  } else if (const char* env = std::getenv("WINEFS_SNAP_DIR"); env != nullptr) {
    dir = env;
  }
  if (dir.empty()) {
    std::fprintf(stderr, "%s: no corpus dir (pass one or set WINEFS_SNAP_DIR)\n", argv[0]);
    return 2;
  }
  const std::string cmd = argv[1];
  std::error_code ec;
  if (cmd != "build" && !std::filesystem::is_directory(dir, ec)) {
    std::fprintf(stderr, "%s: %s is not a directory\n", argv[0], dir.c_str());
    return 2;
  }
  if (cmd == "list") {
    return List(dir);
  }
  if (cmd == "verify") {
    return Verify(dir);
  }
  if (cmd == "gc") {
    return Gc(dir);
  }
  if (cmd == "build") {
    return Build(dir);
  }
  std::fprintf(stderr, "unknown command %s\n", cmd.c_str());
  return 2;
}
