#include "src/snap/corpus.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>


namespace snap {
namespace {

using common::ErrorCode;
using common::Status;

uint64_t NowMs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// %.4g keeps utilization/churn stable across locales and float noise (keys
// are constructed from the same literals on both the save and load side).
std::string FmtDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

std::string Sanitize(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.' || c == '_';
    out.push_back(keep ? c : '_');
  }
  return out;
}

}  // namespace

std::string ImageKey::Provenance() const {
  std::string p = "v" + std::to_string(kSnapFormatVersion);
  p += ";fs=" + fs;
  p += ";dev=" + std::to_string(device_bytes);
  p += ";cpus=" + std::to_string(num_cpus);
  p += ";numa=" + std::to_string(numa_nodes);
  p += ";profile=" + profile;
  p += ";seed=" + std::to_string(seed);
  p += ";util=" + FmtDouble(utilization);
  p += ";churn=" + FmtDouble(churn);
  if (!detail.empty()) {
    p += ";detail=" + detail;
  }
  return p;
}

std::string ImageKey::FileName() const {
  const std::string prov = Provenance();
  const uint64_t h = Fnv1a(reinterpret_cast<const uint8_t*>(prov.data()), prov.size());
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  std::string stem = Sanitize(fs + "-" + profile + "-u" + FmtDouble(utilization));
  if (stem.size() > 80) {
    stem.resize(80);
  }
  return stem + "-" + hex + ".snap";
}

Corpus::Corpus(std::string dir, bool force_rebuild)
    : dir_(std::move(dir)), force_rebuild_(force_rebuild) {
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
      std::fprintf(stderr, "snap: cannot create corpus dir %s: %s (corpus disabled)\n",
                   dir_.c_str(), ec.message().c_str());
      dir_.clear();
    }
  }
}

Corpus Corpus::FromEnv() {
  const char* dir = std::getenv("WINEFS_SNAP_DIR");
  const char* rebuild = std::getenv("WINEFS_SNAP_REBUILD");
  const bool force = rebuild != nullptr && rebuild[0] != '\0' && rebuild[0] != '0';
  return Corpus(dir == nullptr ? std::string() : std::string(dir), force);
}

std::string Corpus::PathFor(const ImageKey& key) const {
  return dir_ + "/" + key.FileName();
}

common::Result<pmem::DeviceSnapshot> Corpus::TryLoad(const ImageKey& key) {
  if (!enabled() || force_rebuild_) {
    return Status(ErrorCode::kNotFound);
  }
  const std::string path = PathFor(key);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    return Status(ErrorCode::kNotFound);
  }
  const uint64_t start_ms = NowMs();
  // A filesystem image must be a structurally consistent unmounted
  // filesystem before any bench trusts it.
  auto loaded = LoadCheckedImage(path);
  if (!loaded.ok()) {
    stats_.rejects++;
    stats_.load_wall_ms += NowMs() - start_ms;
    return loaded.status();
  }
  if (loaded->info.provenance != key.Provenance() ||
      loaded->info.device_bytes != key.device_bytes ||
      loaded->info.numa_nodes != key.numa_nodes) {
    // A hash-collision or hand-renamed file; treat as a miss.
    stats_.rejects++;
    stats_.load_wall_ms += NowMs() - start_ms;
    return Status(ErrorCode::kNotFound);
  }
  stats_.hits++;
  stats_.loaded_bytes += std::filesystem::file_size(path, ec);
  stats_.load_wall_ms += NowMs() - start_ms;
  return loaded->snapshot;
}

common::Status Corpus::Save(const ImageKey& key, const pmem::DeviceSnapshot& snap) {
  if (!enabled()) {
    return common::OkStatus();
  }
  const std::string path = PathFor(key);
  RETURN_IF_ERROR(SaveImage(path, snap, ImageKind::kFilesystem, key.Provenance()));
  std::error_code ec;
  stats_.saved_bytes += std::filesystem::file_size(path, ec);
  return common::OkStatus();
}

common::Result<pmem::DeviceSnapshot> Corpus::LoadOrBuild(const ImageKey& key,
                                                         const BuildFn& build) {
  auto loaded = TryLoad(key);
  if (loaded.ok()) {
    return loaded;
  }
  stats_.misses++;
  const uint64_t start_ms = NowMs();
  auto built = build();
  stats_.build_wall_ms += NowMs() - start_ms;
  if (!built.ok()) {
    return built.status();
  }
  RETURN_IF_ERROR(Save(key, *built));
  return built;
}

common::Result<std::vector<pmem::DeviceSnapshot>> Corpus::LoadOrBuildSweep(
    const std::vector<ImageKey>& keys, const SweepBuilder& build) {
  std::vector<pmem::DeviceSnapshot> out(keys.size());
  bool all_hit = true;
  for (size_t i = 0; i < keys.size(); i++) {
    auto loaded = TryLoad(keys[i]);
    if (!loaded.ok()) {
      all_hit = false;
      break;
    }
    out[i] = std::move(*loaded);
  }
  if (all_hit) {
    return out;
  }
  // Any miss rebuilds the whole chain: intermediate aging state (live-file
  // list, RNG position) lives in the builder, not in the device image, so a
  // chain cannot resume from a stored step.
  stats_.misses += keys.size();
  out.assign(keys.size(), pmem::DeviceSnapshot{});
  bool save_failed = false;
  const uint64_t start_ms = NowMs();
  const Status built = build([&](size_t step, const pmem::DeviceSnapshot& snap) {
    if (step < out.size()) {
      out[step] = snap;
      if (!Save(keys[step], snap).ok()) {
        save_failed = true;
      }
    }
  });
  stats_.build_wall_ms += NowMs() - start_ms;
  RETURN_IF_ERROR(built);
  for (const pmem::DeviceSnapshot& snap : out) {
    if (!snap.valid()) {
      return Status(ErrorCode::kInternal);  // builder skipped a step
    }
  }
  if (save_failed && enabled()) {
    std::fprintf(stderr, "snap: warning: failed to save one or more sweep images to %s\n",
                 dir_.c_str());
  }
  return out;
}

}  // namespace snap
