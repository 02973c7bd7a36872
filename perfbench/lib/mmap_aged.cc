// mmap_aged: memory-mapped access to a file on Geriatrix-aged WineFS and
// ext4-DAX images.
//
// Setup ages one image per filesystem from the seed (Agrawal profile, 80%
// full), then round-trips it through a private, empty snap corpus: save, then
// load with checksums and fsck-on-load. It mounts a COW fork of each loaded
// image and creates, allocates and primes one file on it. The workload is
// defined by WineFS mapping that file wholly with 2 MiB pages and ext4-DAX
// with none; an aged image that breaks this is aged again from the next
// seed-derived aging seed. Each round maps the file fresh, writes it
// sequentially with the payload the file does not hold yet, issues random
// single-cacheline reads over the whole mapping (far beyond the STLB's 4 KiB
// reach), and reads it back, checking every byte. The images are unmounted
// and checked after the measure phase.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>

#include "lib/workload.h"
#include "src/aging/geriatrix.h"
#include "src/common/rng.h"
#include "src/snap/corpus.h"

namespace perfbench {
namespace {

using common::ExecContext;
using common::kMiB;

constexpr const char* kFsNames[] = {"winefs", "ext4-dax"};
constexpr uint64_t kDeviceBytes = 512 * kMiB;
constexpr double kAgeUtil = 0.80;
constexpr double kAgeChurn = 6.0;
constexpr uint64_t kMapBytes = 16 * kMiB;
constexpr uint64_t kChunkBytes = 8 * kMiB;
// AccessLines calls per round on each filesystem. ext4-DAX gets more, so the
// median request falls inside its population instead of in the gap between
// the fast 2 MiB-mapped WineFS calls and the slow 4 KiB-mapped ext4 ones.
constexpr size_t kLineCalls[] = {512, 768};
constexpr size_t kLinesPerCall = 512;
constexpr const char* kMapPath = "/perfbench_mapped_file";
// Agings tried per filesystem before set-up gives up on the seed.
constexpr uint64_t kAgeAttempts = 4;
// The share of the file each filesystem must map with 2 MiB pages.
constexpr double kRequiredHugeFraction[] = {1.0, 0.0};

class MmapAged final : public Workload {
 public:
  MmapAged(uint64_t seed, std::string work_dir) : seed_(seed), work_dir_(std::move(work_dir)) {}

  common::Status Setup(SpanRecorder* spans) override {
    // Two payloads: set-up primes the file with the second, and round r
    // writes payload r % 2, so every round overwrites every byte with a new
    // value. Modeled costs do not depend on the bytes, so the fingerprint
    // stays the same from round to round.
    for (size_t p = 0; p < std::size(content_); p++) {
      content_[p].resize(kMapBytes);
      for (uint64_t i = 0; i < kMapBytes; i++) {
        content_[p][i] = PayloadByte(seed_ * 2 + p, i);
      }
    }
    common::Rng rng(seed_ ^ 0x6d6d6170ull);
    line_offsets_.resize(kLineCalls[1] * kLinesPerCall);
    for (uint64_t& offset : line_offsets_) {
      offset = rng.NextBelow(kMapBytes / common::kCacheline) * common::kCacheline;
    }
    for (size_t f = 0; f < std::size(kFsNames); f++) {
      RETURN_IF_ERROR(SetUpImage(f, spans));
    }
    return common::OkStatus();
  }

  common::Result<RoundOutcome> RunRound(const Observers& observers) override {
    RoundOutcome out;
    const std::vector<uint8_t>& payload = content_[round_++ % 2];
    for (size_t f = 0; f < beds_.size(); f++) {
      TimedBed& bed = beds_[f];
      bed.fs->set_recorder(observers.spans);
      const TimedFsStats before = bed.fs->stats();
      // Each round continues the image's simulated timeline and maps the file
      // through a fresh MmapEngine (cold TLB, LLC and page table).
      ExecContext ctx;
      ctx.clock.SetNs(clock_ns_[f]);
      if (observers.profiler != nullptr) {
        ctx.AttachProfiler(observers.profiler);
      }
      vmem::MmapEngine engine(bed.bed.dev.get(), vmem::MmuParams{}, wload::BedSpec{}.num_cpus);
      RETURN_IF_ERROR(
          MapAndAccess(bed, engine, ctx, kLineCalls[f], payload, observers.spans, out));
      ctx.AttachProfiler(nullptr);
      bed.fs->set_recorder(nullptr);
      clock_ns_[f] = ctx.clock.NowNs();
      out.counters.Add(ctx.counters);
      out.fs_stats.faults_4k += bed.fs->stats().faults_4k - before.faults_4k;
      out.fs_stats.faults_2m += bed.fs->stats().faults_2m - before.faults_2m;
    }
    return out;
  }

  ImageChecks CheckImagesAfterMeasure() override {
    ImageChecks checks;
    for (size_t f = 0; f < beds_.size(); f++) {
      ExecContext ctx;
      ctx.clock.SetNs(clock_ns_[f]);
      checks.checked++;
      checks.failed += UnmountAndCheck(beds_[f], ctx) ? 0 : 1;
    }
    beds_.clear();
    return checks;
  }

  std::string Describe() const override {
    return "fs=winefs,ext4-dax device_mib=" + std::to_string(kDeviceBytes / kMiB) +
           " age_util=" + std::to_string(kAgeUtil) + " age_seeds=" +
           std::to_string(age_seeds_[0]) + "," + std::to_string(age_seeds_[1]) + " map_mib=" +
           std::to_string(kMapBytes / kMiB) + " line_calls=" + std::to_string(kLineCalls[0]) +
           "," + std::to_string(kLineCalls[1]) + "x" + std::to_string(kLinesPerCall);
  }

 private:
  // Ages a fresh image from the seed and returns it unmounted.
  common::Result<pmem::DeviceSnapshot> Age(const std::string& fs_name,
                                           const aging::AgingConfig& config,
                                           SpanRecorder* spans) {
    auto bed = MakeFreshBed(fs_name, kDeviceBytes, spans);
    if (!bed.ok()) {
      return bed.status();
    }
    bed->fs->set_recorder(spans);
    aging::Geriatrix geriatrix(bed->fs.get(), aging::Profile::Agrawal(config.seed), config);
    common::Result<aging::AgingStats> aged = [&] {
      ScopedSpan span(spans, SpanName::kAging);
      return geriatrix.Run(bed->bed.setup);
    }();
    if (!aged.ok()) {
      return aged.status();
    }
    return UnmountAndSnapshot(*bed);
  }

  // Ages an image, then saves it to and loads it back from an empty corpus.
  common::Result<pmem::DeviceSnapshot> AgeAndRoundTrip(const std::string& fs_name,
                                                       uint64_t age_seed, SpanRecorder* spans) {
    aging::AgingConfig config;
    config.target_utilization = kAgeUtil;
    config.write_multiplier = kAgeChurn;
    config.seed = age_seed;
    auto built = Age(fs_name, config, spans);
    if (!built.ok()) {
      return built.status();
    }
    const std::string dir = work_dir_ + "/corpus-" + fs_name;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    snap::Corpus corpus(dir);
    snap::ImageKey key;
    key.fs = fs_name;
    key.device_bytes = kDeviceBytes;
    key.num_cpus = wload::BedSpec{}.num_cpus;
    key.profile = "agrawal";
    key.seed = age_seed;
    key.utilization = kAgeUtil;
    key.churn = kAgeChurn;
    key.detail = aging::AgingProvenance(config);
    {
      ScopedSpan span(spans, SpanName::kSnapSave);
      RETURN_IF_ERROR(corpus.Save(key, *built));
    }
    built->bytes.reset();  // only the loaded copy is used from here on
    common::Result<pmem::DeviceSnapshot> loaded = [&] {
      ScopedSpan span(spans, SpanName::kSnapLoad);
      return corpus.TryLoad(key);
    }();
    std::filesystem::remove_all(dir, ec);
    return loaded;
  }

  // Ages, round-trips and mounts filesystem `f`'s image, and primes the file
  // on it, until the file's 2 MiB coverage is the one the workload requires.
  common::Status SetUpImage(size_t f, SpanRecorder* spans) {
    for (uint64_t attempt = 0; attempt < kAgeAttempts; attempt++) {
      const uint64_t age_seed = (seed_ * 7 + f) + attempt * 0x10000000000ull;
      auto base = AgeAndRoundTrip(kFsNames[f], age_seed, spans);
      if (!base.ok()) {
        return base.status();
      }
      auto bed = ForkBed(kFsNames[f], *base, spans);
      if (!bed.ok()) {
        return bed.status();
      }
      auto huge = CreateAndPrime(*bed);
      if (!huge.ok()) {
        return huge.status();
      }
      if (*huge != kRequiredHugeFraction[f]) {
        std::fprintf(stderr,
                     "perfbench: %s aged with age seed %llu maps %.1f%% of the file with 2 MiB "
                     "pages, not %.0f%%; aging again\n",
                     kFsNames[f], static_cast<unsigned long long>(age_seed), 100.0 * *huge,
                     100.0 * kRequiredHugeFraction[f]);
        continue;
      }
      // Copy in the rest of the image so the fork stops sharing (and keeping
      // alive) the loaded snapshot.
      (void)bed->bed.dev->raw();
      age_seeds_[f] = age_seed;
      clock_ns_.push_back(bed->bed.setup.clock.NowNs());
      beds_.push_back(std::move(bed.value()));
      return common::OkStatus();
    }
    std::fprintf(stderr, "perfbench: no aging of %s gave the file the 2 MiB coverage required\n",
                 kFsNames[f]);
    return common::Status(common::ErrorCode::kNoSpace);
  }

  // Times one MappedFile call as one request. Only `sampled` requests enter
  // the per-request latency samples; every call counts as an op.
  template <typename Call>
  common::Status Request(RoundOutcome& out, ExecContext& ctx, SpanRecorder* spans,
                         SpanName name, bool sampled, Call&& call) {
    if (spans != nullptr) {
      spans->NextRequest();
    }
    const uint64_t sim_start = ctx.clock.NowNs();
    const uint64_t host_start = HostNowNs();
    common::Status status;
    {
      ScopedSpan span(spans, name);
      status = call();
    }
    const uint64_t host = HostNowNs() - host_start;
    const uint64_t sim = ctx.clock.NowNs() - sim_start;
    out.ops++;
    out.host_ns += host;
    out.sim_ns += sim;
    if (sampled) {
      out.req_host_ns.push_back(host);
      out.req_sim_ns.push_back(sim);
    }
    return status;
  }

  // Creates the file on the mounted image, allocates it, and writes it once
  // through a mapping, so first-touch zeroing happens here and not in the
  // measured rounds (the same priming fig01 does). Returns the share of the
  // file the mapping covered with 2 MiB pages.
  common::Result<double> CreateAndPrime(TimedBed& bed) {
    ExecContext& ctx = bed.bed.setup;
    auto fd = bed.fs->Open(ctx, kMapPath, vfs::OpenFlags::CreateExcl());
    if (!fd.ok()) {
      return fd.status();
    }
    RETURN_IF_ERROR(bed.fs->Fallocate(ctx, *fd, 0, kMapBytes));
    auto ino = bed.fs->InodeOf(ctx, *fd);
    if (!ino.ok()) {
      return ino.status();
    }
    double huge = 0;
    {
      auto map = bed.bed.engine->Mmap(bed.fs.get(), *ino, kMapBytes, /*writable=*/true);
      RETURN_IF_ERROR(map->Write(ctx, 0, content_[1].data(), kMapBytes));
      huge = map->HugeMappedFraction();
    }
    RETURN_IF_ERROR(bed.fs->Close(ctx, *fd));
    return huge;
  }

  // Writes `payload` over the file, then reads it with AccessLines calls and
  // back in chunks, checking every value. The 8 MiB Write and Read calls are
  // ops, but only the AccessLines calls are latency samples, so p50 and p99
  // describe one kind of request.
  common::Status MapAndAccess(TimedBed& bed, vmem::MmapEngine& engine, ExecContext& ctx,
                              size_t line_calls, const std::vector<uint8_t>& payload,
                              SpanRecorder* spans, RoundOutcome& out) {
    auto fd = bed.fs->Open(ctx, kMapPath, vfs::OpenFlags());
    if (!fd.ok()) {
      return fd.status();
    }
    auto ino = bed.fs->InodeOf(ctx, *fd);
    if (!ino.ok()) {
      return ino.status();
    }
    std::unique_ptr<vmem::MappedFile> map =
        engine.Mmap(bed.fs.get(), *ino, kMapBytes, /*writable=*/true);

    for (uint64_t off = 0; off < kMapBytes; off += kChunkBytes) {
      const common::Status status = Request(out, ctx, spans, SpanName::kVmemWrite, false, [&] {
        return map->Write(ctx, off, payload.data() + off, kChunkBytes);
      });
      out.failed += status.ok() ? 0 : 1;
      out.write_bytes += kChunkBytes;
    }
    out.mapped_bytes += kMapBytes;
    out.huge_bytes += static_cast<uint64_t>(
        std::llround(map->HugeMappedFraction() * static_cast<double>(kMapBytes)));

    std::vector<vmem::LineOp> lines(kLinesPerCall);
    for (size_t call = 0; call < line_calls; call++) {
      for (size_t i = 0; i < kLinesPerCall; i++) {
        lines[i] = vmem::LineOp{line_offsets_[call * kLinesPerCall + i], 0, 0};
      }
      const common::Status status = Request(out, ctx, spans, SpanName::kVmemLines, true, [&] {
        return map->AccessLines(ctx, lines.data(), lines.size(), /*write=*/false);
      });
      bool good = status.ok();
      for (size_t i = 0; good && i < kLinesPerCall; i++) {
        uint64_t want = 0;
        std::memcpy(&want, payload.data() + lines[i].offset, sizeof(want));
        good = lines[i].value == want;
      }
      out.failed += good ? 0 : 1;
      out.lines += kLinesPerCall;
    }

    std::vector<uint8_t> back(kChunkBytes);
    for (uint64_t off = 0; off < kMapBytes; off += kChunkBytes) {
      const common::Status status = Request(out, ctx, spans, SpanName::kVmemRead, false, [&] {
        return map->Read(ctx, off, back.data(), kChunkBytes);
      });
      const bool good =
          status.ok() && std::memcmp(back.data(), payload.data() + off, kChunkBytes) == 0;
      out.failed += good ? 0 : 1;
    }
    map.reset();
    return bed.fs->Close(ctx, *fd);
  }

  uint64_t seed_;
  std::string work_dir_;
  // One mounted COW fork of each aged image, kept for the whole run, and
  // the simulated time each one's timeline has reached.
  std::vector<TimedBed> beds_;
  std::vector<uint64_t> clock_ns_;
  // The aging seed each filesystem's image was aged from.
  uint64_t age_seeds_[std::size(kFsNames)] = {};
  std::vector<uint8_t> content_[2];
  uint64_t round_ = 0;
  std::vector<uint64_t> line_offsets_;
};

}  // namespace

std::unique_ptr<Workload> MakeMmapAged(uint64_t seed, std::string work_dir) {
  return std::make_unique<MmapAged>(seed, std::move(work_dir));
}

}  // namespace perfbench
