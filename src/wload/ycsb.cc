#include "src/wload/ycsb.h"

#include <atomic>

namespace wload {

std::string YcsbName(YcsbWorkload workload) {
  switch (workload) {
    case YcsbWorkload::kLoad:
      return "Load";
    case YcsbWorkload::kA:
      return "A";
    case YcsbWorkload::kB:
      return "B";
    case YcsbWorkload::kC:
      return "C";
    case YcsbWorkload::kD:
      return "D";
    case YcsbWorkload::kE:
      return "E";
    case YcsbWorkload::kF:
      return "F";
  }
  return "?";
}

std::vector<YcsbWorkload> AllYcsbWorkloads() {
  return {YcsbWorkload::kLoad, YcsbWorkload::kA, YcsbWorkload::kB, YcsbWorkload::kC,
          YcsbWorkload::kD,    YcsbWorkload::kE, YcsbWorkload::kF};
}

YcsbResult YcsbDriver::Load(uint32_t num_threads) {
  if (!base_init_) {
    base_ns_ = config_.start_time_ns;
    base_init_ = true;
  }
  if (num_threads == 0) {
    num_threads = config_.num_threads;
  }
  const uint64_t per_thread = config_.record_count / num_threads;
  std::vector<uint8_t> value(config_.value_bytes, 0x5c);
  ParallelRunner runner(num_threads, config_.num_cpus, base_ns_);
  YcsbResult result;
  result.run = runner
                   .Run(per_thread,
                        [&](uint32_t tid, uint64_t i, common::ExecContext& ctx) {
                          const uint64_t key = tid * per_thread + i;
                          return store_->Put(ctx, key, value.data(), value.size()).ok();
                        })
                   .run;
  base_ns_ += result.run.wall_ns;
  inserted_ = per_thread * num_threads;
  return result;
}

YcsbResult YcsbDriver::Run(YcsbWorkload workload) {
  if (workload == YcsbWorkload::kLoad) {
    return Load(config_.num_threads);
  }
  if (!base_init_) {
    base_ns_ = config_.start_time_ns;
    base_init_ = true;
  }
  const uint64_t per_thread = config_.operation_count / config_.num_threads;
  std::vector<uint8_t> value(config_.value_bytes, 0x2f);
  std::vector<uint8_t> out(std::max<uint32_t>(config_.value_bytes * 2, 8192));

  // Per-thread generators so threads are deterministic and independent.
  std::vector<common::ZipfGenerator> zipfs;
  std::vector<common::Rng> rngs;
  for (uint32_t t = 0; t < config_.num_threads; t++) {
    zipfs.emplace_back(inserted_, 0.99, config_.seed + t);
    rngs.emplace_back(config_.seed * 31 + t);
  }
  std::atomic<uint64_t> next_insert{inserted_};
  std::atomic<uint64_t> not_found{0};

  auto op = [&](uint32_t tid, uint64_t i, common::ExecContext& ctx) {
    (void)i;
    common::Rng& rng = rngs[tid];
    const uint64_t key = zipfs[tid].ScrambledNext();
    const double p = rng.NextDouble();
    bool ok = true;
    switch (workload) {
      case YcsbWorkload::kA:  // 50% read / 50% update
        if (p < 0.5) {
          ok = store_->Get(ctx, key, out.data()).ok();
        } else {
          ok = store_->Put(ctx, key, value.data(), value.size()).ok();
        }
        break;
      case YcsbWorkload::kB:  // 95% read / 5% update
        if (p < 0.95) {
          ok = store_->Get(ctx, key, out.data()).ok();
        } else {
          ok = store_->Put(ctx, key, value.data(), value.size()).ok();
        }
        break;
      case YcsbWorkload::kC:  // 100% read
        ok = store_->Get(ctx, key, out.data()).ok();
        break;
      case YcsbWorkload::kD: {  // 95% read-latest / 5% insert
        if (p < 0.95) {
          const uint64_t latest = next_insert.load() - 1;
          const uint64_t k = latest - std::min(latest, zipfs[tid].Next());
          ok = store_->Get(ctx, k, out.data()).ok();
        } else {
          const uint64_t k = next_insert.fetch_add(1);
          ok = store_->Put(ctx, k, value.data(), value.size()).ok();
        }
        break;
      }
      case YcsbWorkload::kE: {  // 95% scan / 5% insert
        if (p < 0.95) {
          auto n = store_->Scan(ctx, key, config_.scan_length, out.data());
          ok = n.ok() || n.status().code() == common::ErrorCode::kNotSupported;
        } else {
          const uint64_t k = next_insert.fetch_add(1);
          ok = store_->Put(ctx, k, value.data(), value.size()).ok();
        }
        break;
      }
      case YcsbWorkload::kF: {  // read-modify-write
        if (p < 0.5) {
          ok = store_->Get(ctx, key, out.data()).ok();
        } else {
          auto got = store_->Get(ctx, key, out.data());
          ok = got.ok() || got.status().code() == common::ErrorCode::kNotFound;
          ok = ok && store_->Put(ctx, key, value.data(), value.size()).ok();
        }
        break;
      }
      case YcsbWorkload::kLoad:
        break;
    }
    if (!ok) {
      not_found.fetch_add(1);
    }
    return true;  // keep running; misses are counted, not fatal
  };

  ParallelRunner runner(config_.num_threads, config_.num_cpus, base_ns_);
  YcsbResult result;
  result.run = runner.Run(per_thread, op).run;
  base_ns_ += result.run.wall_ns;
  result.not_found = not_found.load();
  inserted_ = next_insert.load();
  return result;
}

}  // namespace wload
