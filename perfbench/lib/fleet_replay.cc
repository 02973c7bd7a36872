// fleet_replay: seeded mail_churn, log_ingest and ml_checkpoint traces
// replayed by trace::TraceReplayer on fresh WineFS and ext4-DAX images.
//
// Setup mkfs's one image per filesystem and snapshots it, then generates the
// three traces from the seed. A namespace model of each trace predicts, per
// tenant, which records fail: mail_churn stats purged mailboxes on purpose,
// so those ENOENTs are a seed-determined floor rather than failures. Each
// round forks each image once, replays the three traces on it in turn, and
// compares every tenant's error count with the model.
#include <cstdio>
#include <iterator>
#include <string_view>
#include <unordered_map>

#include "lib/workload.h"
#include "src/trace/replayer.h"
#include "src/trace/scenarios.h"

namespace perfbench {
namespace {

using common::ExecContext;
using common::kMiB;

constexpr const char* kFsNames[] = {"winefs", "ext4-dax"};
constexpr const char* kShapes[] = {"mail_churn", "log_ingest", "ml_checkpoint"};
constexpr uint64_t kDeviceBytes = 128 * kMiB;

class FleetReplay final : public Workload {
 public:
  explicit FleetReplay(uint64_t seed) : seed_(seed) {}

  common::Status Setup(SpanRecorder* spans) override {
    for (const char* fs_name : kFsNames) {
      auto bed = MakeFreshBed(fs_name, kDeviceBytes, spans);
      if (!bed.ok()) {
        return bed.status();
      }
      auto snapshot = UnmountAndSnapshot(*bed);
      if (!snapshot.ok()) {
        return snapshot.status();
      }
      bases_.push_back(std::move(snapshot.value()));
    }
    for (size_t i = 0; i < std::size(kShapes); i++) {
      auto spec = trace::scenarios::FleetSpec(kShapes[i], /*quick=*/false);
      if (!spec.ok()) {
        return spec.status();
      }
      spec->seed = seed_ * 31 + i;
      {
        ScopedSpan span(spans, SpanName::kTraceGen);
        traces_.push_back(trace::scenarios::GenerateScenario(*spec));
      }
      expected_.push_back(ExpectedTraceErrors(traces_.back()));
    }
    return common::OkStatus();
  }

  common::Result<RoundOutcome> RunRound(const Observers& observers) override {
    RoundOutcome out;
    for (size_t f = 0; f < std::size(kFsNames); f++) {
      // The traces use disjoint directories, so they replay one after another
      // on one fork of the image.
      auto bed = ForkBed(kFsNames[f], bases_[f], observers.spans);
      if (!bed.ok()) {
        return bed.status();
      }
      bed->fs->set_recorder(observers.spans);
      uint64_t anchor_ns = bed->bed.setup.clock.NowNs();
      for (size_t t = 0; t < traces_.size(); t++) {
        trace::ReplayOptions options;
        options.base_ns = anchor_ns;
        options.profiler = observers.profiler;
        trace::TraceReplayer replayer(bed->fs.get(), options);
        const size_t first_batch = bed->fs->batches().size();
        const uint64_t start = HostNowNs();
        common::Result<trace::ReplayResult> result = [&] {
          ScopedSpan span(observers.spans, SpanName::kTraceReplay);
          return replayer.Replay(traces_[t]);
        }();
        out.host_ns += HostNowNs() - start;
        if (!result.ok()) {
          return result.status();
        }
        anchor_ns += result->wall_ns;
        out.ops += result->records;
        out.records += result->records;
        out.counters.Add(result->counters);
        // Modeled time is the windows' service time; think time is excluded.
        for (size_t b = first_batch; b < bed->fs->batches().size(); b++) {
          const BatchSample& sample = bed->fs->batches()[b];
          out.req_host_ns.push_back(sample.host_ns);
          out.req_sim_ns.push_back(sample.sim_ns);
          out.sim_ns += sample.sim_ns;
        }
        out.failed += result->records == traces_[t].records.size() ? 0 : 1;
        for (size_t tenant = 0; tenant < expected_[t].size(); tenant++) {
          const uint64_t want = expected_[t][tenant];
          const uint64_t got =
              tenant < result->tenants.size() ? result->tenants[tenant].errors : 0;
          out.expected_errors += want;
          out.failed += got > want ? got - want : want - got;
        }
      }
      const TimedFsStats& stats = bed->fs->stats();
      out.fs_stats.batch_ops += stats.batch_ops;
      out.fs_stats.batch_reused_paths += stats.batch_reused_paths;
      ExecContext ctx;
      ctx.clock.SetNs(anchor_ns);
      out.images_checked++;
      out.images_failed += UnmountAndCheck(*bed, ctx) ? 0 : 1;
    }
    return out;
  }

  std::string Describe() const override {
    std::string text = "fs=winefs,ext4-dax";
    for (size_t t = 0; t < traces_.size(); t++) {
      uint64_t floor = 0;
      for (uint64_t e : expected_[t]) {
        floor += e;
      }
      char part[96];
      std::snprintf(part, sizeof(part), " %s=%zurec/%lluenoent", kShapes[t],
                    traces_[t].records.size(), static_cast<unsigned long long>(floor));
      text += part;
    }
    return text;
  }

 private:
  uint64_t seed_;
  std::vector<pmem::DeviceSnapshot> bases_;
  std::vector<trace::Trace> traces_;
  std::vector<std::vector<uint64_t>> expected_;  // [trace][tenant] failing records
};

}  // namespace

// Per-tenant count of records a fresh filesystem must fail, from a model of
// the namespace (files, directories and their entry counts) and of each
// tenant's descriptor slots. Tenants use disjoint directories, so each
// tenant's records are modeled in trace order.
std::vector<uint64_t> ExpectedTraceErrors(const trace::Trace& tr) {
  enum class Node : uint8_t { kFile, kDir };
  std::unordered_map<std::string_view, Node> nodes;
  std::unordered_map<std::string_view, uint64_t> children;
  std::unordered_map<uint64_t, bool> live_slots;  // (tenant << 32 | slot) -> open
  std::vector<uint64_t> errors(tr.TenantCount(), 0);

  auto parent_of = [](std::string_view path) {
    const size_t cut = path.rfind('/');
    return cut == std::string_view::npos || cut == 0 ? std::string_view() : path.substr(0, cut);
  };
  auto parent_is_dir = [&](std::string_view path) {
    const std::string_view parent = parent_of(path);
    if (parent.empty()) {
      return true;  // the root
    }
    auto it = nodes.find(parent);
    return it != nodes.end() && it->second == Node::kDir;
  };
  auto add = [&](std::string_view path, Node node) {
    nodes[path] = node;
    children[parent_of(path)]++;
  };
  auto remove = [&](std::string_view path) {
    nodes.erase(path);
    children[parent_of(path)]--;
  };

  for (const trace::TraceRecord& r : tr.records) {
    const std::string_view path =
        r.path_id == trace::kNoPath ? std::string_view() : std::string_view(tr.paths[r.path_id]);
    const uint64_t slot_key = (static_cast<uint64_t>(r.tenant) << 32) |
                              static_cast<uint32_t>(r.fd_slot);
    auto node = nodes.find(path);
    const bool is_file = node != nodes.end() && node->second == Node::kFile;
    const bool is_dir = node != nodes.end() && node->second == Node::kDir;
    bool ok = true;
    switch (r.op) {
      case trace::TraceOp::kMkdir:
        ok = node == nodes.end() && parent_is_dir(path);
        if (ok) {
          add(path, Node::kDir);
        }
        break;
      case trace::TraceOp::kRmdir:
        ok = is_dir && children[path] == 0;
        if (ok) {
          remove(path);
        }
        break;
      case trace::TraceOp::kOpen: {
        const vfs::OpenFlags flags(r.open_flags);
        if (is_file) {
          ok = !(flags.create() && flags.exclusive());
        } else {
          ok = node == nodes.end() && flags.create() && parent_is_dir(path);
          if (ok) {
            add(path, Node::kFile);
          }
        }
        live_slots[slot_key] = ok;
        break;
      }
      case trace::TraceOp::kClose:
        ok = live_slots[slot_key];
        live_slots[slot_key] = false;
        break;
      case trace::TraceOp::kPread:
      case trace::TraceOp::kPwrite:
      case trace::TraceOp::kAppend:
      case trace::TraceOp::kFsync:
      case trace::TraceOp::kFtruncate:
      case trace::TraceOp::kFallocate:
        ok = live_slots[slot_key];
        break;
      case trace::TraceOp::kStat:
        ok = node != nodes.end();
        break;
      case trace::TraceOp::kReadDir:
        ok = is_dir;
        break;
      case trace::TraceOp::kUnlink:
        ok = is_file;
        if (ok) {
          remove(path);
        }
        break;
      case trace::TraceOp::kRename: {
        const std::string_view to = tr.paths[r.path2_id];
        ok = is_file && parent_is_dir(to);
        if (ok) {
          remove(path);
          if (nodes.count(to) != 0) {
            remove(to);
          }
          add(to, Node::kFile);
        }
        break;
      }
    }
    errors[r.tenant] += ok ? 0 : 1;
  }
  return errors;
}

std::unique_ptr<Workload> MakeFleetReplay(uint64_t seed) {
  return std::make_unique<FleetReplay>(seed);
}

}  // namespace perfbench
