#include "src/obs/profiler.h"

namespace obs {

Profiler::Profiler(uint32_t sample_shift) : sample_shift_(sample_shift) {}

uint32_t Profiler::RegisterLockSite(std::string_view site) {
  return sites_.Register(site);
}

common::LockSiteCell* Profiler::LockSiteCellFor(uint32_t site) {
  return sites_.CellFor(site);
}

void Profiler::OnLockEvent(common::ExecContext& ctx, uint32_t site, uint64_t wait_ns,
                           uint64_t hold_ns) {
  sites_.RecordSampled(site, ctx.cpu, ctx.clock.NowNs(), wait_ns, hold_ns);
}

void Profiler::OnZoneExit(const common::ExecContext& ctx, uint32_t path, common::ProfLayer layer,
                          uint64_t enter_ns, uint64_t exclusive_ns) {
  zone_events_.Push(ZoneEvent{ctx.cpu, layer, enter_ns, ctx.clock.NowNs()});
  if (exclusive_ns == 0) {
    return;
  }
  for (FoldedCell& cell : folded_) {
    if (cell.path == path) {
      cell.ns += exclusive_ns;
      return;
    }
  }
  folded_.push_back(FoldedCell{path, exclusive_ns});
}

void Profiler::EndOp(common::ExecContext& ctx, std::string_view op) {
  common::ZoneState& zones = ctx.zones;
  uint64_t total = 0;
  auto it = attribution_.find(op);
  if (it == attribution_.end()) {
    it = attribution_.emplace(std::string(op), OpAttrCell{}).first;
  }
  OpAttrCell& cell = it->second;
  for (size_t i = 0; i < common::kNumProfLayers; i++) {
    if (zones.layer_ns[i] != 0) {
      cell.layers[i].Record(zones.layer_ns[i]);
      total += zones.layer_ns[i];
      zones.layer_ns[i] = 0;
    }
  }
  if (total != 0) {
    cell.total.Record(total);
    cell.ops_sampled++;
    ops_sampled_++;
  }
}

void Profiler::ResetSamples() {
  ops_sampled_ = 0;
  sites_.Clear();
  attribution_.clear();
  folded_.clear();
  zone_events_.Clear();
}

std::vector<LockSiteStats> Profiler::LockSites() const {
  std::vector<LockSiteStats> out;
  out.reserve(sites_.sites().size());
  for (const LockSiteStats& stats : sites_.sites()) {
    if (stats.acquisitions > 0) {
      out.push_back(stats);
    }
  }
  return out;
}

std::vector<LockEvent> Profiler::LockEvents() const {
  return sites_.Events();
}

std::string Profiler::SiteName(uint32_t site) const {
  return site < sites_.NumSites() ? sites_.SiteName(site) : std::string("?");
}

std::string Profiler::TopContendedSite() const {
  const int top = sites_.TopContendedSite();
  return top < 0 ? std::string("none") : sites_.SiteName(static_cast<uint32_t>(top));
}

uint64_t Profiler::TopContendedWaitNs() const {
  const int top = sites_.TopContendedSite();
  return top < 0 ? 0 : sites_.sites()[static_cast<size_t>(top)].total_wait_ns;
}

std::vector<Profiler::OpAttribution> Profiler::Attribution() const {
  std::vector<OpAttribution> out;
  out.reserve(attribution_.size());
  for (const auto& [op, cell] : attribution_) {
    OpAttribution row;
    row.op = op;
    row.ops_sampled = cell.ops_sampled;
    row.total = cell.total;
    row.layers = cell.layers;
    out.push_back(std::move(row));
  }
  return out;
}

std::string DecodeZonePath(uint32_t path) {
  // Peel 3-bit groups from the low end (innermost zone) and reverse.
  std::vector<common::ProfLayer> layers;
  while (path != 0) {
    layers.push_back(static_cast<common::ProfLayer>((path & 0x7u) - 1));
    path >>= 3;
  }
  std::string out;
  for (auto it = layers.rbegin(); it != layers.rend(); ++it) {
    if (!out.empty()) {
      out += ';';
    }
    out += common::ProfLayerName(*it);
  }
  return out;
}

std::vector<Profiler::FoldedFrame> Profiler::FoldedStacks() const {
  std::vector<FoldedFrame> out;
  out.reserve(folded_.size());
  for (const FoldedCell& cell : folded_) {
    out.push_back(FoldedFrame{DecodeZonePath(cell.path), cell.ns});
  }
  return out;
}

uint64_t Profiler::ops_sampled() const {
  return ops_sampled_;
}

}  // namespace obs
