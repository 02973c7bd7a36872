#include "src/vmem/mmap_engine.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/common/prof_zone.h"
#include "src/common/units.h"
#include "src/obs/op_scope.h"

namespace vmem {

using common::ErrorCode;
using common::ExecContext;
using common::kBlockSize;
using common::kCacheline;
using common::kHugepageSize;
using common::Result;
using common::Status;

namespace {
// Virtual addresses start high and 2 MB-aligned, like mmap with MAP_HUGETLB hints.
constexpr uint64_t kVaStart = 0x7f0000000000ull;
// Cost of an L2 TLB hit (STLB latency).
constexpr uint64_t kStlbHitNs = 5;
// How many ops ahead of the model AccessLines' fast loop issues host cache
// hints. On 512-op batches over a 16 MiB mapping, 4 to 16 measured alike and
// 32 slightly worse.
constexpr size_t kLineLookahead = 8;

// True when the 8 bytes a line op moves at `offset` stay inside its 64 B line.
bool InOneLine(uint64_t offset) {
  return offset % kCacheline <= kCacheline - sizeof(uint64_t);
}
}  // namespace

MmapEngine::MmapEngine(pmem::PmemDevice* device, MmuParams params, uint32_t num_cpus)
    : device_(device),
      params_(params),
      // Page-table nodes live in synthetic DRAM far above the PM device range.
      page_table_(device->size() + (1ull << 40)),
      next_va_(kVaStart) {
  if (num_cpus == 0) {
    num_cpus = 1;
  }
  cpus_.reserve(num_cpus);
  for (uint32_t i = 0; i < num_cpus; i++) {
    cpus_.push_back(std::make_unique<CpuState>(params_));
  }
}

std::unique_ptr<MappedFile> MmapEngine::Mmap(FaultHandler* handler, uint64_t ino,
                                             uint64_t length, bool writable) {
  uint64_t va;
  {
    std::lock_guard<std::mutex> guard(va_mu_);
    va = next_va_;
    // Leave a guard gap and keep 2 MB alignment for the next mapping.
    next_va_ += common::RoundUp(length, kHugepageSize) + kHugepageSize;
  }
  auto file = std::unique_ptr<MappedFile>(
      new MappedFile(this, handler, ino, va, length, writable));
  Register(file.get());
  return file;
}

void MmapEngine::Register(MappedFile* file) {
  std::lock_guard<std::mutex> guard(live_mu_);
  live_.push_back(file);
}

void MmapEngine::Unregister(MappedFile* file) {
  std::lock_guard<std::mutex> guard(live_mu_);
  live_.erase(std::remove(live_.begin(), live_.end(), file), live_.end());
}

void MmapEngine::SampleGauges(obs::GaugeSample& out) {
  std::lock_guard<std::mutex> guard(live_mu_);
  uint64_t mapped_bytes = 0;
  double huge_bytes = 0;
  for (const MappedFile* file : live_) {
    mapped_bytes += file->length();
    huge_bytes += file->HugeMappedFraction() * static_cast<double>(file->length());
  }
  out.Set("mmap_files", static_cast<double>(live_.size()));
  out.Set("mmap_bytes", static_cast<double>(mapped_bytes));
  out.Set("mmap_huge_fraction",
          mapped_bytes == 0 ? 0.0 : huge_bytes / static_cast<double>(mapped_bytes));
  out.Set("page_table_bytes", static_cast<double>(PageTableBytes()));
}

uint64_t MmapEngine::ChargeWalk(ExecContext& ctx, const WalkResult& walk) {
  uint64_t ns = 0;
  CpuState& state = cpu(ctx);
  for (uint32_t i = 0; i < walk.pte_line_count; i++) {
    const uint64_t line = walk.pte_lines[i];
    if (state.llc.Access(line)) {
      ns += device_->cost().llc_hit_ns;
      ctx.counters.llc_hits++;
    } else {
      ns += device_->cost().dram_load_ns;
      ctx.counters.llc_misses++;
    }
  }
  ctx.clock.Advance(ns);
  return ns;
}

uint64_t MmapEngine::ChargeDataLine(ExecContext& ctx, uint64_t paddr) {
  CpuState& state = cpu(ctx);
  uint64_t ns;
  if (state.llc.Access(paddr)) {
    ns = device_->cost().llc_hit_ns;
    ctx.counters.llc_hits++;
  } else {
    // Below the device size it is a PM line; above, DRAM.
    ns = paddr < device_->size() ? device_->cost().pm_load_random_ns
                                 : device_->cost().dram_load_ns;
    ctx.counters.llc_misses++;
  }
  ctx.clock.Advance(ns);
  return ns;
}

MappedFile::MappedFile(MmapEngine* engine, FaultHandler* handler, uint64_t ino,
                       uint64_t va_base, uint64_t length, bool writable)
    : engine_(engine),
      handler_(handler),
      ino_(ino),
      va_base_(va_base),
      length_(length),
      writable_(writable) {
  chunks_.resize((length + kHugepageSize - 1) / kHugepageSize);
}

MappedFile::~MappedFile() { engine_->Unregister(this); }

Result<uint64_t> MappedFile::TranslateByte(ExecContext& ctx, uint64_t offset, bool write,
                                           uint64_t* walk_ns_out) {
  if (offset >= length_) {
    return ErrorCode::kInvalidArgument;  // SIGBUS territory
  }
  if (write && !writable_) {
    return ErrorCode::kInvalidArgument;
  }
  uint64_t walk_ns = 0;
  const uint64_t vaddr = va_base_ + offset;
  const size_t chunk_idx = offset / kHugepageSize;
  Chunk& chunk = chunks_[chunk_idx];
  Tlb& tlb = engine_->cpu(ctx).tlb;

  auto finish = [&](uint64_t phys) -> Result<uint64_t> {
    if (walk_ns_out != nullptr) {
      *walk_ns_out = walk_ns;
    }
    return phys;
  };

  // Fast path: translation installed and in the TLB.
  if (chunk.state == ChunkState::kHuge) {
    const TlbResult hit = tlb.Lookup(vaddr, /*huge=*/true);
    if (hit == TlbResult::kL1Hit) {
      ctx.counters.tlb_hits++;
      return finish(chunk.huge_phys + offset % kHugepageSize);
    }
    if (hit == TlbResult::kL2Hit) {
      ctx.counters.tlb_l1_misses++;
      ctx.clock.Advance(kStlbHitNs);
      walk_ns += kStlbHitNs;
      return finish(chunk.huge_phys + offset % kHugepageSize);
    }
  } else if (chunk.state == ChunkState::kBase) {
    const size_t page_in_chunk = (offset % kHugepageSize) / kBlockSize;
    if (!chunk.page_phys.empty() && chunk.page_phys[page_in_chunk] != 0) {
      const TlbResult hit = tlb.Lookup(vaddr, /*huge=*/false);
      if (hit == TlbResult::kL1Hit) {
        ctx.counters.tlb_hits++;
        return finish(chunk.page_phys[page_in_chunk] + offset % kBlockSize);
      }
      if (hit == TlbResult::kL2Hit) {
        ctx.counters.tlb_l1_misses++;
        ctx.clock.Advance(kStlbHitNs);
        walk_ns += kStlbHitNs;
        return finish(chunk.page_phys[page_in_chunk] + offset % kBlockSize);
      }
    }
  }

  return TranslateMiss(ctx, offset, write, walk_ns_out);
}

Result<uint64_t> MappedFile::TranslateMiss(ExecContext& ctx, uint64_t offset, bool write,
                                           uint64_t* walk_ns_out) {
  uint64_t walk_ns = 0;
  const uint64_t vaddr = va_base_ + offset;
  const size_t chunk_idx = offset / kHugepageSize;
  Chunk& chunk = chunks_[chunk_idx];
  Tlb& tlb = engine_->cpu(ctx).tlb;

  auto finish = [&](uint64_t phys) -> Result<uint64_t> {
    if (walk_ns_out != nullptr) {
      *walk_ns_out = walk_ns;
    }
    return phys;
  };

  // TLB miss: walk the page table (PTE lines go through the LLC).
  const WalkResult walk = engine_->page_table().Walk(vaddr);
  walk_ns += engine_->ChargeWalk(ctx, walk);
  if (walk.pte.present) {
    ctx.counters.tlb_l2_misses++;
    tlb.Insert(vaddr, walk.pte.huge);
    const uint64_t in_page = walk.pte.huge ? offset % kHugepageSize : offset % kBlockSize;
    return finish(walk.pte.phys + in_page);
  }

  // Page fault. Its zone bills the filesystem's handler and the fixed fault
  // charge to fscore; nothing after the charge advances the clock.
  common::ProfileZone fault_zone(ctx, common::ProfLayer::kFsCore);
  const uint64_t page_offset = common::RoundDown(offset, kBlockSize);
  auto fault = handler_->HandleFault(ctx, ino_, page_offset, write);
  if (!fault.ok()) {
    return fault.status();
  }
  const pmem::CostModel& cost = engine_->device().cost();
  if (fault->huge) {
    assert(common::IsAligned(fault->phys, kHugepageSize));
    const uint64_t chunk_vaddr = va_base_ + chunk_idx * kHugepageSize;
    engine_->page_table().Map(chunk_vaddr, fault->phys, /*huge=*/true, writable_);
    chunk.state = ChunkState::kHuge;
    chunk.huge_phys = fault->phys;
    ctx.clock.Advance(cost.fault_base_ns + cost.fault_huge_extra_ns);
    ctx.counters.page_faults_2m++;
    tlb.Insert(vaddr, /*huge=*/true);
    return finish(fault->phys + offset % kHugepageSize);
  }
  const uint64_t page_vaddr = va_base_ + page_offset;
  engine_->page_table().Map(page_vaddr, fault->phys, /*huge=*/false, writable_);
  chunk.state = ChunkState::kBase;
  if (chunk.page_phys.empty()) {
    chunk.page_phys.assign(common::kBlocksPerHugepage, 0);
  }
  chunk.page_phys[(offset % kHugepageSize) / kBlockSize] = fault->phys;
  ctx.clock.Advance(cost.fault_base_ns);
  ctx.counters.page_faults_4k++;
  tlb.Insert(vaddr, /*huge=*/false);
  return finish(fault->phys + offset % kBlockSize);
}

Status MappedFile::Write(ExecContext& ctx, uint64_t offset, const void* src, uint64_t len) {
  obs::OpScope op_scope(ctx, "mmap_write", common::ProfLayer::kMmu);
  if (offset > length_ || len > length_ - offset) {
    return Status(ErrorCode::kInvalidArgument);
  }
  const uint8_t* cursor = static_cast<const uint8_t*>(src);
  const pmem::CostModel& cost = engine_->device().cost();
  while (len > 0) {
    const uint64_t page_end = common::RoundDown(offset, kBlockSize) + kBlockSize;
    const uint64_t first = std::min<uint64_t>(len, page_end - offset);
    ASSIGN_OR_RETURN(const uint64_t phys, TranslateByte(ctx, offset, /*write=*/true, nullptr));
    uint64_t run = first;
    uint64_t copy_ns = cost.SeqWriteBytes(first);
    const size_t chunk_idx = offset / kHugepageSize;
    if (chunks_[chunk_idx].state == ChunkState::kHuge) {
      // One PMD entry covers the rest of this chunk, and the translation above
      // left it at the front of the L1 TLB, so every further page the per-page
      // loop would visit is a guaranteed L1 hit with zero modeled latency.
      // Charge those hits in bulk and copy the whole run with one memcpy. The
      // copy cost is still summed per 4 KB fragment: SeqWriteBytes rounds up
      // to cachelines per call, so charging the run in one call would diverge
      // for unaligned first/last fragments.
      const uint64_t chunk_end = (chunk_idx + 1) * kHugepageSize;
      const uint64_t rest = std::min<uint64_t>(len, chunk_end - offset) - first;
      const uint64_t full_pages = rest / kBlockSize;
      const uint64_t tail = rest % kBlockSize;
      run += rest;
      copy_ns += full_pages * cost.SeqWriteBytes(kBlockSize);
      if (tail != 0) {
        copy_ns += cost.SeqWriteBytes(tail);
      }
      ctx.counters.tlb_hits += full_pages + (tail != 0 ? 1 : 0);
    }
    std::memcpy(engine_->device().raw_span(phys, run), cursor, run);
    {
      common::ProfileZone copy_zone(ctx, common::ProfLayer::kDevice);
      ctx.clock.Advance(copy_ns);
    }
    ctx.counters.pm_write_bytes += run;
    offset += run;
    cursor += run;
    len -= run;
  }
  return common::OkStatus();
}

Status MappedFile::Read(ExecContext& ctx, uint64_t offset, void* dst, uint64_t len) {
  obs::OpScope op_scope(ctx, "mmap_read", common::ProfLayer::kMmu);
  if (offset > length_ || len > length_ - offset) {
    return Status(ErrorCode::kInvalidArgument);
  }
  uint8_t* cursor = static_cast<uint8_t*>(dst);
  const pmem::CostModel& cost = engine_->device().cost();
  while (len > 0) {
    const uint64_t page_end = common::RoundDown(offset, kBlockSize) + kBlockSize;
    const uint64_t first = std::min<uint64_t>(len, page_end - offset);
    ASSIGN_OR_RETURN(const uint64_t phys, TranslateByte(ctx, offset, /*write=*/false, nullptr));
    uint64_t run = first;
    uint64_t copy_ns = cost.SeqReadBytes(first);
    const size_t chunk_idx = offset / kHugepageSize;
    if (chunks_[chunk_idx].state == ChunkState::kHuge) {
      const uint64_t chunk_end = (chunk_idx + 1) * kHugepageSize;
      const uint64_t rest = std::min<uint64_t>(len, chunk_end - offset) - first;
      const uint64_t full_pages = rest / kBlockSize;
      const uint64_t tail = rest % kBlockSize;
      run += rest;
      copy_ns += full_pages * cost.SeqReadBytes(kBlockSize);
      if (tail != 0) {
        copy_ns += cost.SeqReadBytes(tail);
      }
      ctx.counters.tlb_hits += full_pages + (tail != 0 ? 1 : 0);
    }
    std::memcpy(cursor, engine_->device().raw_span(phys, run), run);
    {
      common::ProfileZone copy_zone(ctx, common::ProfLayer::kDevice);
      ctx.clock.Advance(copy_ns);
    }
    ctx.counters.pm_read_bytes += run;
    offset += run;
    cursor += run;
    len -= run;
  }
  return common::OkStatus();
}

Status MappedFile::LineAccess(ExecContext& ctx, uint64_t offset, bool write, void* data,
                              uint64_t* latency_ns_out) {
  obs::OpScope op_scope(ctx, "mmap_lines", common::ProfLayer::kMmu);
  if (!InOneLine(offset)) {
    return Status(ErrorCode::kInvalidArgument);
  }
  const uint64_t start = ctx.clock.NowNs();
  auto phys = TranslateByte(ctx, offset, write, nullptr);
  if (!phys.ok()) {
    return phys.status();
  }
  engine_->ChargeDataLine(ctx, common::RoundDown(*phys, kCacheline));
  if (write) {
    if (data != nullptr) {
      std::memcpy(engine_->device().raw_span(*phys, 8), data, 8);
    }
    ctx.counters.pm_write_bytes += kCacheline;
  } else {
    if (data != nullptr) {
      std::memcpy(data, engine_->device().raw_span(*phys, 8), 8);
    }
    ctx.counters.pm_read_bytes += kCacheline;
  }
  if (latency_ns_out != nullptr) {
    *latency_ns_out = ctx.clock.NowNs() - start;
  }
  return common::OkStatus();
}

Result<uint64_t> MappedFile::LoadLine(ExecContext& ctx, uint64_t offset, void* dst64) {
  uint64_t latency = 0;
  const Status status = LineAccess(ctx, offset, /*write=*/false, dst64, &latency);
  if (!status.ok()) {
    return status;
  }
  return latency;
}

Result<uint64_t> MappedFile::StoreLine(ExecContext& ctx, uint64_t offset, const void* src64) {
  uint64_t latency = 0;
  const Status status =
      LineAccess(ctx, offset, /*write=*/true, const_cast<void*>(src64), &latency);
  if (!status.ok()) {
    return status;
  }
  return latency;
}

// Declared inline because at -O2 GCC otherwise calls an out-of-line clone
// once per op.
inline void MappedFile::HintLine(const LlcCache& llc, uint64_t offset) const {
  if (offset >= length_) {
    return;
  }
  const Chunk& chunk = chunks_[offset / kHugepageSize];
  uint64_t phys;
  if (chunk.state == ChunkState::kHuge) {
    phys = chunk.huge_phys + offset % kHugepageSize;
  } else if (!chunk.page_phys.empty()) {
    const uint64_t page_phys = chunk.page_phys[(offset % kHugepageSize) / kBlockSize];
    if (page_phys == 0) {
      return;
    }
    phys = page_phys + offset % kBlockSize;
  } else {
    return;
  }
  engine_->device().PrefetchHint(phys);
  llc.PrefetchSet(phys);
}

Status MappedFile::AccessLines(ExecContext& ctx, LineOp* ops, size_t count, bool write) {
  // CPU state and cost constants hoisted once per batch, the TLB-hit
  // translation and LLC data-line charge inlined, and no Result or Status
  // objects on the hit path. Modeled events (counter ticks, clock advances,
  // sampler polls) are emitted exactly as LineAccess would emit them one op
  // at a time; only misses fall back to the out-of-line walk and fault
  // machinery.
  //
  // Software pipeline: on a mapping beyond the host caches each op waits out
  // host misses on its device line and its LLC set's two lines. While op i is
  // modeled, HintLine prefetches all three for op i + kLineLookahead. Op 0 gets
  // no hint, since it is modeled at once and a hint could not land in time;
  // so a one-op batch issues none.
  obs::OpScope op_scope(ctx, "mmap_lines", common::ProfLayer::kMmu);
  MmapEngine::CpuState& cpu_state = engine_->cpu(ctx);
  Tlb& tlb = cpu_state.tlb;
  LlcCache& llc = cpu_state.llc;
  pmem::PmemDevice& dev = engine_->device();
  const pmem::CostModel& cost = dev.cost();
  const uint64_t dev_size = dev.size();
  common::PerfCounters& counters = ctx.counters;
  for (size_t i = 1; i < std::min(count, kLineLookahead); i++) {
    HintLine(llc, ops[i].offset);
  }
  for (size_t i = 0; i < count; i++) {
    if (i + kLineLookahead < count) {
      HintLine(llc, ops[i + kLineLookahead].offset);
    }
    LineOp& op = ops[i];
    const uint64_t offset = op.offset;
    if (offset >= length_ || !InOneLine(offset) || (write && !writable_)) {
      return Status(ErrorCode::kInvalidArgument);
    }
    const uint64_t start = ctx.clock.NowNs();
    const Chunk& chunk = chunks_[offset / kHugepageSize];
    uint64_t phys = 0;
    bool translated = false;
    if (chunk.state == ChunkState::kHuge) {
      const TlbResult hit = tlb.Lookup(va_base_ + offset, /*huge=*/true);
      if (hit != TlbResult::kMiss) {
        if (hit == TlbResult::kL1Hit) {
          counters.tlb_hits++;
        } else {
          counters.tlb_l1_misses++;
          ctx.clock.Advance(kStlbHitNs);
        }
        phys = chunk.huge_phys + offset % kHugepageSize;
        translated = true;
      }
    } else if (chunk.state == ChunkState::kBase && !chunk.page_phys.empty()) {
      const uint64_t page_phys = chunk.page_phys[(offset % kHugepageSize) / kBlockSize];
      if (page_phys != 0) {
        const TlbResult hit = tlb.Lookup(va_base_ + offset, /*huge=*/false);
        if (hit != TlbResult::kMiss) {
          if (hit == TlbResult::kL1Hit) {
            counters.tlb_hits++;
          } else {
            counters.tlb_l1_misses++;
            ctx.clock.Advance(kStlbHitNs);
          }
          phys = page_phys + offset % kBlockSize;
          translated = true;
        }
      }
    }
    if (!translated) {
      auto slow = TranslateMiss(ctx, offset, write, nullptr);
      if (!slow.ok()) {
        return slow.status();
      }
      phys = *slow;
    }
    // ChargeDataLine, inlined against the hoisted CPU state.
    const uint64_t line = phys & ~(kCacheline - 1);
    uint64_t line_ns;
    if (llc.Access(line)) {
      line_ns = cost.llc_hit_ns;
      counters.llc_hits++;
    } else {
      line_ns = line < dev_size ? cost.pm_load_random_ns : cost.dram_load_ns;
      counters.llc_misses++;
    }
    ctx.clock.Advance(line_ns);
    if (write) {
      std::memcpy(dev.raw_span(phys, 8), &op.value, 8);
      counters.pm_write_bytes += kCacheline;
    } else {
      std::memcpy(&op.value, dev.raw_span(phys, 8), 8);
      counters.pm_read_bytes += kCacheline;
    }
    if (ctx.sampler != nullptr) {
      ctx.sampler->MaybeSample(ctx);
    }
    op.latency_ns = ctx.clock.NowNs() - start;
  }
  return common::OkStatus();
}

Status MappedFile::Prefault(ExecContext& ctx, bool write) {
  obs::OpScope op_scope(ctx, "mmap_prefault", common::ProfLayer::kMmu);
  uint64_t offset = 0;
  while (offset < length_) {
    auto phys = TranslateByte(ctx, offset, write, nullptr);
    if (!phys.ok()) {
      return phys.status();
    }
    const size_t chunk_idx = offset / kHugepageSize;
    if (chunks_[chunk_idx].state == ChunkState::kHuge) {
      // The rest of this chunk's 4 KB steps would all be L1 TLB hits against
      // the entry just installed/refreshed — no clock movement, one tlb_hits
      // tick each. Skip straight to the next chunk.
      const uint64_t chunk_end = std::min((chunk_idx + 1) * kHugepageSize, length_);
      ctx.counters.tlb_hits += (chunk_end - 1) / kBlockSize - offset / kBlockSize;
      offset = chunk_end;
    } else {
      offset += kBlockSize;
    }
  }
  return common::OkStatus();
}

double MappedFile::HugeMappedFraction() const {
  if (length_ == 0) {
    return 0.0;
  }
  uint64_t huge_bytes = 0;
  for (size_t i = 0; i < chunks_.size(); i++) {
    if (chunks_[i].state == ChunkState::kHuge) {
      const uint64_t chunk_start = i * kHugepageSize;
      huge_bytes += std::min(kHugepageSize, length_ - chunk_start);
    }
  }
  return static_cast<double>(huge_bytes) / static_cast<double>(length_);
}

void MappedFile::UnmapAll(ExecContext& ctx) {
  (void)ctx;
  for (size_t i = 0; i < chunks_.size(); i++) {
    Chunk& chunk = chunks_[i];
    const uint64_t chunk_vaddr = va_base_ + i * kHugepageSize;
    if (chunk.state == ChunkState::kHuge) {
      engine_->page_table().Unmap(chunk_vaddr, /*huge=*/true);
    } else if (chunk.state == ChunkState::kBase) {
      for (size_t p = 0; p < chunk.page_phys.size(); p++) {
        if (chunk.page_phys[p] != 0) {
          engine_->page_table().Unmap(chunk_vaddr + p * kBlockSize, /*huge=*/false);
        }
      }
    }
    chunk = Chunk{};
  }
  // TLB shootdown on every CPU.
  for (auto& state : engine_->cpus_) {
    state->tlb.Flush();
  }
}

}  // namespace vmem
