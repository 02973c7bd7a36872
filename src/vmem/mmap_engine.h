// Memory-map simulation: address-space management, translation (TLB + page
// walk through the LLC), page-fault dispatch into the owning filesystem, and
// cost accounting for mapped access.
//
// Hugepage rule (paper §2.2): a 2 MB chunk of a mapping is served by one PMD
// entry iff the filesystem can hand back a physical extent that covers the
// whole 2 MB-aligned file chunk and is itself 2 MB-aligned. Otherwise every
// 4 KB page faults separately and occupies its own TLB entry.
#ifndef SRC_VMEM_MMAP_ENGINE_H_
#define SRC_VMEM_MMAP_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/exec_context.h"
#include "src/common/result.h"
#include "src/obs/gauges.h"
#include "src/pmem/device.h"
#include "src/vmem/llc_cache.h"
#include "src/vmem/mmu_params.h"
#include "src/vmem/page_table.h"
#include "src/vmem/tlb.h"

namespace vmem {

// Implemented by filesystems: resolve a page fault on a DAX mapping.
class FaultHandler {
 public:
  struct FaultMapping {
    // Device offset of the start of the mapped unit (2 MB chunk if huge,
    // 4 KB page otherwise).
    uint64_t phys = 0;
    bool huge = false;
  };

  virtual ~FaultHandler() = default;

  // `page_offset` is the 4 KB-aligned file offset that faulted; `write` tells
  // the FS whether this is an allocating (write) fault. The FS charges any
  // fault-path work (allocation, zeroing) to ctx.clock itself.
  virtual common::Result<FaultMapping> HandleFault(common::ExecContext& ctx, uint64_t ino,
                                                   uint64_t page_offset, bool write) = 0;
};

class MmapEngine;

// One batched single-cacheline access; see MappedFile::AccessLines.
struct LineOp {
  // Byte offset within the mapping. The 8 bytes moved must lie inside one
  // 64 B line (offset % 64 <= 56); otherwise the op fails with
  // kInvalidArgument, since the bytes past the line may belong to another
  // page and another file.
  uint64_t offset = 0;
  uint64_t value = 0;       // loads: first 8 bytes read; stores: 8 bytes to write
  uint64_t latency_ns = 0;  // out: modeled latency of this access
};

// One mmap'd file region. All accesses go through the cost-accounted APIs.
// Each public data-path call ends as one op of its own for the attached
// observers (obs::OpScope, root zone mmu): mmap_write, mmap_read, mmap_lines
// (LoadLine, StoreLine, AccessLines) and mmap_prefault. Inside it, each page
// fault is an fscore zone (the filesystem's handler plus the fixed fault
// charge) and each bulk Write/Read copy a device zone.
class MappedFile {
 public:
  ~MappedFile();

  uint64_t length() const { return length_; }
  uint64_t va_base() const { return va_base_; }
  uint64_t ino() const { return ino_; }

  // Bulk sequential access (memcpy-style): data charged at streaming rates,
  // bytes actually copied to/from the device. Translation is modeled per 4 KB
  // page, but a run of pages inside one huge-mapped chunk is translated once
  // and copied with a single memcpy of up to 2 MB — the per-page TLB hits the
  // reference loop would record are charged in bulk, so counters and the
  // simulated clock are identical either way.
  common::Status Write(common::ExecContext& ctx, uint64_t offset, const void* src,
                       uint64_t len);
  common::Status Read(common::ExecContext& ctx, uint64_t offset, void* dst, uint64_t len);

  // Single-cacheline access with full TLB + LLC modeling; for pointer-chasing
  // and random-read workloads (Fig 4, Fig 8). Returns the modeled latency in
  // nanoseconds (also charged to ctx.clock). `offset` obeys LineOp's rule.
  common::Result<uint64_t> LoadLine(common::ExecContext& ctx, uint64_t offset, void* dst64);
  common::Result<uint64_t> StoreLine(common::ExecContext& ctx, uint64_t offset,
                                     const void* src64);

  // Batched cacheline accesses: modeled events (TLB, LLC, clock, counters,
  // sampler polls) are emitted exactly as if LoadLine/StoreLine were called
  // once per op, but Result/latency plumbing is amortized across the batch
  // and the host loads of later ops are prefetched while earlier ones are
  // modeled. Stops at the first failing op and returns its status.
  common::Status AccessLines(common::ExecContext& ctx, LineOp* ops, size_t count, bool write);

  // Faults in every page of the mapping (MAP_POPULATE-style).
  common::Status Prefault(common::ExecContext& ctx, bool write);

  // Fraction of the file currently mapped with hugepages (by bytes).
  double HugeMappedFraction() const;

  // Drops all translations (used by remap after reactive rewriting).
  void UnmapAll(common::ExecContext& ctx);

 private:
  friend class MmapEngine;

  enum class ChunkState : uint8_t { kUnmapped = 0, kBase, kHuge };

  struct Chunk {
    ChunkState state = ChunkState::kUnmapped;
    uint64_t huge_phys = 0;
    // For base-mapped chunks: per-4KB-page device offsets (0 = unmapped; the
    // device never maps page 0 to user data because the superblock lives there).
    std::vector<uint64_t> page_phys;
  };

  MappedFile(MmapEngine* engine, FaultHandler* handler, uint64_t ino, uint64_t va_base,
             uint64_t length, bool writable);

  // Returns the device offset of `offset`'s byte, faulting if needed.
  common::Result<uint64_t> TranslateByte(common::ExecContext& ctx, uint64_t offset, bool write,
                                         uint64_t* walk_ns_out);

  // Slow tail of TranslateByte after a TLB miss: page walk, TLB refill, and
  // (if the translation is absent) fault dispatch. Split out so AccessLines'
  // batched loop can inline the TLB-hit cases and fall back here without
  // repeating the lookup.
  common::Result<uint64_t> TranslateMiss(common::ExecContext& ctx, uint64_t offset, bool write,
                                         uint64_t* walk_ns_out);

  // Host cache hints for `offset`'s device line and its simulated-LLC set,
  // from chunks_ alone: no TLB, LLC, page-table, clock, counter or COW state
  // is read or changed, so modeled output cannot depend on them. Issues
  // nothing for an offset outside the mapping or on a page not mapped yet.
  void HintLine(const LlcCache& llc, uint64_t offset) const;

  // Shared body of LoadLine/StoreLine/AccessLines. `data` may be null (charge
  // the access without moving bytes, matching the nullable LoadLine/StoreLine
  // arguments); `latency_ns_out` may be null.
  common::Status LineAccess(common::ExecContext& ctx, uint64_t offset, bool write, void* data,
                            uint64_t* latency_ns_out);

  MmapEngine* engine_;
  FaultHandler* handler_;
  uint64_t ino_;
  uint64_t va_base_;
  uint64_t length_;
  bool writable_;
  std::vector<Chunk> chunks_;
};

class MmapEngine : public obs::GaugeProvider {
 public:
  MmapEngine(pmem::PmemDevice* device, MmuParams params, uint32_t num_cpus = 1);

  // Establishes a mapping of the file's first `length` bytes.
  std::unique_ptr<MappedFile> Mmap(FaultHandler* handler, uint64_t ino, uint64_t length,
                                   bool writable);

  pmem::PmemDevice& device() { return *device_; }
  const MmuParams& params() const { return params_; }
  PageTable& page_table() { return page_table_; }

  // DRAM footprint of page tables, for §5.7.
  uint64_t PageTableBytes() const { return page_table_.MemoryBytes(); }

  // Hugepage coverage of the live mappings: mapping count, total mapped
  // bytes, byte-weighted fraction served by 2 MB PMD entries, and page-table
  // DRAM footprint. Mappings register at Mmap and unregister at destruction.
  void SampleGauges(obs::GaugeSample& out) override;

 private:
  friend class MappedFile;

  struct CpuState {
    explicit CpuState(const MmuParams& params) : tlb(params), llc(params) {}
    Tlb tlb;
    LlcCache llc;
  };

  CpuState& cpu(common::ExecContext& ctx) {
    return *cpus_[ctx.cpu % cpus_.size()];
  }

  // Charges a page walk (PTE reads through the LLC) and returns its cost.
  uint64_t ChargeWalk(common::ExecContext& ctx, const WalkResult& walk);

  // Charges one data-line access through the LLC; returns its cost.
  uint64_t ChargeDataLine(common::ExecContext& ctx, uint64_t paddr);

  void Register(MappedFile* file);
  void Unregister(MappedFile* file);

  pmem::PmemDevice* device_;
  MmuParams params_;
  PageTable page_table_;
  std::vector<std::unique_ptr<CpuState>> cpus_;
  std::mutex va_mu_;
  uint64_t next_va_;
  std::mutex live_mu_;
  std::vector<MappedFile*> live_;  // mappings currently alive (gauge probe)
};

}  // namespace vmem

#endif  // SRC_VMEM_MMAP_ENGINE_H_
