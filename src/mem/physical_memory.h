// Simulated host DRAM plus an MMIO-capable physical address map.
//
// The paper's Appendix B describes two mapping directions:
//   device -> VM : RNIC doorbell registers appear in the CPU physical
//                  address space (PCI MMIO) and are mapped up into the
//                  guest application's virtual address space;
//   VM -> device : guest buffers (QPs, MRs) are pinned and translated
//                  GVA -> GPA -> HVA -> HPA so the RNIC can DMA them.
// HostPhysMap is the root of both chains: DRAM occupies [0, dram_size) and
// device BARs are registered above it. Reads/writes route to DRAM bytes or
// to device callbacks. Real payload bytes live here — RDMA operations in
// this code base move actual data.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "sim/flat_map.h"

namespace mem {

using Addr = std::uint64_t;

inline constexpr Addr kPageSize = 4096;
inline constexpr Addr kPageMask = kPageSize - 1;

inline constexpr Addr page_floor(Addr a) { return a & ~kPageMask; }
inline constexpr Addr page_ceil(Addr a) { return (a + kPageMask) & ~kPageMask; }
inline constexpr Addr page_number(Addr a) { return a / kPageSize; }

// Sparse byte store: chunks materialize on first write, reads of untouched
// ranges yield zeros. Lets a testbed model 96 GiB hosts (Table 5) while
// only paying real memory for bytes applications actually touch.
class SparseBytes {
 public:
  explicit SparseBytes(Addr size) : size_(size) {}

  Addr size() const { return size_; }

  void read(Addr addr, std::span<std::uint8_t> out) const;
  void write(Addr addr, std::span<const std::uint8_t> in);

 private:
  static constexpr Addr kChunkBytes = 64 * 1024;

  Addr size_;
  sim::FlatMap<Addr, std::vector<std::uint8_t>> chunks_;  // chunk idx -> bytes
};

// A device exposing memory-mapped registers (e.g. an RNIC doorbell BAR).
class MmioDevice {
 public:
  virtual ~MmioDevice() = default;
  // `offset` is relative to the BAR base.
  virtual void mmio_write(Addr offset, std::uint64_t value) = 0;
  virtual std::uint64_t mmio_read(Addr offset) = 0;
};

// The host physical address (HPA) space: DRAM plus registered MMIO BARs.
class HostPhysMap {
 public:
  explicit HostPhysMap(Addr dram_size);

  Addr dram_size() const { return dram_.size(); }

  // Allocates `n_pages` contiguous DRAM pages; returns HPA of the first.
  // Throws std::bad_alloc when DRAM is exhausted.
  Addr alloc_pages(Addr n_pages);
  void free_pages(Addr hpa, Addr n_pages);
  // Pages currently allocated (for the Table-5 max-VM experiment).
  Addr allocated_pages() const { return allocated_pages_; }

  // Registers a device BAR of `size` bytes; returns its HPA base.
  Addr register_mmio(Addr size, MmioDevice* device);

  bool is_mmio(Addr hpa) const;

  // Byte access. DRAM accesses may cross pages; MMIO accesses must be
  // 8-byte aligned single words. Out-of-range access throws.
  void read(Addr hpa, std::span<std::uint8_t> out) const;
  void write(Addr hpa, std::span<const std::uint8_t> in);
  std::uint64_t read_u64(Addr hpa) const;
  void write_u64(Addr hpa, std::uint64_t value);

 private:
  struct MmioRange {
    Addr base;
    Addr size;
    MmioDevice* device;
  };
  const MmioRange* find_mmio(Addr hpa) const;

  SparseBytes dram_;
  // Free list keyed by start page -> page count; adjacent ranges coalesced.
  // masq-lint: allow(container) first-fit/coalescing walk in address order
  std::map<Addr, Addr> free_list_;
  Addr allocated_pages_ = 0;
  std::vector<MmioRange> mmio_;
  Addr next_mmio_base_;
};

}  // namespace mem
