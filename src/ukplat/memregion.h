// ukplat/memregion.h - guest-physical memory for a simulated unikernel.
//
// Each ukboot::Instance owns one contiguous MemRegion that plays the role of
// guest RAM: allocators carve their heaps out of it, virtqueues place their
// rings in it, and devices address buffers by guest-physical address (gpa =
// offset into the region). Bounds are checked on every translation so driver
// bugs surface as errors instead of host memory corruption.
//
// Pages are backed on demand, the way a VMM backs guest RAM: the region is
// an anonymous mapping whose pages fault in zero-filled on first touch, so a
// region costs the host only what the guest has written, and a reset drops
// the pages instead of rewriting every byte.
#ifndef UKPLAT_MEMREGION_H_
#define UKPLAT_MEMREGION_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace ukplat {

// Anonymous demand-zero host memory: every byte reads zero until written,
// and only touched pages occupy host RAM. Backs MemRegion and RamDisk.
class AnonPages {
 public:
  // Maps |bytes| (throws std::bad_alloc when the host refuses the mapping).
  explicit AnonPages(std::size_t bytes);
  ~AnonPages();

  AnonPages(const AnonPages&) = delete;
  AnonPages& operator=(const AnonPages&) = delete;

  std::byte* data() const { return base_; }
  std::size_t size() const { return size_; }

  // Returns every byte to zero by dropping the pages (MADV_DONTNEED): the
  // next touch faults in a fresh zero page.
  void Discard();

 private:
  std::byte* base_ = nullptr;
  std::size_t size_ = 0;
};

class MemRegion {
 public:
  // Creates a zero-initialized region of |bytes| guest RAM, backed on demand.
  explicit MemRegion(std::size_t bytes);

  MemRegion(const MemRegion&) = delete;
  MemRegion& operator=(const MemRegion&) = delete;

  std::size_t size() const { return mem_.size(); }

  // Translates |gpa| into a host pointer valid for |len| bytes, or nullptr if
  // the access would escape the region.
  std::byte* At(std::uint64_t gpa, std::size_t len);
  const std::byte* At(std::uint64_t gpa, std::size_t len) const;

  // Typed little-endian accessors used by the virtqueue code. Out-of-bounds
  // reads return T{}; out-of-bounds writes are dropped. Both are recorded in
  // fault_count() so tests can assert no stray accesses happened.
  template <typename T>
  T Read(std::uint64_t gpa) const {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::byte* p = At(gpa, sizeof(T));
    if (p == nullptr) {
      ++fault_count_;
      return T{};
    }
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
  }

  template <typename T>
  void Write(std::uint64_t gpa, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::byte* p = At(gpa, sizeof(T));
    if (p == nullptr) {
      ++fault_count_;
      return;
    }
    std::memcpy(p, &v, sizeof(T));
  }

  // Bulk copies with bounds checking; return false (and count a fault) on OOB.
  bool CopyIn(std::uint64_t gpa, std::span<const std::byte> src);
  bool CopyOut(std::uint64_t gpa, std::span<std::byte> dst) const;

  std::uint64_t fault_count() const { return fault_count_; }

  // Reverse translation: gpa of a host pointer into this region, or kBadGpa
  // when the pointer does not belong to the region. Lets allocations made
  // from a heap that lives in guest RAM be handed to devices by address.
  std::uint64_t GpaOf(const void* p) const {
    auto* b = static_cast<const std::byte*>(p);
    if (b < mem_.data() || b >= mem_.data() + mem_.size()) {
      return kBadGpa;
    }
    return static_cast<std::uint64_t>(b - mem_.data());
  }

  // Simple bump carve-out used during early boot to place rings and heaps.
  // Returns the gpa of an |align|-aligned block of |bytes|, or UINT64_MAX if
  // the region is exhausted.
  std::uint64_t Carve(std::size_t bytes, std::size_t align);
  std::uint64_t carve_brk() const { return carve_brk_; }

  // Returns the region to its power-on state: every byte zeroed (the pages
  // are dropped, not rewritten) and the boot carve pointer rewound. Instance
  // reboot uses this so the same guest RAM can host a fresh boot sequence;
  // callers must have dropped every pointer into the region first (heaps,
  // rings, page tables).
  void Reset() {
    mem_.Discard();
    carve_brk_ = 0;
  }

  static constexpr std::uint64_t kBadGpa = UINT64_MAX;

 private:
  AnonPages mem_;
  std::uint64_t carve_brk_ = 0;
  mutable std::uint64_t fault_count_ = 0;
};

}  // namespace ukplat

#endif  // UKPLAT_MEMREGION_H_
