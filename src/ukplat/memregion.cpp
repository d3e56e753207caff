#include "ukplat/memregion.h"

#include <sys/mman.h>

#include <new>

#include "ukarch/align.h"

namespace ukplat {

AnonPages::AnonPages(std::size_t bytes) : size_(bytes) {
  if (bytes == 0) {
    return;
  }
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) {
    throw std::bad_alloc();
  }
  base_ = static_cast<std::byte*>(p);
}

AnonPages::~AnonPages() {
  if (base_ != nullptr) {
    munmap(base_, size_);
  }
}

void AnonPages::Discard() {
  if (base_ != nullptr && madvise(base_, size_, MADV_DONTNEED) != 0) {
    std::memset(base_, 0, size_);  // the zero guarantee holds either way
  }
}

MemRegion::MemRegion(std::size_t bytes) : mem_(bytes) {}

std::byte* MemRegion::At(std::uint64_t gpa, std::size_t len) {
  if (gpa > mem_.size() || len > mem_.size() - gpa) {
    return nullptr;
  }
  return mem_.data() + gpa;
}

const std::byte* MemRegion::At(std::uint64_t gpa, std::size_t len) const {
  if (gpa > mem_.size() || len > mem_.size() - gpa) {
    return nullptr;
  }
  return mem_.data() + gpa;
}

bool MemRegion::CopyIn(std::uint64_t gpa, std::span<const std::byte> src) {
  std::byte* p = At(gpa, src.size());
  if (p == nullptr) {
    ++fault_count_;
    return false;
  }
  std::memcpy(p, src.data(), src.size());
  return true;
}

bool MemRegion::CopyOut(std::uint64_t gpa, std::span<std::byte> dst) const {
  const std::byte* p = At(gpa, dst.size());
  if (p == nullptr) {
    ++fault_count_;
    return false;
  }
  std::memcpy(dst.data(), p, dst.size());
  return true;
}

std::uint64_t MemRegion::Carve(std::size_t bytes, std::size_t align) {
  std::uint64_t base = ukarch::AlignUp(carve_brk_, align == 0 ? 1 : align);
  if (base > mem_.size() || bytes > mem_.size() - base) {
    return kBadGpa;
  }
  carve_brk_ = base + bytes;
  return base;
}

}  // namespace ukplat
