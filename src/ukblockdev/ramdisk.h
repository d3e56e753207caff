// ukblockdev/ramdisk.h - RAM-backed block device (the paper's RamFS-class
// guests "do not include a block subsystem"; the ramdisk exists for tests and
// for images that want a block layer without virtio).
#ifndef UKBLOCKDEV_RAMDISK_H_
#define UKBLOCKDEV_RAMDISK_H_

#include <deque>
#include <span>

#include "ukblockdev/blockdev.h"
#include "ukplat/memregion.h"

namespace ukblockdev {

class RamDisk final : public BlockDev {
 public:
  RamDisk(ukplat::MemRegion* guest_mem, std::uint64_t sectors,
          std::uint32_t sector_bytes = 512);

  const char* name() const override { return "ramdisk"; }
  Geometry geometry() const override { return geom_; }
  bool Submit(Request* req) override;
  std::size_t ProcessCompletions(std::size_t max) override;

  // Test hook: direct access to backing bytes.
  std::span<std::uint8_t> backing() {
    return {reinterpret_cast<std::uint8_t*>(disk_.data()), disk_.size()};
  }

  // Flush requests completed. The ramdisk has no volatile write cache, so a
  // flush is a counted no-op — vfscore::File::Fsync still reaches it and the
  // counter lets tests assert the plumbing end to end.
  std::uint64_t flushes() const { return flushes_; }

 private:
  std::int32_t Execute(Request* req);

  ukplat::MemRegion* guest_mem_;
  Geometry geom_;
  // Backed on demand like guest RAM: sectors never written read as zero and
  // occupy no host memory.
  ukplat::AnonPages disk_;
  std::deque<Request*> completed_;
  std::uint64_t flushes_ = 0;
};

}  // namespace ukblockdev

#endif  // UKBLOCKDEV_RAMDISK_H_
