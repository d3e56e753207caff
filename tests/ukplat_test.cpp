// Tests for the platform substrate: clock ledger, guest memory, virtqueue
// ring semantics, wire fabric.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "ukplat/clock.h"
#include "ukplat/memregion.h"
#include "ukplat/virtqueue.h"
#include "ukplat/vmm.h"
#include "ukplat/wire.h"

namespace {

using namespace ukplat;

TEST(Clock, ChargeAccumulates) {
  Clock c;
  c.Charge(100);
  c.Charge(44);
  EXPECT_EQ(c.cycles(), 144u);
  EXPECT_NEAR(c.nanoseconds(), 40.0, 0.01);  // 144 cycles at 3.6 GHz
}

TEST(Clock, CopyCostScalesWithBytes) {
  Clock c;
  c.ChargeCopy(1600);
  EXPECT_EQ(c.cycles(), 100u);  // 0.0625 cycles/byte
}

TEST(Clock, SpanMeasuresDelta) {
  Clock c;
  c.Charge(50);
  ClockSpan span(c);
  c.Charge(25);
  EXPECT_EQ(span.ElapsedCycles(), 25u);
}

TEST(CostModel, Table1ConstantsPreserved) {
  CostModel m;
  // These are the paper's Table 1 numbers; the syscall-cost bench depends on
  // them, so changing them must be a conscious decision.
  EXPECT_EQ(m.syscall_trap_mitigated, 222u);
  EXPECT_EQ(m.syscall_trap_plain, 154u);
  EXPECT_EQ(m.binary_compat_dispatch, 84u);
  EXPECT_EQ(m.function_call, 4u);
}

TEST(MemRegion, BoundsChecked) {
  MemRegion mem(4096);
  EXPECT_NE(mem.At(0, 4096), nullptr);
  EXPECT_EQ(mem.At(0, 4097), nullptr);
  EXPECT_EQ(mem.At(4096, 1), nullptr);
  EXPECT_NE(mem.At(4095, 1), nullptr);
}

TEST(MemRegion, ReadWriteRoundTrip) {
  MemRegion mem(256);
  mem.Write<std::uint32_t>(16, 0xdeadbeef);
  EXPECT_EQ(mem.Read<std::uint32_t>(16), 0xdeadbeefu);
  EXPECT_EQ(mem.fault_count(), 0u);
}

TEST(MemRegion, OutOfBoundsCountsFaults) {
  MemRegion mem(16);
  mem.Write<std::uint64_t>(12, 1);  // spans past the end
  EXPECT_EQ(mem.Read<std::uint64_t>(12), 0u);
  EXPECT_EQ(mem.fault_count(), 2u);
}

TEST(MemRegion, FreshAndResetRegionsReadAllZero) {
  // Backed on demand: nothing is written at construction, yet every byte
  // reads zero, and Reset drops what the guest wrote back to zero. The odd
  // size leaves a partial last page.
  constexpr std::size_t kBytes = (3 << 20) + 123;
  MemRegion mem(kBytes);
  auto all_zero = [&] {
    const std::byte* p = mem.At(0, kBytes);
    return p != nullptr &&
           std::all_of(p, p + kBytes, [](std::byte b) { return b == std::byte{0}; });
  };
  EXPECT_TRUE(all_zero());
  for (std::uint64_t gpa : {std::uint64_t{0}, std::uint64_t{4095}, std::uint64_t{1 << 20},
                            std::uint64_t{kBytes - 8}}) {
    mem.Write<std::uint64_t>(gpa, ~0ull);
  }
  ASSERT_NE(mem.Carve(4096, 64), MemRegion::kBadGpa);
  mem.Reset();
  EXPECT_TRUE(all_zero());
  EXPECT_EQ(mem.carve_brk(), 0u);
  EXPECT_EQ(mem.Read<std::uint64_t>(kBytes - 8), 0u);
  EXPECT_EQ(mem.fault_count(), 0u);
}

TEST(MemRegion, CarveAlignsAndExhausts) {
  MemRegion mem(1024);
  std::uint64_t a = mem.Carve(100, 64);
  std::uint64_t b = mem.Carve(100, 64);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 100);
  EXPECT_EQ(mem.Carve(10'000, 64), MemRegion::kBadGpa);
}

class VirtqueueTest : public ::testing::Test {
 protected:
  VirtqueueTest() : mem_(1 << 20) {
    std::uint64_t ring_gpa = mem_.Carve(Virtqueue::FootprintBytes(kQSize), 16);
    vq_ = std::make_unique<Virtqueue>(&mem_, ring_gpa, kQSize);
    data_gpa_ = mem_.Carve(65536, 16);
  }

  static constexpr std::uint16_t kQSize = 8;
  MemRegion mem_;
  std::unique_ptr<Virtqueue> vq_;
  std::uint64_t data_gpa_ = 0;
};

TEST_F(VirtqueueTest, EnqueuePopPushComplete) {
  const char msg[] = "hello virtio";
  mem_.CopyIn(data_gpa_, std::as_bytes(std::span(msg)));
  int cookie = 7;
  Virtqueue::Segment seg{data_gpa_, sizeof(msg), false};
  ASSERT_TRUE(vq_->Enqueue(std::span(&seg, 1), &cookie));
  EXPECT_TRUE(vq_->NeedsKick());
  vq_->MarkKicked();
  EXPECT_FALSE(vq_->NeedsKick());

  auto chain = vq_->DevicePop();
  ASSERT_TRUE(chain.has_value());
  ASSERT_EQ(chain->segments.size(), 1u);
  EXPECT_EQ(chain->segments[0].gpa, data_gpa_);
  EXPECT_EQ(chain->segments[0].len, sizeof(msg));
  char readback[sizeof(msg)];
  mem_.CopyOut(chain->segments[0].gpa, std::as_writable_bytes(std::span(readback)));
  EXPECT_STREQ(readback, msg);

  vq_->DevicePush(chain->head, 0);
  auto done = vq_->DequeueCompletion();
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->cookie, &cookie);
  EXPECT_EQ(vq_->NumFree(), kQSize);
}

TEST_F(VirtqueueTest, ChainedSegments) {
  Virtqueue::Segment segs[3] = {
      {data_gpa_, 100, false},
      {data_gpa_ + 128, 200, false},
      {data_gpa_ + 512, 300, true},
  };
  ASSERT_TRUE(vq_->Enqueue(std::span(segs), nullptr));
  EXPECT_EQ(vq_->NumFree(), kQSize - 3);

  auto chain = vq_->DevicePop();
  ASSERT_TRUE(chain.has_value());
  ASSERT_EQ(chain->segments.size(), 3u);
  EXPECT_FALSE(chain->segments[0].device_writable);
  EXPECT_TRUE(chain->segments[2].device_writable);
  EXPECT_EQ(chain->segments[1].len, 200u);

  vq_->DevicePush(chain->head, 300);
  auto done = vq_->DequeueCompletion();
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->written, 300u);
  EXPECT_EQ(vq_->NumFree(), kQSize);
}

TEST_F(VirtqueueTest, FillsAndRefuses) {
  Virtqueue::Segment seg{data_gpa_, 16, false};
  for (int i = 0; i < kQSize; ++i) {
    ASSERT_TRUE(vq_->Enqueue(std::span(&seg, 1), nullptr));
  }
  EXPECT_EQ(vq_->NumFree(), 0);
  EXPECT_FALSE(vq_->Enqueue(std::span(&seg, 1), nullptr));
}

TEST_F(VirtqueueTest, RingWrapsCleanly) {
  // Cycle 5x the queue size through the ring to exercise index wrap-around.
  Virtqueue::Segment seg{data_gpa_, 64, false};
  for (int round = 0; round < 5 * kQSize; ++round) {
    ASSERT_TRUE(vq_->Enqueue(std::span(&seg, 1), reinterpret_cast<void*>(
                                                     static_cast<std::uintptr_t>(round + 1))));
    auto chain = vq_->DevicePop();
    ASSERT_TRUE(chain.has_value());
    vq_->DevicePush(chain->head, 0);
    auto done = vq_->DequeueCompletion();
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(done->cookie),
              static_cast<std::uintptr_t>(round + 1));
  }
  EXPECT_EQ(vq_->bad_chains(), 0u);
  EXPECT_EQ(mem_.fault_count(), 0u);
}

TEST_F(VirtqueueTest, DeviceSeesWorkOnlyAfterEnqueue) {
  EXPECT_FALSE(vq_->DeviceHasWork());
  EXPECT_FALSE(vq_->DevicePop().has_value());
  Virtqueue::Segment seg{data_gpa_, 16, false};
  ASSERT_TRUE(vq_->Enqueue(std::span(&seg, 1), nullptr));
  EXPECT_TRUE(vq_->DeviceHasWork());
}

TEST_F(VirtqueueTest, OutOfOrderDeviceCompletion) {
  Virtqueue::Segment seg{data_gpa_, 16, false};
  int c1 = 1, c2 = 2;
  ASSERT_TRUE(vq_->Enqueue(std::span(&seg, 1), &c1));
  ASSERT_TRUE(vq_->Enqueue(std::span(&seg, 1), &c2));
  auto first = vq_->DevicePop();
  auto second = vq_->DevicePop();
  ASSERT_TRUE(first && second);
  // Device completes the second chain first (allowed by the spec).
  vq_->DevicePush(second->head, 0);
  vq_->DevicePush(first->head, 0);
  auto d1 = vq_->DequeueCompletion();
  auto d2 = vq_->DequeueCompletion();
  ASSERT_TRUE(d1 && d2);
  EXPECT_EQ(d1->cookie, &c2);
  EXPECT_EQ(d2->cookie, &c1);
}

TEST(WireTest, DeliversInOrder) {
  Clock clock;
  Wire wire(&clock);
  ASSERT_TRUE(wire.Send(0, {1, 2, 3}));
  ASSERT_TRUE(wire.Send(0, {4, 5}));
  auto f1 = wire.Receive(1);
  auto f2 = wire.Receive(1);
  ASSERT_TRUE(f1 && f2);
  EXPECT_EQ(f1->size(), 3u);
  EXPECT_EQ(f2->size(), 2u);
  EXPECT_FALSE(wire.Receive(1).has_value());
}

TEST(WireTest, DirectionsIndependent) {
  Clock clock;
  Wire wire(&clock);
  ASSERT_TRUE(wire.Send(0, {1}));
  EXPECT_FALSE(wire.Receive(0).has_value());  // side 0 reads B->A traffic
  EXPECT_TRUE(wire.Receive(1).has_value());
}

TEST(WireTest, EnforcesMtuAndQueueDepth) {
  Clock clock;
  Wire::Config cfg;
  cfg.mtu = 100;
  cfg.queue_depth = 2;
  Wire wire(&clock, cfg);
  EXPECT_FALSE(wire.Send(0, std::vector<std::uint8_t>(200)));
  EXPECT_TRUE(wire.Send(0, std::vector<std::uint8_t>(50)));
  EXPECT_TRUE(wire.Send(0, std::vector<std::uint8_t>(50)));
  EXPECT_FALSE(wire.Send(0, std::vector<std::uint8_t>(50)));  // queue full
  EXPECT_EQ(wire.frames_dropped(), 2u);
}

TEST(WireTest, ChargesSerializationDelay) {
  Clock clock;
  Wire wire(&clock);
  wire.Send(0, std::vector<std::uint8_t>(1250));  // 1250B at 10G = 1000ns
  EXPECT_NEAR(clock.nanoseconds(), 1000.0, 5.0);
}

TEST(WireTest, DeterministicDropRate) {
  Clock clock;
  Wire::Config cfg;
  cfg.drop_rate = 0.25;  // every 4th frame
  Wire wire(&clock, cfg);
  int delivered = 0;
  for (int i = 0; i < 100; ++i) {
    if (wire.Send(0, {0})) {
      ++delivered;
    }
  }
  EXPECT_EQ(delivered, 75);
}

TEST(VmmModels, OrderingMatchesFig10) {
  // Paper Fig 10: QEMU slowest, microVM middle, Solo5/Firecracker ~3ms.
  EXPECT_GT(VmmModel::Qemu().LaunchUs(0), VmmModel::QemuMicroVm().LaunchUs(0));
  EXPECT_GT(VmmModel::QemuMicroVm().LaunchUs(0), VmmModel::Solo5().LaunchUs(0));
  EXPECT_LT(VmmModel::Firecracker().LaunchUs(0), 4000.0);
  // Adding a NIC costs more on QEMU (PCI) than on Firecracker (MMIO).
  double qemu_nic = VmmModel::Qemu().LaunchUs(1) - VmmModel::Qemu().LaunchUs(0);
  double fc_nic = VmmModel::Firecracker().LaunchUs(1) - VmmModel::Firecracker().LaunchUs(0);
  EXPECT_GT(qemu_nic, fc_nic);
}

}  // namespace
