// Tests for ukboot: page-table construction/walks (Fig 21 substrate), boot
// sequencing, inittab ordering, minimum-memory failure modes (Fig 11).
#include <gtest/gtest.h>

#include <algorithm>

#include "ukboot/instance.h"
#include "ukboot/pagetable.h"

namespace {

using namespace ukboot;

class PageTableTest : public ::testing::Test {
 protected:
  PageTableTest() : mem_(64 << 20), builder_(&mem_) {}
  ukplat::MemRegion mem_;
  PageTableBuilder builder_;
};

TEST_F(PageTableTest, IdentityMap4K) {
  std::uint64_t root = builder_.CreateRoot();
  ASSERT_NE(root, PageTableBuilder::kBadGpa);
  ASSERT_TRUE(builder_.MapRange(root, 0, 1 << 20, LeafSize::k4K));
  for (std::uint64_t addr : {0ull, 4096ull, 123456ull, (1ull << 20) - 1}) {
    auto phys = builder_.Walk(root, addr);
    ASSERT_TRUE(phys.has_value()) << addr;
    EXPECT_EQ(*phys, addr);
  }
  EXPECT_FALSE(builder_.Walk(root, 2 << 20).has_value());
}

TEST_F(PageTableTest, IdentityMap2M) {
  std::uint64_t root = builder_.CreateRoot();
  ASSERT_TRUE(builder_.MapRange(root, 0, 16 << 20, LeafSize::k2M));
  auto phys = builder_.Walk(root, (4 << 20) + 12345);
  ASSERT_TRUE(phys.has_value());
  EXPECT_EQ(*phys, static_cast<std::uint64_t>((4 << 20) + 12345));
  // A 2M mapping uses far fewer PT pages than 4K would.
  EXPECT_LT(builder_.pages_allocated(), 8u);
}

TEST_F(PageTableTest, EntryCountScalesWithMemory) {
  std::uint64_t root = builder_.CreateRoot();
  std::uint64_t before = builder_.entries_written();
  ASSERT_TRUE(builder_.MapRange(root, 0, 8 << 20, LeafSize::k2M));
  std::uint64_t small = builder_.entries_written() - before;

  PageTableBuilder b2(&mem_);
  std::uint64_t root2 = b2.CreateRoot();
  ASSERT_TRUE(b2.MapRange(root2, 0, 32 << 20, LeafSize::k2M));
  // 4x the memory must write ~4x the leaf entries (Fig 21's linear shape).
  EXPECT_GE(b2.entries_written(), small * 3);
}

TEST_F(PageTableTest, UnmapRemovesTranslation) {
  std::uint64_t root = builder_.CreateRoot();
  ASSERT_TRUE(builder_.MapRange(root, 0, 1 << 20, LeafSize::k4K));
  EXPECT_TRUE(builder_.Unmap(root, 8192));
  EXPECT_FALSE(builder_.Walk(root, 8192).has_value());
  EXPECT_TRUE(builder_.Walk(root, 4096).has_value());
  EXPECT_FALSE(builder_.Unmap(root, 8192));  // already gone
}

TEST_F(PageTableTest, MixedLeafSizes) {
  std::uint64_t root = builder_.CreateRoot();
  ASSERT_TRUE(builder_.MapRange(root, 0, 2 << 20, LeafSize::k4K));
  ASSERT_TRUE(builder_.MapRange(root, 2 << 20, 14ull << 20, LeafSize::k2M));
  EXPECT_TRUE(builder_.Walk(root, 4096).has_value());
  EXPECT_TRUE(builder_.Walk(root, 3 << 20).has_value());
}

TEST_F(PageTableTest, OutOfMemoryFailsCleanly) {
  ukplat::MemRegion tiny(16 * 1024);
  PageTableBuilder b(&tiny);
  std::uint64_t root = b.CreateRoot();
  ASSERT_NE(root, PageTableBuilder::kBadGpa);
  EXPECT_FALSE(b.MapRange(root, 0, 1ull << 30, LeafSize::k4K));
}

// ---- Instance boot ------------------------------------------------------------

TEST(InstanceBoot, BootsWithDefaults) {
  Instance vm(InstanceConfig{});
  BootReport report = vm.Boot();
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_TRUE(vm.booted());
  EXPECT_NE(vm.heap(), nullptr);
  EXPECT_NE(vm.scheduler(), nullptr);
  EXPECT_GT(report.guest_us, 0.0);
  EXPECT_GT(report.vmm_us, 0.0);
}

TEST(InstanceBoot, VmmShareMatchesModel) {
  InstanceConfig cfg;
  cfg.vmm = ukplat::VmmModel::Firecracker();
  Instance vm(cfg);
  BootReport report = vm.Boot();
  ASSERT_TRUE(report.ok);
  EXPECT_NEAR(report.vmm_us, ukplat::VmmModel::Firecracker().LaunchUs(0), 1e-9);
}

TEST(InstanceBoot, InittabRunsInStageOrder) {
  Instance vm(InstanceConfig{});
  std::string trace;
  vm.RegisterInit(InitStage::kSys, "lwip", [&](Instance&) {
    trace += 'n';
    return ukarch::Status::kOk;
  });
  vm.RegisterInit(InitStage::kBus, "virtio", [&](Instance&) {
    trace += 'b';
    return ukarch::Status::kOk;
  });
  vm.RegisterInit(InitStage::kRootfs, "ramfs", [&](Instance&) {
    trace += 'r';
    return ukarch::Status::kOk;
  });
  vm.RegisterInit(InitStage::kLate, "app", [&](Instance&) {
    trace += 'a';
    return ukarch::Status::kOk;
  });
  ASSERT_TRUE(vm.Boot().ok);
  EXPECT_EQ(trace, "brna");  // bus, rootfs, sys(lwip='n'), late
}

TEST(InstanceBoot, InitFailureAbortsBoot) {
  Instance vm(InstanceConfig{});
  bool later_ran = false;
  vm.RegisterInit(InitStage::kBus, "broken", [](Instance&) {
    return ukarch::Status::kIo;
  });
  vm.RegisterInit(InitStage::kLate, "app", [&](Instance&) {
    later_ran = true;
    return ukarch::Status::kOk;
  });
  BootReport report = vm.Boot();
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(later_ran);
  EXPECT_NE(report.error.find("broken"), std::string::npos);
}

TEST(InstanceBoot, TooLittleMemoryFailsAtAllocator) {
  InstanceConfig cfg;
  cfg.memory_bytes = 64 * 1024;  // far below any workable heap
  cfg.allocator = ukalloc::Backend::kBuddy;
  Instance vm(cfg);
  BootReport report = vm.Boot();
  EXPECT_FALSE(report.ok);
}

TEST(InstanceBoot, SchedulerOptional) {
  InstanceConfig cfg;
  cfg.enable_scheduler = false;  // run-to-completion unikernel
  Instance vm(cfg);
  ASSERT_TRUE(vm.Boot().ok);
  EXPECT_EQ(vm.scheduler(), nullptr);
}

TEST(InstanceBoot, DynamicPagingCoversAllMemory) {
  InstanceConfig cfg;
  cfg.memory_bytes = 64 << 20;
  cfg.paging = PagingMode::kDynamic;
  Instance vm(cfg);
  ASSERT_TRUE(vm.Boot().ok);
  ASSERT_NE(vm.pagetable(), nullptr);
  auto phys = vm.pagetable()->Walk(vm.pagetable_root(), (48ull << 20) + 17);
  ASSERT_TRUE(phys.has_value());
  EXPECT_EQ(*phys, (48ull << 20) + 17);
}

TEST(InstanceBoot, StaticPagingConstantWork) {
  InstanceConfig small_cfg;
  small_cfg.memory_bytes = 8 << 20;
  small_cfg.paging = PagingMode::kStatic;
  Instance small_vm(small_cfg);
  ASSERT_TRUE(small_vm.Boot().ok);
  std::uint64_t small_pages = small_vm.pagetable()->pages_allocated();

  InstanceConfig big_cfg;
  big_cfg.memory_bytes = 256 << 20;
  big_cfg.paging = PagingMode::kStatic;
  Instance big_vm(big_cfg);
  ASSERT_TRUE(big_vm.Boot().ok);
  // Static PT work must not scale with guest memory.
  EXPECT_EQ(big_vm.pagetable()->pages_allocated(), small_pages);
}

TEST(InstanceBoot, EveryAllocatorBackendBoots) {
  for (ukalloc::Backend b : ukalloc::AllBackends()) {
    InstanceConfig cfg;
    cfg.allocator = b;
    Instance vm(cfg);
    BootReport report = vm.Boot();
    EXPECT_TRUE(report.ok) << ukalloc::BackendName(b) << ": " << report.error;
  }
}

TEST(InstanceBoot, StageTimingsRecorded) {
  Instance vm(InstanceConfig{});
  vm.RegisterInit(InitStage::kSys, "work", [](Instance& inst) {
    // Allocate something so the stage takes measurable time.
    void* p = inst.heap()->Malloc(1 << 16);
    inst.heap()->Free(p);
    return ukarch::Status::kOk;
  });
  BootReport report = vm.Boot();
  ASSERT_TRUE(report.ok);
  bool found = false;
  for (const BootStageTime& st : report.stages) {
    if (st.name == "sys:work") {
      found = true;
      EXPECT_GE(st.real_ns, 0.0);
    }
  }
  EXPECT_TRUE(found);
}

// ---- Instance reboot (fleet lifecycle) ----------------------------------------

TEST(InstanceReboot, ShutdownReturnsToPreBootState) {
  Instance vm(InstanceConfig{});
  ASSERT_TRUE(vm.Boot().ok);
  ASSERT_TRUE(vm.booted());
  ASSERT_GT(vm.mem().carve_brk(), 0u);
  vm.Shutdown();
  EXPECT_FALSE(vm.booted());
  EXPECT_EQ(vm.heap(), nullptr);
  EXPECT_EQ(vm.scheduler(), nullptr);
  EXPECT_EQ(vm.pagetable(), nullptr);
  EXPECT_EQ(vm.mem().carve_brk(), 0u);  // guest RAM back at power-on
  const std::size_t bytes = vm.mem().size();
  const std::byte* ram = vm.mem().At(0, bytes);
  ASSERT_NE(ram, nullptr);
  EXPECT_TRUE(std::all_of(ram, ram + bytes, [](std::byte b) { return b == std::byte{0}; }))
      << "a reset left guest RAM dirty";
}

TEST(InstanceReboot, RebootReplaysInittabWithFreshTimings) {
  Instance vm(InstanceConfig{});
  int serve_runs = 0;
  vm.RegisterInit(InitStage::kSys, "serve", [&](Instance& inst) {
    // Model a server bringing state up on the heap each boot.
    void* p = inst.heap()->Malloc(1 << 12);
    if (p == nullptr) {
      return ukarch::Status::kNoMem;
    }
    inst.heap()->Free(p);
    ++serve_runs;
    return ukarch::Status::kOk;
  });

  BootReport first = vm.Boot();
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(vm.generation(), 1);
  const std::uint64_t first_in_use = vm.heap()->stats().bytes_in_use;
  const std::uint64_t first_brk = vm.mem().carve_brk();

  // Serve: leave allocator churn behind so the reboot has real state to
  // reclaim (freed before Shutdown, as an app teardown would).
  void* held = vm.heap()->Malloc(1 << 16);
  ASSERT_NE(held, nullptr);
  vm.heap()->Free(held);

  vm.Shutdown();
  BootReport second = vm.Boot();
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(vm.generation(), 2);
  EXPECT_EQ(serve_runs, 2);  // inittab replayed

  // Per-stage timings are reported again, stage for stage.
  ASSERT_EQ(second.stages.size(), first.stages.size());
  for (std::size_t i = 0; i < second.stages.size(); ++i) {
    EXPECT_EQ(second.stages[i].name, first.stages[i].name);
    EXPECT_GE(second.stages[i].real_ns, 0.0);
  }
  EXPECT_GT(second.guest_us, 0.0);

  // Allocator state fully reclaimed: the fresh heap's live bytes and the
  // guest RAM carve point match the first boot exactly.
  EXPECT_EQ(vm.heap()->stats().bytes_in_use, first_in_use);
  EXPECT_EQ(vm.mem().carve_brk(), first_brk);
}

TEST(InstanceReboot, RebootSurvivesManyCycles) {
  InstanceConfig cfg;
  cfg.memory_bytes = 8ull << 20;
  Instance vm(cfg);
  std::uint64_t brk_after_first = 0;
  for (int cycle = 0; cycle < 5; ++cycle) {
    BootReport r = vm.Boot();
    ASSERT_TRUE(r.ok) << "cycle " << cycle << ": " << r.error;
    if (cycle == 0) {
      brk_after_first = vm.mem().carve_brk();
    } else {
      // No creeping carve growth across reboots (the old MemRegion bump
      // allocator would exhaust guest RAM after a handful of cycles).
      EXPECT_EQ(vm.mem().carve_brk(), brk_after_first) << "cycle " << cycle;
    }
    vm.Shutdown();
  }
  EXPECT_EQ(vm.generation(), 5);
}

}  // namespace
