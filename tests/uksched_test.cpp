// Tests for uksched (cooperative/preemptive threads) and uklock primitives.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ukalloc/registry.h"
#include "uklock/lock.h"
#include "uksched/scheduler.h"
#include "uksched/thread_scheduler.h"
#include "ukplat/clock.h"

namespace {

using namespace uksched;

class SchedTest : public ::testing::Test {
 protected:
  SchedTest() : mem_(new std::byte[kHeap]) {
    alloc_ = ukalloc::CreateAllocator(ukalloc::Backend::kTlsf, mem_.get(), kHeap);
  }

  static constexpr std::size_t kHeap = 8 << 20;
  std::unique_ptr<std::byte[]> mem_;
  std::unique_ptr<ukalloc::Allocator> alloc_;
  ukplat::Clock clock_;
};

TEST_F(SchedTest, RunsSingleThreadToCompletion) {
  CoopScheduler sched(alloc_.get(), &clock_);
  bool ran = false;
  ASSERT_NE(sched.CreateThread("t", [&] { ran = true; }), nullptr);
  EXPECT_EQ(sched.Run(), 0u);
  EXPECT_TRUE(ran);
}

TEST_F(SchedTest, CooperativeYieldInterleaves) {
  CoopScheduler sched(alloc_.get(), &clock_);
  std::string trace;
  sched.CreateThread("a", [&] {
    trace += 'a';
    sched.Yield();
    trace += 'A';
  });
  sched.CreateThread("b", [&] {
    trace += 'b';
    sched.Yield();
    trace += 'B';
  });
  sched.Run();
  EXPECT_EQ(trace, "abAB");
}

TEST_F(SchedTest, CoopNeverPreempts) {
  CoopScheduler sched(alloc_.get(), &clock_);
  std::string trace;
  sched.CreateThread("a", [&] {
    for (int i = 0; i < 5; ++i) {
      clock_.Charge(1'000'000);
      sched.PreemptPoint();  // must be a no-op under ukcoop
      trace += 'a';
    }
  });
  sched.CreateThread("b", [&] { trace += 'b'; });
  sched.Run();
  EXPECT_EQ(trace, "aaaaab");
  EXPECT_EQ(sched.stats().preemptions, 0u);
}

TEST_F(SchedTest, PreemptiveForcesRoundRobin) {
  PreemptScheduler sched(alloc_.get(), &clock_, /*quantum_cycles=*/1000);
  std::string trace;
  auto worker = [&](char c) {
    return [&trace, c, this, &sched] {
      for (int i = 0; i < 3; ++i) {
        trace += c;
        clock_.Charge(2000);     // exceed the quantum
        sched.PreemptPoint();    // kernel-entry point
      }
    };
  };
  sched.CreateThread("a", worker('a'));
  sched.CreateThread("b", worker('b'));
  sched.Run();
  EXPECT_EQ(trace, "ababab");
  EXPECT_GE(sched.stats().preemptions, 4u);
}

TEST_F(SchedTest, WaitQueueBlocksUntilWoken) {
  CoopScheduler sched(alloc_.get(), &clock_);
  WaitQueue wq(&sched);
  std::string trace;
  sched.CreateThread("waiter", [&] {
    trace += 'w';
    wq.Wait();
    trace += 'W';
  });
  sched.CreateThread("waker", [&] {
    trace += 'k';
    wq.Wake();
  });
  EXPECT_EQ(sched.Run(), 0u);
  EXPECT_EQ(trace, "wkW");
}

TEST_F(SchedTest, WaitTimeoutExpiresAndAdvancesClock) {
  CoopScheduler sched(alloc_.get(), &clock_);
  WaitQueue wq(&sched);
  constexpr std::uint64_t kDeadline = 750'000;
  bool woken = true;
  sched.CreateThread("sleeper", [&] { woken = wq.WaitTimeout(kDeadline); });
  EXPECT_EQ(sched.Run(), 0u);  // the timeout unblocks it: no leftovers
  EXPECT_FALSE(woken);
  // Idle halt: the clock jumped straight to the deadline, no busy loop.
  EXPECT_GE(clock_.cycles(), kDeadline);
  EXPECT_EQ(sched.stats().idle_advances, 1u);
  EXPECT_TRUE(wq.empty()) << "timed-out thread still parked on the queue";
}

TEST_F(SchedTest, WakeBeforeDeadlineReturnsTrue) {
  CoopScheduler sched(alloc_.get(), &clock_);
  WaitQueue wq(&sched);
  bool woken = false;
  sched.CreateThread("sleeper", [&] { woken = wq.WaitTimeout(1'000'000'000); });
  sched.CreateThread("waker", [&] { EXPECT_EQ(wq.Wake(), 1u); });
  EXPECT_EQ(sched.Run(), 0u);
  EXPECT_TRUE(woken);
  // Nothing ever went idle, so the clock never jumped to the far deadline.
  EXPECT_LT(clock_.cycles(), 1'000'000'000u);
  EXPECT_EQ(sched.stats().idle_advances, 0u);
}

TEST_F(SchedTest, SleepersWakeInDeadlineOrder) {
  CoopScheduler sched(alloc_.get(), &clock_);
  WaitQueue wq_a(&sched);
  WaitQueue wq_b(&sched);
  std::vector<std::uint64_t> wake_cycles;
  sched.CreateThread("late", [&] {
    wq_a.WaitTimeout(600'000);
    wake_cycles.push_back(clock_.cycles());
  });
  sched.CreateThread("early", [&] {
    wq_b.WaitTimeout(200'000);
    wake_cycles.push_back(clock_.cycles());
  });
  EXPECT_EQ(sched.Run(), 0u);
  ASSERT_EQ(wake_cycles.size(), 2u);
  // "early" (deadline 200k) fires first even though it blocked second.
  EXPECT_GE(wake_cycles[0], 200'000u);
  EXPECT_LT(wake_cycles[0], 600'000u);
  EXPECT_GE(wake_cycles[1], 600'000u);
  EXPECT_EQ(sched.stats().idle_advances, 2u);
}

TEST_F(SchedTest, RunReportsBlockedThreads) {
  CoopScheduler sched(alloc_.get(), &clock_);
  WaitQueue wq(&sched);
  sched.CreateThread("stuck", [&] { wq.Wait(); });
  EXPECT_EQ(sched.Run(), 1u);  // one thread still blocked
  wq.Wake();
  EXPECT_EQ(sched.Run(), 0u);
}

TEST_F(SchedTest, ManyThreadsAllComplete) {
  CoopScheduler sched(alloc_.get(), &clock_);
  int done = 0;
  for (int i = 0; i < 50; ++i) {
    ASSERT_NE(sched.CreateThread("t" + std::to_string(i),
                                 [&done, &sched] {
                                   sched.Yield();
                                   ++done;
                                 }),
              nullptr);
  }
  EXPECT_EQ(sched.Run(), 0u);
  EXPECT_EQ(done, 50);
  EXPECT_EQ(sched.stats().threads_created, 50u);
}

TEST_F(SchedTest, StackAllocationFailureReturnsNull) {
  // Tiny heap: thread creation must fail cleanly, not crash.
  auto tiny_mem = std::make_unique<std::byte[]>(16 * 1024);
  auto tiny = ukalloc::CreateAllocator(ukalloc::Backend::kTlsf, tiny_mem.get(), 16 * 1024);
  ukplat::Clock clk;
  CoopScheduler sched(tiny.get(), &clk);
  EXPECT_EQ(sched.CreateThread("big", [] {}, 1 << 20), nullptr);
}

TEST_F(SchedTest, StacksRecycledAfterExit) {
  CoopScheduler sched(alloc_.get(), &clock_);
  // Sequential waves of threads must not exhaust an 8 MB heap with 64 KB
  // stacks if stacks are reclaimed (>128 would otherwise fail).
  for (int wave = 0; wave < 10; ++wave) {
    for (int i = 0; i < 40; ++i) {
      ASSERT_NE(sched.CreateThread("w", [] {}), nullptr) << "wave " << wave;
    }
    EXPECT_EQ(sched.Run(), 0u);
  }
}

TEST_F(SchedTest, ThreadsSeeOwnStacks) {
  CoopScheduler sched(alloc_.get(), &clock_);
  std::vector<int> results(4, 0);
  for (int i = 0; i < 4; ++i) {
    sched.CreateThread("calc", [&results, i, &sched] {
      int local[128];
      for (int j = 0; j < 128; ++j) {
        local[j] = i * 1000 + j;
      }
      sched.Yield();  // let others scribble on their stacks
      int sum = 0;
      for (int j = 0; j < 128; ++j) {
        sum += local[j] - i * 1000 - j;
      }
      results[static_cast<std::size_t>(i)] = sum == 0 ? 1 : -1;
    });
  }
  sched.Run();
  for (int r : results) {
    EXPECT_EQ(r, 1);
  }
}

// ---- uklock -----------------------------------------------------------------

TEST_F(SchedTest, MutexProvidesMutualExclusion) {
  CoopScheduler sched(alloc_.get(), &clock_);
  uklock::Mutex mutex(uklock::Config{.threading = true}, &sched);
  std::string trace;
  sched.CreateThread("a", [&] {
    uklock::MutexGuard g(mutex);
    trace += '(';
    sched.Yield();  // b runs and must block on the mutex
    trace += ')';
  });
  sched.CreateThread("b", [&] {
    uklock::MutexGuard g(mutex);
    trace += '[';
    trace += ']';
  });
  sched.Run();
  EXPECT_EQ(trace, "()[]");
  EXPECT_GE(mutex.contended_acquires(), 1u);
}

TEST_F(SchedTest, MutexTryLock) {
  CoopScheduler sched(alloc_.get(), &clock_);
  uklock::Mutex mutex(uklock::Config{.threading = true}, &sched);
  EXPECT_TRUE(mutex.TryLock());
  EXPECT_FALSE(mutex.TryLock());
  mutex.Unlock();
  EXPECT_TRUE(mutex.TryLock());
  mutex.Unlock();
}

TEST_F(SchedTest, NoThreadingMutexCompilesToBookkeeping) {
  uklock::Mutex mutex(uklock::Config{.threading = false}, nullptr);
  mutex.Lock();
  EXPECT_TRUE(mutex.locked());
  mutex.Unlock();
  EXPECT_FALSE(mutex.locked());
  EXPECT_EQ(mutex.contended_acquires(), 0u);
}

TEST_F(SchedTest, SemaphoreProducerConsumer) {
  CoopScheduler sched(alloc_.get(), &clock_);
  uklock::Semaphore items(uklock::Config{.threading = true}, &sched, 0);
  std::vector<int> consumed;
  sched.CreateThread("consumer", [&] {
    for (int i = 0; i < 3; ++i) {
      items.Down();
      consumed.push_back(i);
    }
  });
  sched.CreateThread("producer", [&] {
    for (int i = 0; i < 3; ++i) {
      items.Up();
      sched.Yield();
    }
  });
  EXPECT_EQ(sched.Run(), 0u);
  EXPECT_EQ(consumed.size(), 3u);
  EXPECT_EQ(items.count(), 0);
}

TEST_F(SchedTest, SemaphoreTryDown) {
  CoopScheduler sched(alloc_.get(), &clock_);
  uklock::Semaphore sem(uklock::Config{.threading = true}, &sched, 1);
  EXPECT_TRUE(sem.TryDown());
  EXPECT_FALSE(sem.TryDown());
  sem.Up();
  EXPECT_TRUE(sem.TryDown());
}

// ---- WaitTimeoutUnless (both backends) --------------------------------------------

TEST_F(SchedTest, WaitTimeoutUnlessSkipsParkWhenSeqAlreadyMoved) {
  CoopScheduler sched(alloc_.get(), &clock_);
  WaitQueue wq(&sched);
  std::atomic<std::uint64_t> seq{0};
  bool woken = false;
  sched.CreateThread("reader", [&] {
    seq.fetch_add(1, std::memory_order_release);  // doorbell already rung
    woken = wq.WaitTimeoutUnless(seq, /*last_seen=*/0, Scheduler::kNoDeadline);
  });
  EXPECT_EQ(sched.Run(), 0u);
  EXPECT_TRUE(woken);  // never parked: the seq check under the lock fired
  EXPECT_EQ(sched.stats().idle_advances, 0u);
}

TEST_F(SchedTest, WaitTimeoutUnlessParksWhenSeqUnchanged) {
  CoopScheduler sched(alloc_.get(), &clock_);
  WaitQueue wq(&sched);
  std::atomic<std::uint64_t> seq{7};
  bool woken = true;
  sched.CreateThread("reader",
                     [&] { woken = wq.WaitTimeoutUnless(seq, 7, 500'000); });
  EXPECT_EQ(sched.Run(), 0u);
  EXPECT_FALSE(woken);  // parked and timed out like a plain WaitTimeout
  EXPECT_GE(clock_.cycles(), 500'000u);
}

// ---- ThreadScheduler: the same contracts on real OS threads -----------------------

TEST_F(SchedTest, RealThreadsYieldInterleavesFifo) {
  ThreadScheduler sched(alloc_.get(), &clock_);
  std::string trace;
  sched.CreateThread("a", [&] {
    trace += 'a';
    sched.Yield();
    trace += 'A';
  });
  sched.CreateThread("b", [&] {
    trace += 'b';
    sched.Yield();
    trace += 'B';
  });
  EXPECT_EQ(sched.Run(), 0u);
  EXPECT_EQ(trace, "abAB");  // identical interleaving to the fiber backend
}

TEST_F(SchedTest, RealThreadsWaitQueueBlocksUntilWoken) {
  ThreadScheduler sched(alloc_.get(), &clock_);
  WaitQueue wq(&sched);
  std::string trace;
  sched.CreateThread("waiter", [&] {
    trace += 'w';
    wq.Wait();
    trace += 'W';
  });
  sched.CreateThread("waker", [&] {
    trace += 'k';
    wq.Wake();
  });
  EXPECT_EQ(sched.Run(), 0u);
  EXPECT_EQ(trace, "wkW");
}

TEST_F(SchedTest, RealThreadsTimedWaitStillJumpsVirtualClock) {
  ThreadScheduler::Config cfg;
  cfg.idle_grace = std::chrono::microseconds(100);  // keep the test fast
  ThreadScheduler sched(alloc_.get(), &clock_, cfg);
  WaitQueue wq(&sched);
  constexpr std::uint64_t kDeadline = 750'000;
  bool woken = true;
  sched.CreateThread("sleeper", [&] { woken = wq.WaitTimeout(kDeadline); });
  EXPECT_EQ(sched.Run(), 0u);
  EXPECT_FALSE(woken);
  EXPECT_GE(clock_.cycles(), kDeadline);
  EXPECT_EQ(sched.stats().idle_advances, 1u);
}

TEST_F(SchedTest, RealThreadsExternalWakeLandsWhileIdle) {
  // A foreign OS thread (device backend, producer shard) rings a doorbell
  // while every managed thread is parked: the idle dispatcher must hold the
  // world in real time long enough for the Wake to land, like an interrupt
  // ending a HLT.
  ThreadScheduler sched(alloc_.get(), &clock_);
  WaitQueue wq(&sched);
  bool woken = false;
  // The doorbell must ring after the sleeper parks (a Wake with no waiter is
  // lost, as on the fiber backend), so the producer's delay starts once the
  // sleeper runs, not when the OS gets round to dispatching its thread.
  std::atomic<bool> parking{false};
  sched.CreateThread("sleeper", [&] {
    parking.store(true, std::memory_order_release);
    wq.Wait();
    woken = true;
  });
  std::thread producer([&] {
    while (!parking.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    wq.Wake();
  });
  EXPECT_EQ(sched.Run(), 0u);  // not stuck: the external wake unblocked it
  producer.join();
  EXPECT_TRUE(woken);
}

TEST_F(SchedTest, RealThreadsNoLostDoorbellFromForeignProducer) {
  // Publish-then-wake from a raw std::thread against WaitTimeoutUnless: every
  // published item is consumed, no wake is lost to the check-then-park race.
  ThreadScheduler sched(alloc_.get(), &clock_);
  WaitQueue wq(&sched);
  std::atomic<std::uint64_t> seq{0};
  std::atomic<int> published{0};
  constexpr int kItems = 64;
  int consumed = 0;
  sched.CreateThread("consumer", [&] {
    std::uint64_t seen = 0;
    while (consumed < kItems) {
      wq.WaitTimeoutUnless(seq, seen, Scheduler::kNoDeadline);
      seen = seq.load(std::memory_order_acquire);
      consumed = published.load(std::memory_order_acquire);
    }
  });
  std::thread producer([&] {
    for (int i = 1; i <= kItems; ++i) {
      published.store(i, std::memory_order_release);
      seq.fetch_add(1, std::memory_order_release);
      wq.Wake();
      if (i % 8 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  });
  EXPECT_EQ(sched.Run(), 0u);
  producer.join();
  EXPECT_EQ(consumed, kItems);
}

TEST_F(SchedTest, RealThreadsReportBlockedAndDetachAtTeardown) {
  ThreadScheduler::Config cfg;
  cfg.idle_grace = std::chrono::microseconds(100);
  cfg.idle_strike_limit = 3;  // give up on the stuck thread quickly
  auto sched = std::make_unique<ThreadScheduler>(alloc_.get(), &clock_, cfg);
  WaitQueue wq(sched.get());
  sched->CreateThread("stuck", [&] { wq.Wait(); });
  EXPECT_EQ(sched->Run(), 1u);  // reported, exactly like the fiber backend
  sched.reset();  // dtor detaches the parked thread; must not hang or crash
}

TEST_F(SchedTest, RealThreadsBlockedThreadsOutliveTheirSchedulers) {
  // A thread still blocked when its scheduler dies is detached and keeps
  // waiting on the baton it co-owns. Every round frees a scheduler over such
  // threads and scribbles over freed heap of the same size, so a wait that
  // still reads scheduler state would see garbage (or trip ASan) instead of
  // quietly reading a dead object that still looks alive.
  ThreadScheduler::Config cfg;
  cfg.idle_grace = std::chrono::microseconds(50);
  cfg.idle_strike_limit = 1;
  // Every round leaves two OS threads parked for the life of the process,
  // so the round count stays small: CI repeats this test 50 times.
  for (int round = 0; round < 6; ++round) {
    auto sched = std::make_unique<ThreadScheduler>(alloc_.get(), &clock_, cfg);
    WaitQueue wq(sched.get());
    for (int i = 0; i < 2; ++i) {
      sched->CreateThread("stuck", [&wq] { wq.Wait(); });
    }
    EXPECT_EQ(sched->Run(), 2u);
    sched.reset();
    std::vector<void*> reuse;
    for (int i = 0; i < 4; ++i) {
      reuse.push_back(::operator new(sizeof(ThreadScheduler)));
      std::memset(reuse.back(), 0xA5, sizeof(ThreadScheduler));
    }
    // The teardown's notify_all makes every parked thread re-evaluate its
    // wait predicate; give them real time to do so against the reused memory.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    for (void* p : reuse) {
      ::operator delete(p);
    }
  }
}

TEST_F(SchedTest, RealThreadsManyThreadsAllComplete) {
  ThreadScheduler sched(alloc_.get(), &clock_);
  int done = 0;
  for (int i = 0; i < 32; ++i) {
    sched.CreateThread("worker", [&] {
      sched.Yield();
      ++done;
    });
  }
  EXPECT_EQ(sched.Run(), 0u);
  EXPECT_EQ(done, 32);
}

TEST_F(SchedTest, FactorySelectsBackendFromEnvironment) {
  auto sched = MakeScheduler(alloc_.get(), &clock_);
  ASSERT_NE(sched, nullptr);
  EXPECT_EQ(sched->real_threads(), RealThreadsRequested());
}

}  // namespace
