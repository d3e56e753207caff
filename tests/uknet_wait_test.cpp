// Interrupt-driven idle: NetStack::PollWait blocking on uksched wait queues.
//
// The contract under test (see src/uknet/DATAPATH.md "Interrupt-driven
// idle"): an idle PollWait performs ZERO poll iterations while blocked (the
// spin-counter assertions), a frame arrival wakes exactly the waiter of the
// queue it lands on, a burst costs one interrupt (storm avoidance), TCP RTO
// deadlines wake a blocked poller with no traffic at all, and the blocking
// path preserves the ZeroAllocGuard steady-state invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "net_harness.h"
#include "apps/kvstore.h"
#include "posix/api.h"
#include "uknetdev/loopback.h"
#include "uksched/scheduler.h"
#include "vfscore/vfs.h"

namespace {

using namespace uknet;
using netharness::Host;
using netharness::RawPeer;
using netharness::ZeroAllocGuard;

// Single-image world over the loopback device: the TxBurst of a sender is
// the synchronous interrupt source, which makes wakeup ordering fully
// deterministic for the spin-counter assertions.
struct LoopWorld {
  explicit LoopWorld(std::uint16_t queues = 1) : mem(32 << 20) {
    std::uint64_t heap_gpa = mem.Carve(16 << 20, 4096);
    alloc = ukalloc::CreateAllocator(ukalloc::Backend::kTlsf,
                                     mem.At(heap_gpa, 16 << 20), 16 << 20);
    dev = std::make_unique<uknetdev::Loopback>(&mem);
    stack = std::make_unique<NetStack>(&mem, &clock, alloc.get());
    NetIf::Config cfg;
    cfg.ip = MakeIp(10, 0, 0, 1);
    cfg.queues = queues;
    netif = stack->AddInterface(dev.get(), cfg);
    netif->AddArpEntry(MakeIp(10, 0, 0, 1), dev->mac());  // self-send
    sched = uksched::MakeScheduler(alloc.get(), &clock);
    stack->SetScheduler(sched.get());
  }

  ukplat::Clock clock;
  ukplat::MemRegion mem;
  std::unique_ptr<ukalloc::Allocator> alloc;
  std::unique_ptr<uknetdev::Loopback> dev;
  std::unique_ptr<NetStack> stack;
  NetIf* netif = nullptr;
  std::unique_ptr<uksched::Scheduler> sched;
};

TEST(PollWait, IdlePollWaitBlocksWithoutSpinning) {
  LoopWorld w;
  auto server = w.stack->UdpOpen();
  ASSERT_TRUE(Ok(server->Bind(7)));
  auto client = w.stack->UdpOpen();

  std::size_t handled = 0;
  bool waiter_done = false;
  w.sched->CreateThread("waiter", [&] {
    handled = w.stack->PollWait(0, /*timeout_cycles=*/10'000'000'000ull);
    waiter_done = true;
    std::uint8_t buf[16];
    EXPECT_EQ(w.stack->scheduler()->current()->name(), "waiter");
    EXPECT_EQ(server->RecvInto(buf), 4);
  });
  w.sched->CreateThread("prober", [&] {
    // The waiter ran first and is blocked by now: two drain passes (initial
    // + arm-then-check), then zero poll iterations for as long as it sleeps.
    const std::uint64_t base = w.stack->wait_stats().poll_iterations;
    EXPECT_EQ(base, 2u);
    EXPECT_EQ(w.stack->wait_stats().blocked_waits, 1u);
    for (int i = 0; i < 50; ++i) {
      w.sched->Yield();
      EXPECT_EQ(w.stack->wait_stats().poll_iterations, base) << "PollWait spun";
      EXPECT_FALSE(waiter_done);
    }
    std::uint8_t msg[4] = {1, 2, 3, 4};
    ASSERT_EQ(client->SendTo(MakeIp(10, 0, 0, 1), 7, msg), 4);  // fires the intr
    w.sched->Yield();  // let the waiter run
    EXPECT_TRUE(waiter_done);
    // Exactly one more drain pass consumed the frame.
    EXPECT_EQ(w.stack->wait_stats().poll_iterations, base + 1);
  });
  EXPECT_EQ(w.sched->Run(), 0u);
  EXPECT_EQ(handled, 1u);
  EXPECT_EQ(w.stack->wait_stats().frame_wakeups, 1u);
  EXPECT_EQ(w.stack->wait_stats().timer_wakeups, 0u);
  EXPECT_EQ(w.netif->rx_wakeups(0), 1u);
}

TEST(PollWait, TimeoutWakesAndAdvancesVirtualClock) {
  LoopWorld w;
  constexpr std::uint64_t kTimeout = 500'000;
  std::size_t handled = 99;
  w.sched->CreateThread("waiter", [&] { handled = w.stack->PollWait(0, kTimeout); });
  w.sched->Run();
  EXPECT_EQ(handled, 0u);
  EXPECT_EQ(w.stack->wait_stats().blocked_waits, 1u);
  EXPECT_EQ(w.stack->wait_stats().timer_wakeups, 1u);
  EXPECT_EQ(w.stack->wait_stats().frame_wakeups, 0u);
  // Initial drain, arm-then-check drain, post-timeout timer drain: 3 total.
  EXPECT_EQ(w.stack->wait_stats().poll_iterations, 3u);
  // The scheduler halted and jumped the clock to the deadline (no spinning).
  EXPECT_GE(w.clock.cycles(), kTimeout);
  EXPECT_EQ(w.sched->stats().idle_advances, 1u);
}

TEST(PollWait, FrameWakesOnlyItsQueueWaiter) {
  LoopWorld w(2);
  ASSERT_EQ(w.netif->queue_count(), 2u);
  auto server = w.stack->UdpOpen();
  ASSERT_TRUE(Ok(server->Bind(7)));
  // Find one client flow per RSS queue (the symmetric hash steers both the
  // outgoing request and — on the loopback — its device-side classification).
  std::shared_ptr<UdpSocket> on_queue[2];
  std::vector<std::shared_ptr<UdpSocket>> opened;
  while (on_queue[0] == nullptr || on_queue[1] == nullptr) {
    auto sock = w.stack->UdpOpen();
    std::uint16_t q = w.netif->TxQueueFor(MakeIp(10, 0, 0, 1), sock->local_port(), 7);
    if (on_queue[q] == nullptr) {
      on_queue[q] = sock;
    }
    opened.push_back(std::move(sock));
    ASSERT_LT(opened.size(), 64u) << "hash never covered both queues";
  }

  bool done0 = false;
  bool done1 = false;
  w.sched->CreateThread("wait-q0", [&] {
    EXPECT_EQ(w.stack->PollWait(0, 10'000'000'000ull), 1u);
    done0 = true;
  });
  w.sched->CreateThread("wait-q1", [&] {
    EXPECT_EQ(w.stack->PollWait(1, 10'000'000'000ull), 1u);
    done1 = true;
  });
  w.sched->CreateThread("driver", [&] {
    ASSERT_EQ(w.stack->wait_stats().blocked_waits, 2u);
    std::uint8_t msg[4] = {9, 9, 9, 9};
    ASSERT_EQ(on_queue[0]->SendTo(MakeIp(10, 0, 0, 1), 7, msg), 4);
    w.sched->Yield();
    EXPECT_TRUE(done0);
    EXPECT_FALSE(done1) << "sibling queue's waiter was woken";
    EXPECT_EQ(w.stack->wait_stats().frame_wakeups, 1u);
    EXPECT_EQ(w.netif->rx_wakeups(0), 1u);
    EXPECT_EQ(w.netif->rx_wakeups(1), 0u);
    ASSERT_EQ(on_queue[1]->SendTo(MakeIp(10, 0, 0, 1), 7, msg), 4);
    w.sched->Yield();
    EXPECT_TRUE(done1);
  });
  EXPECT_EQ(w.sched->Run(), 0u);
  EXPECT_EQ(w.stack->wait_stats().frame_wakeups, 2u);
}

TEST(PollWait, BurstCostsOneInterrupt) {
  LoopWorld w;
  auto server = w.stack->UdpOpen();
  ASSERT_TRUE(Ok(server->Bind(7)));
  auto client = w.stack->UdpOpen();
  constexpr std::size_t kBurst = 8;

  std::size_t handled = 0;
  w.sched->CreateThread("waiter", [&] {
    handled = w.stack->PollWait(0, 10'000'000'000ull);
  });
  w.sched->CreateThread("driver", [&] {
    const std::uint64_t intr_before = w.dev->QueueStats(0).rx_interrupts;
    std::uint8_t msg[4] = {7, 7, 7, 7};
    for (std::size_t i = 0; i < kBurst; ++i) {
      ASSERT_EQ(client->SendTo(MakeIp(10, 0, 0, 1), 7, msg), 4);
    }
    w.sched->Yield();
    // Storm avoidance: the line fired on the first frame, disarmed itself,
    // and stayed silent for the rest of the burst.
    EXPECT_EQ(w.dev->QueueStats(0).rx_interrupts - intr_before, 1u);
  });
  EXPECT_EQ(w.sched->Run(), 0u);
  EXPECT_EQ(handled, kBurst);
  EXPECT_EQ(w.stack->wait_stats().frame_wakeups, 1u);
  EXPECT_EQ(server->queued(), kBurst);
}

TEST(PollWait, AllQueuesWaiterReturningKeepsSiblingArmed) {
  // Regression: a kAllQueues waiter returning used to disarm EVERY queue's
  // interrupt, including the line a still-blocked per-queue sibling was
  // sleeping on — the sibling then never woke on its frame (lost wakeup).
  // Arm counts make the last holder the only one that disarms.
  LoopWorld w(2);
  auto server = w.stack->UdpOpen();
  ASSERT_TRUE(Ok(server->Bind(7)));
  std::shared_ptr<UdpSocket> on_queue[2];
  while (on_queue[0] == nullptr || on_queue[1] == nullptr) {
    auto sock = w.stack->UdpOpen();
    std::uint16_t q = w.netif->TxQueueFor(MakeIp(10, 0, 0, 1), sock->local_port(), 7);
    if (on_queue[q] == nullptr) {
      on_queue[q] = sock;
    }
  }

  bool q0_done = false;
  bool all_done = false;
  w.sched->CreateThread("wait-q0", [&] {
    EXPECT_EQ(w.stack->PollWait(0, 10'000'000'000ull), 1u);
    q0_done = true;
  });
  w.sched->CreateThread("wait-all", [&] {
    EXPECT_GE(w.stack->PollWait(NetStack::kAllQueues, 10'000'000'000ull), 1u);
    all_done = true;
  });
  w.sched->CreateThread("driver", [&] {
    std::uint8_t msg[4] = {5, 5, 5, 5};
    // Wake and retire the kAllQueues waiter with a queue-1 frame...
    ASSERT_EQ(on_queue[1]->SendTo(MakeIp(10, 0, 0, 1), 7, msg), 4);
    w.sched->Yield();
    EXPECT_TRUE(all_done);
    EXPECT_FALSE(q0_done);
    // ...then queue 0's own frame MUST still fire and wake the sibling.
    ASSERT_EQ(on_queue[0]->SendTo(MakeIp(10, 0, 0, 1), 7, msg), 4);
    w.sched->Yield();
    EXPECT_TRUE(q0_done) << "kAllQueues exit disarmed the sibling's line";
  });
  EXPECT_EQ(w.sched->Run(), 0u);
  EXPECT_EQ(w.stack->wait_stats().timer_wakeups, 0u) << "a waiter slept to timeout";
}

TEST(PollWait, RtoDeadlineWakesBlockedPollerWithoutTraffic) {
  ukplat::Clock clock;
  ukplat::Wire wire(&clock);
  Host host(&clock, &wire, 0, MakeIp(10, 0, 0, 1));
  RawPeer peer;
  peer.wire = &wire;
  peer.host_mac = host.nic->mac();
  peer.ip = MakeIp(10, 0, 0, 2);
  peer.host_ip = MakeIp(10, 0, 0, 1);
  host.netif->AddArpEntry(peer.ip, peer.mac);
  auto sched_owner = uksched::MakeScheduler(host.alloc.get(), &clock);
  auto& sched = *sched_owner;
  host.stack->SetScheduler(&sched);
  host.stack->rto_cycles = 200'000;

  std::shared_ptr<TcpSocket> client;
  sched.CreateThread("conn", [&] {
    client = host.stack->TcpConnect(peer.ip, 7);
    for (int i = 0; i < 4; ++i) {
      host.stack->Poll();
      peer.Poll();
    }
    ASSERT_FALSE(peer.segs.empty());
    const std::uint32_t iss = peer.segs.back().hdr.seq;
    peer.SendTcp(7, client->local_port(), kTcpSyn | kTcpAck, 1000, iss + 1, 65535);
    for (int i = 0; i < 4; ++i) {
      host.stack->Poll();
      peer.Poll();
    }
    ASSERT_TRUE(client->connected());

    std::uint8_t data[100];
    std::memset(data, 'r', sizeof(data));
    ASSERT_EQ(client->Send(data), 100);
    host.stack->Poll();  // first transmission goes out
    peer.Poll();         // the peer records it and never ACKs
    const std::size_t segs_before = peer.segs.size();

    // No caller timeout: the RTO of the in-flight data is the only deadline,
    // and it must wake the blocked poller and retransmit.
    EXPECT_EQ(host.stack->PollWait(), 0u);
    EXPECT_GE(client->tcp_stats().retransmissions, 1u);
    peer.Poll();
    EXPECT_GT(peer.segs.size(), segs_before) << "no retransmission reached the wire";
  });
  EXPECT_EQ(sched.Run(), 0u);
  EXPECT_EQ(host.stack->wait_stats().timer_wakeups, 1u);
  EXPECT_EQ(host.stack->wait_stats().frame_wakeups, 0u);
  EXPECT_GE(sched.stats().idle_advances, 1u);
}

TEST(PollWait, VirtioWireSignalWakesBlockedHost) {
  ukplat::Clock clock;
  ukplat::Wire wire(&clock);
  Host a(&clock, &wire, 0, MakeIp(10, 0, 0, 1));
  Host b(&clock, &wire, 1, MakeIp(10, 0, 0, 2));
  a.netif->AddArpEntry(MakeIp(10, 0, 0, 2), b.nic->mac());
  b.netif->AddArpEntry(MakeIp(10, 0, 0, 1), a.nic->mac());
  auto sched_owner = uksched::MakeScheduler(b.alloc.get(), &clock);
  auto& sched = *sched_owner;
  b.stack->SetScheduler(&sched);

  auto server = b.stack->UdpOpen();
  ASSERT_TRUE(Ok(server->Bind(7)));
  auto client = a.stack->UdpOpen();

  std::size_t handled = 0;
  bool done = false;
  sched.CreateThread("server", [&] {
    handled = b.stack->PollWait();  // any queue, no timeout
    done = true;
  });
  sched.CreateThread("client", [&] {
    // The server is parked. The client's send pumps ITS device only; b's
    // device side runs off the wire-activity signal (the vhost thread) and
    // must raise the armed interrupt on its own.
    std::uint8_t msg[3] = {1, 2, 3};
    ASSERT_EQ(client->SendTo(MakeIp(10, 0, 0, 2), 7, msg), 3);
    sched.Yield();
    EXPECT_TRUE(done);
  });
  EXPECT_EQ(sched.Run(), 0u);
  EXPECT_GE(handled, 1u);
  EXPECT_EQ(b.stack->wait_stats().frame_wakeups, 1u);
  auto dg = server->RecvFrom();
  ASSERT_TRUE(dg.has_value());
  EXPECT_EQ(dg->payload.size(), 3u);
}

TEST(PollWait, BlockingUdpEchoHoldsZeroAllocInvariants) {
  ukplat::Clock clock;
  ukplat::Wire wire(&clock);
  Host a(&clock, &wire, 0, MakeIp(10, 0, 0, 1));
  Host b(&clock, &wire, 1, MakeIp(10, 0, 0, 2));
  a.netif->AddArpEntry(MakeIp(10, 0, 0, 2), b.nic->mac());
  b.netif->AddArpEntry(MakeIp(10, 0, 0, 1), a.nic->mac());
  auto sched_owner = uksched::MakeScheduler(b.alloc.get(), &clock);
  auto& sched = *sched_owner;
  b.stack->SetScheduler(&sched);

  auto server = b.stack->UdpOpen();
  ASSERT_TRUE(Ok(server->Bind(9000)));
  auto client = a.stack->UdpOpen();

  constexpr std::size_t kBurst = 16;
  constexpr std::uint64_t kSlice = 1'000'000;  // bounded sleeps: loop re-checks stop
  bool stop = false;
  ZeroAllocGuard guard({b.netif->tx_pool(0), b.netif->rx_pool(0)}, b.alloc.get());

  sched.CreateThread("echo-server", [&] {
    std::uint8_t buf[64];
    Ip4Addr src_ip = 0;
    std::uint16_t src_port = 0;
    while (!stop) {
      b.stack->PollWait(NetStack::kAllQueues, kSlice);
      std::int64_t n;
      while ((n = server->RecvInto(buf, &src_ip, &src_port)) > 0) {
        ASSERT_EQ(server->SendTo(src_ip, src_port, std::span(buf, static_cast<std::size_t>(n))),
                  n);
      }
    }
  });
  sched.CreateThread("load", [&] {
    auto run_round = [&] {
      std::uint8_t msg[8] = {'w', 'a', 'i', 't', 0, 0, 0, 0};
      for (std::size_t i = 0; i < kBurst; ++i) {
        msg[4] = static_cast<std::uint8_t>(i);
        ASSERT_EQ(client->SendTo(MakeIp(10, 0, 0, 2), 9000, msg), 8);
      }
      std::size_t replies = 0;
      std::uint8_t buf[64];
      for (int spins = 0; replies < kBurst && spins < 1000; ++spins) {
        sched.Yield();  // let the echo server run
        a.stack->Poll();
        while (client->RecvInto(buf) > 0) {
          ++replies;
        }
      }
      ASSERT_EQ(replies, kBurst);
    };
    run_round();     // warmup: ARP settled, pools primed, server parked once
    guard.Rebase();  // steady state starts here
    run_round();
    // The blocking machinery adds nothing to the per-packet budget: one TX
    // netbuf per reply, one RX ring refill per request, zero heap.
    EXPECT_EQ(guard.pool_allocs(0), kBurst);
    EXPECT_EQ(guard.pool_allocs(1), kBurst);
    guard.ExpectHeapSteady("blocking udp echo steady state");
    stop = true;
  });
  EXPECT_EQ(sched.Run(), 0u);
  EXPECT_GE(b.stack->wait_stats().blocked_waits, 1u);
  EXPECT_GE(b.stack->wait_stats().frame_wakeups, 1u);
}

TEST(PollWait, KvServerSocketModePumpQueueWaitBlocks) {
  ukplat::Clock clock;
  ukplat::Wire wire(&clock);
  Host a(&clock, &wire, 0, MakeIp(10, 0, 0, 1));
  Host b(&clock, &wire, 1, MakeIp(10, 0, 0, 2));
  a.netif->AddArpEntry(MakeIp(10, 0, 0, 2), b.nic->mac());
  b.netif->AddArpEntry(MakeIp(10, 0, 0, 1), a.nic->mac());
  auto sched_owner = uksched::MakeScheduler(b.alloc.get(), &clock);
  auto& sched = *sched_owner;
  vfscore::Vfs vfs;
  posix::PosixApi api(&clock, &vfs, b.stack.get(), posix::DispatchMode::kDirectCall,
                      &sched);
  apps::KvServer server(&api, 7777, apps::KvMode::kSocketSingle);
  // EnableWait must attach the scheduler to the stack itself, or the
  // delegated PollWait would silently degrade to a spin.
  server.EnableWait(&sched);
  ASSERT_TRUE(server.Start());
  ASSERT_TRUE(b.stack->CanBlock() || b.stack->scheduler() == &sched);

  auto client = a.stack->UdpOpen();
  sched.CreateThread("kv-server", [&] {
    while (server.requests() == 0) {
      server.PumpQueueWait(0, 50'000'000);
    }
  });
  sched.CreateThread("kv-client", [&] {
    EXPECT_EQ(server.requests(), 0u);
    apps::KvRequest set{true, 7, "seven"};
    auto payload = apps::EncodeKvRequest(set);
    ASSERT_GT(client->SendTo(MakeIp(10, 0, 0, 2), 7777, payload), 0);
  });
  EXPECT_EQ(sched.Run(), 0u);
  EXPECT_EQ(server.requests(), 1u);
  // The sleep really went through the stack's wait machinery.
  EXPECT_GE(b.stack->wait_stats().blocked_waits, 1u);
  EXPECT_GE(b.stack->wait_stats().frame_wakeups, 1u);
  EXPECT_GE(server.wait_stats().blocked_waits, 1u);
}

TEST(PosixBlocking, RecvFromSleepsUntilDatagram) {
  ukplat::Clock clock;
  ukplat::Wire wire(&clock);
  Host a(&clock, &wire, 0, MakeIp(10, 0, 0, 1));
  Host b(&clock, &wire, 1, MakeIp(10, 0, 0, 2));
  a.netif->AddArpEntry(MakeIp(10, 0, 0, 2), b.nic->mac());
  b.netif->AddArpEntry(MakeIp(10, 0, 0, 1), a.nic->mac());
  auto sched_owner = uksched::MakeScheduler(b.alloc.get(), &clock);
  auto& sched = *sched_owner;
  b.stack->SetScheduler(&sched);
  vfscore::Vfs vfs;
  posix::PosixApi api(&clock, &vfs, b.stack.get(), posix::DispatchMode::kDirectCall,
                      &sched);

  int fd = api.Socket(posix::SockType::kDgram);
  ASSERT_GE(fd, 3);
  ASSERT_EQ(api.Bind(fd, 7), 0);
  ASSERT_EQ(api.SetBlocking(fd, true), 0);
  EXPECT_TRUE(api.IsBlocking(fd));

  auto client = a.stack->UdpOpen();
  std::int64_t got = -1;
  sched.CreateThread("server", [&] {
    std::uint8_t buf[32];
    Ip4Addr src_ip = 0;
    std::uint16_t src_port = 0;
    got = api.RecvFrom(fd, buf, &src_ip, &src_port);  // must sleep, not -EAGAIN
    EXPECT_EQ(src_ip, MakeIp(10, 0, 0, 1));
  });
  sched.CreateThread("client", [&] {
    EXPECT_EQ(got, -1) << "blocking recvfrom returned before any datagram";
    std::uint8_t msg[5] = {'h', 'e', 'l', 'l', 'o'};
    ASSERT_EQ(client->SendTo(MakeIp(10, 0, 0, 2), 7, msg), 5);
  });
  EXPECT_EQ(sched.Run(), 0u);
  EXPECT_EQ(got, 5);
  EXPECT_GE(b.stack->wait_stats().blocked_waits, 1u);
}

TEST(PosixBlocking, AcceptSleepsUntilConnection) {
  ukplat::Clock clock;
  ukplat::Wire wire(&clock);
  Host a(&clock, &wire, 0, MakeIp(10, 0, 0, 1));
  Host b(&clock, &wire, 1, MakeIp(10, 0, 0, 2));
  a.netif->AddArpEntry(MakeIp(10, 0, 0, 2), b.nic->mac());
  b.netif->AddArpEntry(MakeIp(10, 0, 0, 1), a.nic->mac());
  auto sched_owner = uksched::MakeScheduler(b.alloc.get(), &clock);
  auto& sched = *sched_owner;
  b.stack->SetScheduler(&sched);
  vfscore::Vfs vfs;
  posix::PosixApi api(&clock, &vfs, b.stack.get(), posix::DispatchMode::kDirectCall,
                      &sched);

  int lfd = api.Socket(posix::SockType::kStream);
  ASSERT_GE(lfd, 3);
  ASSERT_EQ(api.Bind(lfd, 80), 0);
  ASSERT_EQ(api.Listen(lfd), 0);
  ASSERT_EQ(api.SetBlocking(lfd, true), 0);

  int cfd = -1;
  std::shared_ptr<TcpSocket> conn;
  sched.CreateThread("server", [&] { cfd = api.Accept(lfd); });
  sched.CreateThread("client", [&] {
    EXPECT_EQ(cfd, -1) << "blocking accept returned before any connection";
    conn = a.stack->TcpConnect(MakeIp(10, 0, 0, 2), 80);
    for (int i = 0; i < 50 && !conn->connected(); ++i) {
      a.stack->Poll();  // drives the client half of the handshake
      sched.Yield();    // the blocked accept drives the server half
    }
    EXPECT_TRUE(conn->connected());
  });
  EXPECT_EQ(sched.Run(), 0u);
  EXPECT_GE(cfd, 3);
  EXPECT_GE(b.stack->wait_stats().frame_wakeups, 1u);
}

// ---- TX batching: never park on parked frames ---------------------------------------

// A PollWait inside an open TX batch flushes what the batch parked before it
// sleeps: the datagram reaches the peer while the sender is blocked, and the
// peer's answer is what wakes it.
TEST(TxBatch, ParkingPollWaitFlushesTheEnclosingBatchFirst) {
  ukplat::Clock clock;
  ukplat::Wire wire(&clock);
  Host a(&clock, &wire, 0, MakeIp(10, 0, 0, 1));
  Host b(&clock, &wire, 1, MakeIp(10, 0, 0, 2));
  a.netif->AddArpEntry(MakeIp(10, 0, 0, 2), b.nic->mac());
  b.netif->AddArpEntry(MakeIp(10, 0, 0, 1), a.nic->mac());
  auto sched_owner = uksched::MakeScheduler(b.alloc.get(), &clock);
  auto& sched = *sched_owner;
  b.stack->SetScheduler(&sched);

  auto asker = b.stack->UdpOpen();
  auto answerer = a.stack->UdpOpen();
  ASSERT_TRUE(Ok(answerer->Bind(7)));

  std::size_t handled = 0;
  bool done = false;
  sched.CreateThread("asker", [&] {
    NetStack::TxBatch batch(b.stack.get());
    std::uint8_t q[2] = {'q', '?'};
    ASSERT_EQ(asker->SendTo(MakeIp(10, 0, 0, 1), 7, q), 2);
    EXPECT_EQ(b.netif->tx_parked(0), 1u) << "an open batch must park the frame";
    EXPECT_EQ(b.nic->stats().tx_packets, 0u);
    handled = b.stack->PollWait(NetStack::kAllQueues, 10'000'000'000ull);
    done = true;
  });
  sched.CreateThread("answerer", [&] {
    // The asker is parked, and its question went out before it parked.
    EXPECT_FALSE(done);
    EXPECT_EQ(b.stack->wait_stats().blocked_waits, 1u);
    EXPECT_EQ(b.netif->tx_parked(0), 0u);
    EXPECT_EQ(b.nic->stats().tx_packets, 1u);
    a.stack->Poll();
    std::uint8_t buf[8];
    Ip4Addr src_ip = 0;
    std::uint16_t src_port = 0;
    ASSERT_EQ(answerer->RecvInto(buf, &src_ip, &src_port), 2);
    std::uint8_t reply[1] = {'!'};
    ASSERT_EQ(answerer->SendTo(src_ip, src_port, reply), 1);
    sched.Yield();
    EXPECT_TRUE(done);
  });
  EXPECT_EQ(sched.Run(), 0u);
  EXPECT_GE(handled, 1u);
  EXPECT_EQ(b.stack->wait_stats().frame_wakeups, 1u);
  std::uint8_t buf[8];
  EXPECT_EQ(asker->RecvInto(buf), 1);
}

// What a PollWait drain sends leaves in one TxBurst: a burst of pings that
// wakes a blocked host is answered with one vhost-net kick, not one per echo.
TEST(TxBatch, PollWaitDrainAnswersABurstInOneTxBurst) {
  ukplat::Clock clock;
  ukplat::Wire wire(&clock);
  Host a(&clock, &wire, 0, MakeIp(10, 0, 0, 1));
  Host b(&clock, &wire, 1, MakeIp(10, 0, 0, 2), 1, 256,
         uknetdev::VirtioBackend::kVhostNet);
  a.netif->AddArpEntry(MakeIp(10, 0, 0, 2), b.nic->mac());
  b.netif->AddArpEntry(MakeIp(10, 0, 0, 1), a.nic->mac());
  auto sched_owner = uksched::MakeScheduler(b.alloc.get(), &clock);
  auto& sched = *sched_owner;
  b.stack->SetScheduler(&sched);

  constexpr std::uint16_t kPings = 12;
  std::size_t handled = 0;
  sched.CreateThread("responder", [&] {
    handled = b.stack->PollWait(NetStack::kAllQueues, 10'000'000'000ull);
  });
  sched.CreateThread("pinger", [&] {
    EXPECT_EQ(b.stack->wait_stats().blocked_waits, 1u);
    for (std::uint16_t i = 0; i < kPings; ++i) {
      ASSERT_TRUE(a.stack->Ping(MakeIp(10, 0, 0, 2), i));
    }
  });
  EXPECT_EQ(sched.Run(), 0u);
  EXPECT_EQ(handled, kPings);
  EXPECT_EQ(b.nic->kicks(), 1u);
  EXPECT_EQ(b.nic->stats().tx_packets, kPings);
  a.stack->Poll();
  EXPECT_EQ(a.stack->pings_answered(), kPings);
}

// The UDP echo of BlockingUdpEchoHoldsZeroAllocInvariants with every round's
// replies sent inside one batch: they leave in one TxBurst (one vhost-net
// kick), and parking them costs no pool buffer and no heap.
TEST(TxBatch, BatchedUdpEchoHoldsZeroAllocInvariants) {
  ukplat::Clock clock;
  ukplat::Wire wire(&clock);
  Host a(&clock, &wire, 0, MakeIp(10, 0, 0, 1));
  Host b(&clock, &wire, 1, MakeIp(10, 0, 0, 2), 1, 256,
         uknetdev::VirtioBackend::kVhostNet);
  a.netif->AddArpEntry(MakeIp(10, 0, 0, 2), b.nic->mac());
  b.netif->AddArpEntry(MakeIp(10, 0, 0, 1), a.nic->mac());
  auto sched_owner = uksched::MakeScheduler(b.alloc.get(), &clock);
  auto& sched = *sched_owner;
  b.stack->SetScheduler(&sched);

  auto server = b.stack->UdpOpen();
  ASSERT_TRUE(Ok(server->Bind(9000)));
  auto client = a.stack->UdpOpen();

  constexpr std::size_t kBurst = 16;
  constexpr std::uint64_t kSlice = 1'000'000;
  bool stop = false;
  std::size_t max_parked = 0;
  ZeroAllocGuard guard({b.netif->tx_pool(0), b.netif->rx_pool(0)}, b.alloc.get());

  sched.CreateThread("echo-server", [&] {
    std::uint8_t buf[64];
    Ip4Addr src_ip = 0;
    std::uint16_t src_port = 0;
    while (!stop) {
      b.stack->PollWait(NetStack::kAllQueues, kSlice);
      NetStack::TxBatch batch(b.stack.get());
      std::int64_t n;
      while ((n = server->RecvInto(buf, &src_ip, &src_port)) > 0) {
        ASSERT_EQ(server->SendTo(src_ip, src_port, std::span(buf, static_cast<std::size_t>(n))),
                  n);
      }
      max_parked = std::max<std::size_t>(max_parked, b.netif->tx_parked(0));
    }
  });
  sched.CreateThread("load", [&] {
    auto run_round = [&] {
      std::uint8_t msg[8] = {'b', 'a', 't', 'c', 'h', 0, 0, 0};
      for (std::size_t i = 0; i < kBurst; ++i) {
        msg[5] = static_cast<std::uint8_t>(i);
        ASSERT_EQ(client->SendTo(MakeIp(10, 0, 0, 2), 9000, msg), 8);
      }
      std::size_t replies = 0;
      std::uint8_t buf[64];
      for (int spins = 0; replies < kBurst && spins < 1000; ++spins) {
        sched.Yield();
        a.stack->Poll();
        while (client->RecvInto(buf) > 0) {
          ++replies;
        }
      }
      ASSERT_EQ(replies, kBurst);
    };
    run_round();
    guard.Rebase();
    const std::uint64_t kicks = b.nic->kicks();
    run_round();
    // The whole burst was answered inside one batch: one TxBurst, one kick.
    EXPECT_EQ(max_parked, kBurst);
    EXPECT_EQ(b.nic->kicks() - kicks, 1u);
    EXPECT_EQ(guard.pool_allocs(0), kBurst);
    EXPECT_EQ(guard.pool_allocs(1), kBurst);
    guard.ExpectHeapSteady("batched udp echo steady state");
    stop = true;
  });
  EXPECT_EQ(sched.Run(), 0u);
  EXPECT_EQ(b.nic->stats().tx_drops, 0u);
}

// A batch holding more frames than the TX ring (128 here), or than the
// queue's TX pool, flushes early instead of dropping: every datagram arrives,
// in order, and a ring-bound batch takes ceil(n / ring) bursts.
TEST(TxBatch, BatchLargerThanRingOrPoolFlushesEarlyWithoutDrops) {
  struct Case {
    std::uint32_t pool_bufs;
    std::size_t datagrams;
    std::uint64_t bursts;  // 0: not asserted
  };
  for (const Case& c : {Case{1024, 300, 3}, Case{64, 200, 0}}) {
    SCOPED_TRACE(testing::Message() << "pool " << c.pool_bufs);
    ukplat::Clock clock;
    ukplat::Wire wire(&clock);
    Host a(&clock, &wire, 0, MakeIp(10, 0, 0, 1), 1, c.pool_bufs,
           uknetdev::VirtioBackend::kVhostNet);
    Host b(&clock, &wire, 1, MakeIp(10, 0, 0, 2), 1, 1024);
    a.netif->AddArpEntry(MakeIp(10, 0, 0, 2), b.nic->mac());
    b.netif->AddArpEntry(MakeIp(10, 0, 0, 1), a.nic->mac());
    auto server = b.stack->UdpOpen();
    ASSERT_TRUE(Ok(server->Bind(7)));
    auto client = a.stack->UdpOpen();
    {
      NetStack::TxBatch batch(a.stack.get());
      for (std::size_t i = 0; i < c.datagrams; ++i) {
        std::uint8_t msg[2] = {static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i >> 8)};
        ASSERT_EQ(client->SendTo(MakeIp(10, 0, 0, 2), 7, msg), 2) << "datagram " << i;
      }
      EXPECT_GT(a.nic->stats().tx_packets, 0u) << "nothing flushed before the batch closed";
      EXPECT_LT(a.netif->tx_parked(0), c.datagrams);
    }
    EXPECT_EQ(a.netif->tx_parked(0), 0u);
    EXPECT_EQ(a.nic->stats().tx_packets, c.datagrams);
    EXPECT_EQ(a.nic->stats().tx_drops, 0u);
    if (c.bursts != 0) {
      EXPECT_EQ(a.nic->kicks(), c.bursts);
    }
    std::size_t got = 0;
    for (int i = 0; i < 100 && got < c.datagrams; ++i) {
      b.stack->Poll();
      std::uint8_t buf[4];
      std::int64_t n;
      while ((n = server->RecvInto(buf)) > 0) {
        ASSERT_EQ(n, 2);
        EXPECT_EQ(buf[0] | (buf[1] << 8), static_cast<int>(got));
        ++got;
      }
    }
    EXPECT_EQ(got, c.datagrams);
  }
}

}  // namespace
