// Table 4 companion: TCP echo throughput, deque-copy send path vs the
// retained-netbuf retransmission queue. The stream really traverses both
// stacks, the virtqueues and the wire; throughput comes from the virtual
// clock. The "deque-copy" row models the pre-refactor TX path by charging
// the one extra per-byte copy it performed (send deque -> TX netbuf) on top
// of the identical run; the retained path writes app bytes straight into the
// wire buffer, so its row is the measurement with no extra charge. A lossy
// section shows the other half of the win: retransmissions re-burst retained
// buffers, so TX pool churn per delivered MB stays flat.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/event_loop.h"
#include "apps/stream_server.h"
#include "bench/common.h"
#include "uknet/stack.h"
#include "uknetdev/virtio_net.h"

namespace {

using namespace uknet;

struct EchoHost {
  // |pool_bufs| is the TOTAL netbuf budget (0 = the single-connection
  // default); sized by workload (connections in flight), not by queue count,
  // so single- and multi-queue rows face the same buffer pressure.
  EchoHost(ukplat::Clock* clock, ukplat::Wire* wire, int side, Ip4Addr ip,
           std::uint16_t queues = 1, std::uint32_t pool_bufs = 0)
      : mem(48 << 20) {
    std::uint64_t heap_gpa = mem.Carve(32 << 20, 4096);
    alloc = ukalloc::CreateAllocator(ukalloc::Backend::kTlsf, mem.At(heap_gpa, 32 << 20),
                                     32 << 20);
    uknetdev::VirtioNet::Config cfg;
    cfg.backend = uknetdev::VirtioBackend::kVhostUser;
    cfg.wire_side = side;
    cfg.mac = uknetdev::MacAddr{{2, 0, 0, 0, 0, static_cast<std::uint8_t>(side + 1)}};
    cfg.queue_size = 256;
    nic = std::make_unique<uknetdev::VirtioNet>(&mem, clock, wire, cfg);
    stack = std::make_unique<NetStack>(&mem, clock, alloc.get());
    NetIf::Config ifcfg;
    ifcfg.ip = ip;
    ifcfg.queues = queues;
    ifcfg.tx_pool_bufs = pool_bufs != 0 ? pool_bufs : 256;
    ifcfg.rx_pool_bufs = pool_bufs != 0 ? pool_bufs : 512;
    netif = stack->AddInterface(nic.get(), ifcfg);
  }

  ukplat::MemRegion mem;
  std::unique_ptr<ukalloc::Allocator> alloc;
  std::unique_ptr<uknetdev::VirtioNet> nic;
  std::unique_ptr<NetStack> stack;
  NetIf* netif = nullptr;
};

struct EchoResult {
  double mbit_per_s = 0.0;
  // Virtual time of the stream before the host-time share is added: the
  // deterministic part of the run (wire, devices, per-round charges).
  double modeled_ns = 0.0;
  std::uint64_t retransmissions = 0;
  std::uint64_t tx_allocs = 0;
  std::uint64_t bytes = 0;
  // Frame accounting, split by direction and by kind: the delayed-ACK win
  // shows up as |rev_pure_acks| falling well below |fwd_data_frames| (the
  // reverse path used to carry one ACK per data segment).
  std::uint64_t fwd_data_frames = 0;  // client data segments (incl. rexmits)
  std::uint64_t fwd_pure_acks = 0;    // client ACK-only frames
  std::uint64_t rev_data_frames = 0;  // server echo data segments
  std::uint64_t rev_pure_acks = 0;    // server ACK-only frames
  std::uint64_t fwd_frames = 0;       // every frame the client socket sent
  std::uint64_t fwd_rexmit_events = 0;  // client-side recovery events
  std::uint64_t fast_retransmits = 0;
  std::uint64_t rto_retransmits = 0;
  std::uint64_t sack_spared_segments = 0;  // rexmits skipped as SACKed
  std::uint64_t tlp_probes = 0;            // tail-loss probes, both ends
  std::uint64_t rexmit_copy_allocs = 0;    // rexmits that left retained bufs
};

// Streams |total_bytes| client->server, echoing everything back. When
// |model_deque_copy| is set, every payload byte the client's TCP layer hands
// to the device is charged one extra copy — the deque->netbuf copy of the
// old send path (retransmitted bytes pay it again, as they did then).
// |app_window| caps the application-level bytes outstanding (sent but not
// yet echoed back) — request/response pacing. A capped flow is where loss
// recovery is hardest: with no fresh data to trigger dup ACKs, a tail loss
// needs SACK and the tail-loss probe to avoid a full RTO.
EchoResult RunEcho(std::size_t total_bytes, double drop_rate, bool model_deque_copy,
                   std::size_t app_window = static_cast<std::size_t>(-1)) {
  ukplat::Clock clock;
  ukplat::Wire::Config wire_cfg;
  wire_cfg.queue_depth = 4096;
  wire_cfg.drop_rate = drop_rate;
  ukplat::Wire wire(&clock, wire_cfg);
  EchoHost a(&clock, &wire, 0, MakeIp(10, 0, 0, 1));
  EchoHost b(&clock, &wire, 1, MakeIp(10, 0, 0, 2));
  // Loss-free wire: the RTO only guards genuine stalls. Keep it well above
  // the worst-case queueing delay of 16 windows behind one queue, or the
  // single-queue row collapses into spurious go-back-N storms.
  a.stack->rto_cycles = 20'000'000;
  b.stack->rto_cycles = 20'000'000;
  a.netif->AddArpEntry(MakeIp(10, 0, 0, 2), b.nic->mac());
  b.netif->AddArpEntry(MakeIp(10, 0, 0, 1), a.nic->mac());

  auto listener = b.stack->TcpListen(7);
  auto client = a.stack->TcpConnect(MakeIp(10, 0, 0, 2), 7);
  std::shared_ptr<TcpSocket> server;

  std::vector<std::uint8_t> chunk(8192);
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    chunk[i] = static_cast<std::uint8_t>(i * 31);
  }
  std::uint8_t buf[8192];
  std::size_t sent = 0;
  std::size_t echoed_back = 0;
  // Echo bytes the server's send buffer couldn't take yet. Under loss the
  // reverse path can spend a while in recovery with its send buffer full;
  // dropping the overflow would cap |echoed_back| short of the stream.
  std::vector<std::uint8_t> backlog;
  std::size_t backlog_off = 0;
  std::uint64_t tx_allocs_before = a.netif->tx_pool()->total_allocs();
  std::uint64_t last_client_segments = 0;
  std::uint64_t last_server_segments = 0;
  bench::RealTimer timer;
  for (int rounds = 0; rounds < 4'000'000 && echoed_back < total_bytes; ++rounds) {
    clock.Charge(5'000);  // advance virtual time so RTOs can fire under loss
    const std::size_t outstanding = sent - echoed_back;
    if (client->connected() && sent < total_bytes && outstanding < app_window) {
      std::size_t want = total_bytes - sent;
      std::size_t window_left = app_window - outstanding;
      want = want < window_left ? want : window_left;
      std::int64_t n = client->Send(
          std::span(chunk.data(), want < chunk.size() ? want : chunk.size()));
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
      }
    }
    a.stack->Poll();
    b.stack->Poll();
    if (server == nullptr) {
      server = listener->Accept();
    } else {
      // Echo server: drain and send right back, parking what doesn't fit.
      if (backlog_off < backlog.size()) {
        std::int64_t n = server->Send(
            std::span(backlog.data() + backlog_off, backlog.size() - backlog_off));
        if (n > 0) {
          backlog_off += static_cast<std::size_t>(n);
        }
      }
      if (backlog_off >= backlog.size()) {
        backlog.clear();
        backlog_off = 0;
        std::int64_t r = server->Recv(buf);
        if (r > 0) {
          std::int64_t n = server->Send(std::span(buf, static_cast<std::size_t>(r)));
          std::size_t took = n > 0 ? static_cast<std::size_t>(n) : 0;
          if (took < static_cast<std::size_t>(r)) {
            backlog.assign(buf + took, buf + r);
          }
        }
      }
      std::int64_t e = client->Recv(buf);
      if (e > 0) {
        echoed_back += static_cast<std::size_t>(e);
      }
    }
    if (model_deque_copy) {
      // The old path copied each transmitted segment's payload out of the
      // byte deque; charge that copy for the new segments both ends sent.
      std::uint64_t cs = client->tcp_stats().segments_sent;
      std::uint64_t ss = server != nullptr ? server->tcp_stats().segments_sent : 0;
      std::uint64_t fresh = (cs - last_client_segments) + (ss - last_server_segments);
      last_client_segments = cs;
      last_server_segments = ss;
      clock.ChargeCopy(fresh * TcpSocket::kMss);
    }
  }
  EchoResult res;
  res.modeled_ns = clock.nanoseconds();
  clock.Charge(clock.model().NsToCycles(timer.ElapsedNs() * bench::kSimNormalization));

  res.bytes = echoed_back;
  double seconds = clock.nanoseconds() / 1e9;
  // Echo moves every byte twice (there and back).
  res.mbit_per_s = seconds > 0 ? 2.0 * static_cast<double>(echoed_back) * 8.0 /
                                     seconds / 1e6
                               : 0.0;
  res.retransmissions = client->tcp_stats().retransmissions +
                        (server != nullptr ? server->tcp_stats().retransmissions : 0);
  res.tx_allocs = a.netif->tx_pool()->total_allocs() - tx_allocs_before;
  const auto& cs = client->tcp_stats();
  res.fwd_data_frames = cs.data_segments_sent;
  res.fwd_pure_acks = cs.pure_acks_sent;
  res.fwd_frames = cs.segments_sent;
  res.fwd_rexmit_events = cs.retransmissions;
  res.fast_retransmits = cs.fast_retransmits;
  res.rto_retransmits = cs.rto_retransmits;
  res.sack_spared_segments = cs.sack_rexmit_segments;
  res.tlp_probes = cs.tlp_probes;
  res.rexmit_copy_allocs = cs.rexmit_copy_allocs;
  if (server != nullptr) {
    res.rev_data_frames = server->tcp_stats().data_segments_sent;
    res.rev_pure_acks = server->tcp_stats().pure_acks_sent;
    res.fast_retransmits += server->tcp_stats().fast_retransmits;
    res.rto_retransmits += server->tcp_stats().rto_retransmits;
    res.sack_spared_segments += server->tcp_stats().sack_rexmit_segments;
    res.tlp_probes += server->tcp_stats().tlp_probes;
    res.rexmit_copy_allocs += server->tcp_stats().rexmit_copy_allocs;
  }
  return res;
}

// --wait: the same single-connection echo stream, but the server side runs as
// a blocked uksched thread: NetStack::PollWait arms the RX interrupt and
// halts between bursts, with its own RTO deadlines folded into the wake
// timeout. The client half keeps the spin loop (it always has work), so the
// comparison isolates what blocking does to a busy TCP peer: throughput holds
// while the server burns poll passes only when woken.
struct WaitEchoResult {
  EchoResult echo;
  uknet::NetStack::WaitStats waits;
  std::uint64_t idle_halts = 0;
};

WaitEchoResult RunEchoWait(std::size_t total_bytes) {
  ukplat::Clock clock;
  ukplat::Wire::Config wire_cfg;
  wire_cfg.queue_depth = 4096;
  ukplat::Wire wire(&clock, wire_cfg);
  EchoHost a(&clock, &wire, 0, MakeIp(10, 0, 0, 1));
  EchoHost b(&clock, &wire, 1, MakeIp(10, 0, 0, 2));
  a.stack->rto_cycles = 20'000'000;
  b.stack->rto_cycles = 20'000'000;
  a.netif->AddArpEntry(MakeIp(10, 0, 0, 2), b.nic->mac());
  b.netif->AddArpEntry(MakeIp(10, 0, 0, 1), a.nic->mac());
  auto sched_owner = uksched::MakeScheduler(b.alloc.get(), &clock);
  auto& sched = *sched_owner;
  b.stack->SetScheduler(&sched);

  auto listener = b.stack->TcpListen(7);
  auto client = a.stack->TcpConnect(MakeIp(10, 0, 0, 2), 7);
  std::shared_ptr<TcpSocket> server;

  std::vector<std::uint8_t> chunk(8192);
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    chunk[i] = static_cast<std::uint8_t>(i * 31);
  }
  std::size_t sent = 0;
  std::size_t echoed_back = 0;
  bool done = false;
  std::uint64_t done_cycles = 0;
  std::uint64_t tx_allocs_before = a.netif->tx_pool()->total_allocs();

  sched.CreateThread("echo-server", [&] {
    std::uint8_t buf[8192];
    while (!done) {
      // Bounded slice only so the loop observes |done|; real wakeups come
      // from frames (and the connection's RTO when data is in flight).
      b.stack->PollWait(NetStack::kAllQueues, 50'000'000);
      if (server == nullptr) {
        server = listener->Accept();
      }
      if (server != nullptr) {
        std::int64_t r;
        while ((r = server->Recv(buf)) > 0) {
          server->Send(std::span(buf, static_cast<std::size_t>(r)));
        }
      }
    }
  });
  sched.CreateThread("client", [&] {
    std::uint8_t buf[8192];
    bench::RealTimer timer;
    for (int rounds = 0; rounds < 4'000'000 && echoed_back < total_bytes; ++rounds) {
      clock.Charge(5'000);
      if (client->connected() && sent < total_bytes) {
        std::size_t want = total_bytes - sent;
        std::int64_t n = client->Send(
            std::span(chunk.data(), want < chunk.size() ? want : chunk.size()));
        if (n > 0) {
          sent += static_cast<std::size_t>(n);
        }
      }
      a.stack->Poll();
      std::int64_t e = client->Recv(buf);
      if (e > 0) {
        echoed_back += static_cast<std::size_t>(e);
      }
      sched.Yield();  // hand the CPU to the (probably woken) server thread
    }
    clock.Charge(
        clock.model().NsToCycles(timer.ElapsedNs() * bench::kSimNormalization));
    // Snapshot the ledger BEFORE releasing the server: its final slice
    // timeout (the clock jump that lets it observe |done|) is shutdown
    // bookkeeping, not part of the measured stream.
    done_cycles = clock.cycles();
    done = true;
  });
  sched.Run();

  WaitEchoResult res;
  res.echo.bytes = echoed_back;
  double seconds = clock.model().CyclesToNs(done_cycles) / 1e9;
  res.echo.mbit_per_s =
      seconds > 0 ? 2.0 * static_cast<double>(echoed_back) * 8.0 / seconds / 1e6 : 0.0;
  res.echo.retransmissions =
      client->tcp_stats().retransmissions +
      (server != nullptr ? server->tcp_stats().retransmissions : 0);
  res.echo.tx_allocs = a.netif->tx_pool()->total_allocs() - tx_allocs_before;
  res.waits = b.stack->wait_stats();
  res.idle_halts = sched.stats().idle_advances;
  return res;
}

// --queues N: |conns| concurrent echo connections over an N-queue datapath.
// Each connection pins to its RSS queue; the server drives one NetIf::Poll(q)
// loop per queue (round-robined by this single thread — one core per loop on
// real SMP). Reports aggregate throughput and how the flows spread.
struct ShardedResult {
  double mbit_per_s = 0.0;
  std::uint64_t per_queue_segments[8] = {0};
};

ShardedResult RunEchoSharded(std::size_t total_bytes_per_conn, std::uint16_t queues,
                             std::size_t conns) {
  ukplat::Clock clock;
  ukplat::Wire::Config wire_cfg;
  wire_cfg.queue_depth = 100000;  // 16 windows in flight outgrow the default
  ukplat::Wire wire(&clock, wire_cfg);
  // Budget ~128 netbufs per connection (a 64KB send buffer retains ~47 MSS
  // segments) so pool pressure is identical across queue counts.
  const std::uint32_t pool_bufs = static_cast<std::uint32_t>(conns) * 128;
  EchoHost a(&clock, &wire, 0, MakeIp(10, 0, 0, 1), queues, pool_bufs);
  EchoHost b(&clock, &wire, 1, MakeIp(10, 0, 0, 2), queues, pool_bufs);
  // Loss-free wire: the RTO only guards genuine stalls. Keep it well above
  // the worst-case queueing delay of 16 windows behind one queue, or the
  // single-queue row collapses into spurious go-back-N storms.
  a.stack->rto_cycles = 20'000'000;
  b.stack->rto_cycles = 20'000'000;
  a.netif->AddArpEntry(MakeIp(10, 0, 0, 2), b.nic->mac());
  b.netif->AddArpEntry(MakeIp(10, 0, 0, 1), a.nic->mac());

  auto listener = b.stack->TcpListen(7);
  std::vector<std::shared_ptr<TcpSocket>> clients;
  std::vector<std::shared_ptr<TcpSocket>> servers;
  for (std::size_t i = 0; i < conns; ++i) {
    clients.push_back(a.stack->TcpConnect(MakeIp(10, 0, 0, 2), 7));
  }
  std::vector<std::uint8_t> chunk(4096);
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    chunk[i] = static_cast<std::uint8_t>(i * 31);
  }
  std::uint8_t buf[8192];
  std::vector<std::size_t> sent(conns, 0), echoed(conns, 0);
  std::size_t done = 0;
  bench::RealTimer timer;
  for (int rounds = 0; rounds < 4'000'000 && done < conns; ++rounds) {
    clock.Charge(5'000);
    for (std::size_t i = 0; i < conns; ++i) {
      if (clients[i]->connected() && sent[i] < total_bytes_per_conn) {
        std::size_t want = total_bytes_per_conn - sent[i];
        std::int64_t n = clients[i]->Send(
            std::span(chunk.data(), want < chunk.size() ? want : chunk.size()));
        if (n > 0) {
          sent[i] += static_cast<std::size_t>(n);
        }
      }
    }
    // Equal poll budget per round (>= 4 RX bursts per host) regardless of
    // queue count, so the rows compare at the same total CPU: NetStack::Poll
    // pumps each queue once; lower queue counts get extra per-queue passes —
    // the sharded event-loop body NetIf::Poll(q) — to even the budget out
    // (rounded up, so no row is ever under-budgeted vs the baseline).
    a.stack->Poll();
    b.stack->Poll();
    const int extra_passes = (4 + queues - 1) / queues - 1;
    for (int pass = 0; pass < extra_passes; ++pass) {
      for (std::uint16_t q = 0; q < queues; ++q) {
        a.netif->Poll(q);
        b.netif->Poll(q);
      }
    }
    while (auto srv = listener->Accept()) {
      servers.push_back(srv);
    }
    for (auto& srv : servers) {
      std::int64_t r = srv->Recv(buf);
      if (r > 0) {
        srv->Send(std::span(buf, static_cast<std::size_t>(r)));
      }
    }
    done = 0;
    for (std::size_t i = 0; i < conns; ++i) {
      std::int64_t e = clients[i]->Recv(buf);
      if (e > 0) {
        echoed[i] += static_cast<std::size_t>(e);
      }
      if (echoed[i] >= total_bytes_per_conn) {
        ++done;
      }
    }
  }
  clock.Charge(clock.model().NsToCycles(timer.ElapsedNs() * bench::kSimNormalization));

  ShardedResult res;
  std::size_t total = 0;
  for (std::size_t i = 0; i < conns; ++i) {
    total += echoed[i];
    if (clients[i]->tx_queue() < 8) {
      res.per_queue_segments[clients[i]->tx_queue()] +=
          clients[i]->tcp_stats().segments_sent;
    }
  }
  double seconds = clock.nanoseconds() / 1e9;
  res.mbit_per_s = seconds > 0
                       ? 2.0 * static_cast<double>(total) * 8.0 / seconds / 1e6
                       : 0.0;
  return res;
}

// --eventloop: N concurrent echo connections served by ONE thread running the
// posix epoll machinery through apps::EventLoop — the §3/§4 readiness story:
// the listener and every connection sit behind a single EpollWait, which
// parks in NetStack::PollWait whenever nothing is ready. The client half
// keeps all N pipelines full from a second (spinning) thread. Reported: the
// aggregate throughput, the server's wait ledger, an idle-window spin check
// (must be 0), and the unikernel-heap delta across the steady state (must be
// 0: views, in-place encoders, reused event arrays).
struct EventLoopEchoResult {
  double mbit_per_s = 0.0;
  std::size_t conns = 0;
  uknet::NetStack::WaitStats waits;
  std::uint64_t idle_poll_growth = 0;
  std::int64_t heap_delta_bytes = 0;
};

EventLoopEchoResult RunEchoEventLoop(std::size_t conns, std::size_t bytes_per_conn,
                                     std::uint16_t queues) {
  ukplat::Clock clock;
  ukplat::Wire::Config wire_cfg;
  wire_cfg.queue_depth = 100000;
  ukplat::Wire wire(&clock, wire_cfg);
  // ~32 netbufs per connection: echo replies turn around immediately, so the
  // retained-segment population stays small — and two pools per host must
  // still fit the 48 MB guest RAM region alongside the heap and the rings.
  const std::uint32_t pool_bufs = static_cast<std::uint32_t>(conns) * 32;
  EchoHost a(&clock, &wire, 0, MakeIp(10, 0, 0, 1), queues, pool_bufs);
  EchoHost b(&clock, &wire, 1, MakeIp(10, 0, 0, 2), queues, pool_bufs);
  a.stack->rto_cycles = 20'000'000;
  b.stack->rto_cycles = 20'000'000;
  a.netif->AddArpEntry(MakeIp(10, 0, 0, 2), b.nic->mac());
  b.netif->AddArpEntry(MakeIp(10, 0, 0, 1), a.nic->mac());
  auto sched_owner = uksched::MakeScheduler(b.alloc.get(), &clock);
  auto& sched = *sched_owner;
  b.stack->SetScheduler(&sched);
  vfscore::Vfs vfs;
  posix::PosixApi api(&clock, &vfs, b.stack.get(), posix::DispatchMode::kDirectCall,
                      &sched);

  // The echo server is the StreamServer scaffold with the identity protocol:
  // accept drain, recv loop, interest-tracked flush and close-after-drain all
  // come from the shared machinery; echo is one on_data callback.
  apps::EventLoop loop(&api);
  apps::StreamServer::Handler echo;
  echo.on_data = [](apps::StreamServer::Conn& c, std::string_view data) {
    c.out.append(data);
  };
  apps::StreamServer server(&api, &loop, echo);
  server.Listen(7);

  bool done = false;
  std::uint64_t done_cycles = 0;
  EventLoopEchoResult res;
  res.conns = conns;

  sched.CreateThread("echo-eventloop", [&] {
    while (!done) {
      loop.PumpOnce(500'000'000);  // bounded slice only to observe |done|
      // Run-to-block + yield: a busy turn returns immediately with events,
      // and under cooperative scheduling the loop must hand the CPU back so
      // the peers can ACK (their ACKs are what refill the TX pool). An idle
      // turn blocks in EpollWait, so this never becomes a spin.
      sched.Yield();
    }
  });
  sched.CreateThread("clients", [&] {
    std::vector<std::shared_ptr<TcpSocket>> socks;
    for (std::size_t i = 0; i < conns; ++i) {
      socks.push_back(a.stack->TcpConnect(MakeIp(10, 0, 0, 2), 7));
    }
    auto pump = [&] {
      clock.Charge(5'000);
      a.stack->Poll();
      sched.Yield();
    };
    for (int i = 0; i < 100000; ++i) {
      bool all = true;
      for (auto& s : socks) {
        all = all && s->connected();
      }
      if (all) {
        break;
      }
      pump();
    }
    std::vector<std::uint8_t> chunk(2048);
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      chunk[i] = static_cast<std::uint8_t>(i * 31);
    }
    std::uint8_t buf[8192];
    std::vector<std::size_t> sent(conns, 0), echoed(conns, 0);
    const std::uint64_t heap_before = b.alloc->stats().bytes_in_use;
    bench::RealTimer timer;
    std::size_t done_conns = 0;
    for (int rounds = 0; rounds < 4'000'000 && done_conns < conns; ++rounds) {
      done_conns = 0;
      for (std::size_t i = 0; i < conns; ++i) {
        if (socks[i]->connected() && sent[i] < bytes_per_conn) {
          std::size_t want = bytes_per_conn - sent[i];
          std::int64_t n = socks[i]->Send(
              std::span(chunk.data(), want < chunk.size() ? want : chunk.size()));
          if (n > 0) {
            sent[i] += static_cast<std::size_t>(n);
          }
        }
        std::int64_t e = socks[i]->Recv(buf);
        if (e > 0) {
          echoed[i] += static_cast<std::size_t>(e);
        }
        if (echoed[i] >= bytes_per_conn) {
          ++done_conns;
        }
      }
      pump();
    }
    clock.Charge(
        clock.model().NsToCycles(timer.ElapsedNs() * bench::kSimNormalization));
    done_cycles = clock.cycles();
    res.heap_delta_bytes =
        static_cast<std::int64_t>(b.alloc->stats().bytes_in_use) -
        static_cast<std::int64_t>(heap_before);
    std::size_t total = 0;
    for (std::size_t e : echoed) {
      total += e;
    }
    double seconds = clock.model().CyclesToNs(done_cycles) / 1e9;
    res.mbit_per_s =
        seconds > 0 ? 2.0 * static_cast<double>(total) * 8.0 / seconds / 1e6 : 0.0;
    // Idle window: the server must be parked in EpollWait, not spinning.
    // Settle first — the last busy turn pays the arm-then-check drains on
    // its way INTO the sleep (entry cost, not idle spinning).
    for (int i = 0; i < 4; ++i) {
      sched.Yield();
    }
    const std::uint64_t polls_before = b.stack->wait_stats().poll_iterations;
    for (int i = 0; i < 200; ++i) {
      clock.Charge(10'000);
      sched.Yield();
    }
    res.idle_poll_growth = b.stack->wait_stats().poll_iterations - polls_before;
    done = true;
    // Final pumps keep ACKing the last replies so the server retires with no
    // data in flight (a dead peer would otherwise wake its RTO forever).
    for (int i = 0; i < 50; ++i) {
      pump();
    }
  });
  sched.Run();
  res.waits = b.stack->wait_stats();
  return res;
}

// The --loss rows, emitted as BENCH_tab5_tcp_loss.json for the CI trendline.
void WriteLossJson(const EchoResult& lossy, const EchoResult& lossless,
                   double drop_rate, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "tab5_tcp_echo: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"tab5_tcp_loss\",\n");
  std::fprintf(f,
               "  \"workload\": \"1 MB TCP echo at %.0f%% frame loss vs lossless\",\n",
               drop_rate * 100.0);
  std::fprintf(f, "  \"rows\": [\n");
  const EchoResult* rows[] = {&lossy, &lossless};
  const char* names[] = {"lossy", "lossless"};
  for (int i = 0; i < 2; ++i) {
    const EchoResult& r = *rows[i];
    std::fprintf(
        f,
        "    {\"wire\": \"%s\", \"modeled_ms\": %.3f, \"mbit_s\": %.1f, "
        "\"retransmit_events\": %llu, "
        "\"fast_retransmits\": %llu, \"rto_retransmits\": %llu, "
        "\"sack_spared_segments\": %llu, \"fwd_data_frames\": %llu, "
        "\"fwd_pure_acks\": %llu, \"rev_data_frames\": %llu, "
        "\"rev_pure_acks\": %llu, \"tx_allocs\": %llu, \"tlp_probes\": %llu, "
        "\"rexmit_copy_allocs\": %llu}%s\n",
        names[i], r.modeled_ns / 1e6, r.mbit_per_s,
        static_cast<unsigned long long>(r.retransmissions),
        static_cast<unsigned long long>(r.fast_retransmits),
        static_cast<unsigned long long>(r.rto_retransmits),
        static_cast<unsigned long long>(r.sack_spared_segments),
        static_cast<unsigned long long>(r.fwd_data_frames),
        static_cast<unsigned long long>(r.fwd_pure_acks),
        static_cast<unsigned long long>(r.rev_data_frames),
        static_cast<unsigned long long>(r.rev_pure_acks),
        static_cast<unsigned long long>(r.tx_allocs),
        static_cast<unsigned long long>(r.tlp_probes),
        static_cast<unsigned long long>(r.rexmit_copy_allocs), i == 0 ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

void PrintLossRow(const char* name, const EchoResult& r) {
  std::printf("%-10s %10.1f %10llu %10llu %10llu %10llu %10llu %10llu\n", name,
              r.mbit_per_s, static_cast<unsigned long long>(r.retransmissions),
              static_cast<unsigned long long>(r.fwd_data_frames),
              static_cast<unsigned long long>(r.fwd_pure_acks),
              static_cast<unsigned long long>(r.rev_data_frames),
              static_cast<unsigned long long>(r.rev_pure_acks),
              static_cast<unsigned long long>(r.tx_allocs));
}

// --loss: what loss costs. A 1 MB echo stream at 1% frame loss, paced by a
// 32 KiB application window (request/response style — the client keeps at
// most 32 KiB outstanding before it sees the echo), against the same stream
// on a lossless wire. The comparison uses modeled time only (the virtual
// clock before the host-time share is added), so it is deterministic.
// Gated: the lossy run keeps >= 95% of the lossless goodput; every loss is
// repaired by fast retransmit (at least one, and no RTO stall); every
// retransmission re-bursts a retained buffer (rexmit_copy_allocs == 0); and
// both runs deliver the whole stream.
int RunLossLeg() {
  bench::PrintHeader(
      "Tab 5 (--loss): TCP echo at 1% loss vs lossless, 32K app window");
  constexpr std::size_t kLossStream = 1 << 20;
  constexpr std::size_t kAppWindow = 32 << 10;
  constexpr double kDrop = 0.01;
  constexpr double kMinGoodputRatio = 0.95;
  EchoResult lossy =
      RunEcho(kLossStream, kDrop, /*model_deque_copy=*/false, kAppWindow);
  EchoResult lossless =
      RunEcho(kLossStream, 0.0, /*model_deque_copy=*/false, kAppWindow);
  std::printf("%-10s %10s %10s %10s %10s %10s %10s %10s\n", "wire", "Mbit/s",
              "rexmits", "fwd data", "fwd acks", "rev data", "rev acks",
              "tx allocs");
  PrintLossRow("lossy", lossy);
  PrintLossRow("lossless", lossless);
  std::printf("lossy recovery: %llu fast + %llu rto, %llu tlp probes, "
              "%llu sacked segments spared on re-burst\n",
              static_cast<unsigned long long>(lossy.fast_retransmits),
              static_cast<unsigned long long>(lossy.rto_retransmits),
              static_cast<unsigned long long>(lossy.tlp_probes),
              static_cast<unsigned long long>(lossy.sack_spared_segments));
  const double ratio =
      lossy.modeled_ns > 0 ? lossless.modeled_ns / lossy.modeled_ns : 0.0;
  std::printf("modeled time: lossy %.3f ms, lossless %.3f ms; goodput "
              "lossy/lossless %.4f (SACK re-bursts only the holes and cwnd "
              "keeps the wire full between them. Mbit/s includes host time "
              "and is not gated)\n\n",
              lossy.modeled_ns / 1e6, lossless.modeled_ns / 1e6, ratio);
  WriteLossJson(lossy, lossless, kDrop, "BENCH_tab5_tcp_loss.json");

  bool ok = true;
  if (lossy.bytes < kLossStream || lossless.bytes < kLossStream) {
    std::printf("LOSS LEG FAILED: stream incomplete (lossy %llu, lossless %llu "
                "of %zu bytes)\n",
                static_cast<unsigned long long>(lossy.bytes),
                static_cast<unsigned long long>(lossless.bytes), kLossStream);
    ok = false;
  }
  if (ratio < kMinGoodputRatio) {
    std::printf("LOSS LEG FAILED: lossy/lossless goodput %.4f < %.2f\n", ratio,
                kMinGoodputRatio);
    ok = false;
  }
  if (lossy.rto_retransmits != 0) {
    std::printf("LOSS LEG FAILED: %llu RTO retransmissions (every loss must be "
                "repaired without a timeout stall)\n",
                static_cast<unsigned long long>(lossy.rto_retransmits));
    ok = false;
  }
  if (lossy.fast_retransmits == 0) {
    std::printf("LOSS LEG FAILED: no fast retransmit exercised at %.0f%% drops\n",
                kDrop * 100.0);
    ok = false;
  }
  if (lossy.rexmit_copy_allocs != 0) {
    std::printf("LOSS LEG FAILED: %llu retransmissions fell off the retained "
                "buffers (copy-fallback allocations; recovery must be "
                "zero-alloc)\n",
                static_cast<unsigned long long>(lossy.rexmit_copy_allocs));
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t queues = 0;
  bool wait_mode = false;
  bool eventloop_mode = false;
  bool loss_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--queues") == 0 && i + 1 < argc) {
      int n = std::atoi(argv[i + 1]);
      // Clamp to the device's 4 queue pairs so the row label matches the
      // datapath that ran (and the per-queue share array stays in bounds).
      queues = static_cast<std::uint16_t>(n < 0 ? 0 : (n > 4 ? 4 : n));
    } else if (std::strcmp(argv[i], "--wait") == 0) {
      wait_mode = true;
    } else if (std::strcmp(argv[i], "--eventloop") == 0) {
      eventloop_mode = true;
    } else if (std::strcmp(argv[i], "--loss") == 0) {
      loss_mode = true;
    }
  }
  if (loss_mode) {
    return RunLossLeg();  // standalone gated leg (CI runs it under sanitizers)
  }
  if (eventloop_mode) {
    bench::PrintHeader(
        "Tab 5 (--eventloop): 64 concurrent echo connections, one epoll thread");
    EventLoopEchoResult r =
        RunEchoEventLoop(/*conns=*/64, /*bytes_per_conn=*/64 << 10,
                         queues == 0 ? 1 : queues);
    std::printf("%-12s %12s %12s %12s %12s %12s %12s\n", "conns", "Mbit/s",
                "blocked", "frame wakes", "poll iters", "idle spins", "heap delta");
    std::printf("%-12zu %12.1f %12llu %12llu %12llu %12llu %12lld\n", r.conns,
                r.mbit_per_s, static_cast<unsigned long long>(r.waits.blocked_waits),
                static_cast<unsigned long long>(r.waits.frame_wakeups),
                static_cast<unsigned long long>(r.waits.poll_iterations),
                static_cast<unsigned long long>(r.idle_poll_growth),
                static_cast<long long>(r.heap_delta_bytes));
    std::printf("(shape criteria: all 64 connections served by ONE thread that "
                "blocks in EpollWait; idle spins == 0 — the loop sleeps, not "
                "polls, when the wire is quiet; heap delta == 0 — the readiness "
                "path allocates nothing in steady state)\n\n");
    if (r.idle_poll_growth != 0 || r.heap_delta_bytes != 0) {
      std::printf("EVENTLOOP LEG FAILED: idle spins=%llu heap delta=%lld\n",
                  static_cast<unsigned long long>(r.idle_poll_growth),
                  static_cast<long long>(r.heap_delta_bytes));
      return 1;
    }
    return 0;  // standalone leg (CI runs it under sanitizers)
  }
  if (wait_mode) {
    bench::PrintHeader("Tab 5 (--wait): TCP echo, spin server vs blocking PollWait");
    constexpr std::size_t kWaitStream = 2 << 20;  // 2 MB each way
    EchoResult spin = RunEcho(kWaitStream, 0.0, /*model_deque_copy=*/false);
    WaitEchoResult wait = RunEchoWait(kWaitStream);
    std::printf("%-14s %14s %14s %12s %12s %12s\n", "server loop", "Mbit/s",
                "retransmits", "idle polls", "frame wakes", "timer wakes");
    std::printf("%-14s %14.1f %14llu %12s %12s %12s\n", "spin", spin.mbit_per_s,
                static_cast<unsigned long long>(spin.retransmissions), "-", "-", "-");
    std::printf("%-14s %14.1f %14llu %12llu %12llu %12llu\n", "blocking",
                wait.echo.mbit_per_s,
                static_cast<unsigned long long>(wait.echo.retransmissions),
                static_cast<unsigned long long>(wait.waits.poll_iterations),
                static_cast<unsigned long long>(wait.waits.frame_wakeups),
                static_cast<unsigned long long>(wait.waits.timer_wakeups));
    std::printf("(shape criteria: blocking within a few %% of spin — one frame "
                "wake per client round (storm avoidance) amortizes the context "
                "switch across a whole window of segments, and RTO deadlines "
                "ride the wake timeout instead of a polled timer check. Spin "
                "keeps a small edge under saturation, which is why polling "
                "stays the §3.1 default; bench_fig_idle_wakeup shows the bursty "
                "duty cycle where blocking also wins >=10x on idle cycles)\n\n");
  }
  if (queues > 1) {
    bench::PrintHeader("Tab 5 (--queues): TCP echo, RSS-sharded connections");
    // 16 connections: the clients draw sequential ephemeral ports, and the
    // Toeplitz hash maps blocks of them onto queue subsets — 16 is enough to
    // cover (and balance) up to 4 queues; the per-queue share column proves it.
    constexpr std::size_t kConns = 16;
    constexpr std::size_t kPerConn = 256 << 10;
    std::printf("%-10s %14s  per-queue segment share\n", "queues", "Mbit/s");
    for (std::uint16_t q : {static_cast<std::uint16_t>(1), queues}) {
      ShardedResult r = RunEchoSharded(kPerConn, q, kConns);
      std::uint64_t total_segs = 0;
      for (std::uint64_t s : r.per_queue_segments) {
        total_segs += s;
      }
      std::printf("%-10u %14.1f  ", static_cast<unsigned>(q), r.mbit_per_s);
      for (std::uint16_t i = 0; i < q; ++i) {
        std::printf("q%u=%2.0f%% ", static_cast<unsigned>(i),
                    total_segs > 0 ? 100.0 * static_cast<double>(r.per_queue_segments[i]) /
                                         static_cast<double>(total_segs)
                                   : 0.0);
      }
      std::printf("\n");
    }
    std::printf("(flows pin to their RSS queue; per-queue loops touch disjoint "
                "rings and pools)\n\n");
  }
  bench::PrintHeader("Tab 5: TCP echo throughput — deque-copy vs retained netbufs");
  constexpr std::size_t kStream = 4 << 20;  // 4 MB each way
  std::printf("%-24s %14s %14s %14s\n", "tx path", "Mbit/s", "retransmits",
              "tx allocs");
  EchoResult copy_path = RunEcho(kStream, 0.0, /*model_deque_copy=*/true);
  EchoResult retained = RunEcho(kStream, 0.0, /*model_deque_copy=*/false);
  std::printf("%-24s %14.1f %14llu %14llu\n", "deque-copy (modeled)",
              copy_path.mbit_per_s,
              static_cast<unsigned long long>(copy_path.retransmissions),
              static_cast<unsigned long long>(copy_path.tx_allocs));
  std::printf("%-24s %14.1f %14llu %14llu\n", "retained netbufs",
              retained.mbit_per_s,
              static_cast<unsigned long long>(retained.retransmissions),
              static_cast<unsigned long long>(retained.tx_allocs));
  double speedup = copy_path.mbit_per_s > 0
                       ? retained.mbit_per_s / copy_path.mbit_per_s
                       : 0.0;
  std::printf("speedup: %.2fx (app bytes are written once, into the buffer "
              "that reaches the device)\n\n", speedup);

  std::printf("---- lossy wire (2%% drops): retransmission cost ----\n");
  std::printf("%-10s %10s %10s %10s %10s %10s %10s %10s\n", "tx path", "Mbit/s",
              "rexmits", "fwd data", "fwd acks", "rev data", "rev acks",
              "tx allocs");
  EchoResult lossy = RunEcho(1 << 20, 0.02, /*model_deque_copy=*/false);
  PrintLossRow("retained", lossy);
  std::printf("(shape criteria: retained >= deque-copy; RTO/fast-retransmit "
              "re-burst the same buffers, so tx allocs track fresh segments, "
              "not retransmissions; pure ACKs are reported apart from data "
              "frames so the delayed-ACK coalescing stays visible)\n");
  return 0;
}
