// tests/net_harness.h - shared wire plumbing for network tests.
//
// Extracted from uknet_test.cpp so the TCP, UDP, posix and multi-queue suites
// stop duplicating host construction and raw-frame injection:
//
//  * Host          — guest RAM + allocator + virtio-net + NetStack on one wire
//                    side, with a configurable number of RSS queue pairs;
//  * TwoHostTest   — two Hosts on a clean wire (client/server scenarios);
//  * LossyTest     — two Hosts on a dropping wire (retransmission scenarios);
//  * RawPeer       — a hand-rolled endpoint with full control over every
//                    frame the host sees (teardown/loss regression tests);
//  * RawPeerTest   — Host + RawPeer, ARP pre-resolved, handshake helper;
//  * RawRxTest     — Host + raw L3 frame injection (parser hardening);
//  * ZeroAllocGuard— snapshots netbuf-pool churn counters and heap allocator
//                    stats so tests can assert the zero-alloc invariants
//                    (the Fig 18 regression gate).
#ifndef TESTS_NET_HARNESS_H_
#define TESTS_NET_HARNESS_H_

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "ukalloc/registry.h"
#include "uknet/stack.h"
#include "uknetdev/virtio_net.h"

namespace netharness {

using uknet::Ip4Addr;
using uknet::MakeIp;
using uknet::NetIf;
using uknet::NetStack;

inline void PutU16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}

// A simulated host: guest RAM, allocator, virtio-net on one wire side, stack.
// |queues| configures that many RSS queue pairs end to end (driver rings,
// NetIf pools, demux sharding). vhost-user by default; vhost-net counts a
// kick per TxBurst (VirtioNet::kicks), which the TX batching tests read.
struct Host {
  Host(ukplat::Clock* clock, ukplat::Wire* wire, int side, Ip4Addr ip,
       std::uint16_t queues = 1, std::uint32_t pool_bufs = 256,
       uknetdev::VirtioBackend backend = uknetdev::VirtioBackend::kVhostUser)
      : mem(32 << 20) {
    std::uint64_t heap_gpa = mem.Carve(24 << 20, 4096);
    alloc = ukalloc::CreateAllocator(ukalloc::Backend::kTlsf, mem.At(heap_gpa, 24 << 20),
                                     24 << 20);
    uknetdev::VirtioNet::Config cfg;
    cfg.backend = backend;
    cfg.wire_side = side;
    cfg.mac = uknetdev::MacAddr{{2, 0, 0, 0, 0, static_cast<std::uint8_t>(side + 1)}};
    cfg.queue_size = 128;
    nic = std::make_unique<uknetdev::VirtioNet>(&mem, clock, wire, cfg);
    stack = std::make_unique<NetStack>(&mem, clock, alloc.get());
    NetIf::Config ifcfg;
    ifcfg.ip = ip;
    ifcfg.queues = queues;
    ifcfg.tx_pool_bufs = pool_bufs;
    ifcfg.rx_pool_bufs = pool_bufs;
    netif = stack->AddInterface(nic.get(), ifcfg);
  }

  ukplat::MemRegion mem;
  std::unique_ptr<ukalloc::Allocator> alloc;
  std::unique_ptr<uknetdev::VirtioNet> nic;
  std::unique_ptr<NetStack> stack;
  NetIf* netif = nullptr;
};

// Snapshots pool alloc counters (and optionally the heap allocator) so tests
// assert the zero-alloc invariants: paths that must reuse retained buffers
// show flat pool churn; steady-state loops show a balanced heap.
class ZeroAllocGuard {
 public:
  explicit ZeroAllocGuard(std::vector<const uknetdev::NetBufPool*> pools,
                          const ukalloc::Allocator* heap = nullptr)
      : pools_(std::move(pools)), heap_(heap) {
    Rebase();
  }

  void Rebase() {
    pool_base_.clear();
    for (const uknetdev::NetBufPool* p : pools_) {
      pool_base_.push_back(p != nullptr ? p->total_allocs() : 0);
    }
    if (heap_ != nullptr) {
      heap_mallocs_base_ = heap_->stats().malloc_calls;
      heap_bytes_base_ = heap_->stats().bytes_in_use;
    }
  }

  // Pool churn since the snapshot (sum across pools, or one pool).
  std::uint64_t pool_allocs() const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < pools_.size(); ++i) {
      total += pool_allocs(i);
    }
    return total;
  }
  std::uint64_t pool_allocs(std::size_t i) const {
    return pools_[i] != nullptr ? pools_[i]->total_allocs() - pool_base_[i] : 0;
  }

  std::uint64_t heap_mallocs() const {
    return heap_ != nullptr ? heap_->stats().malloc_calls - heap_mallocs_base_ : 0;
  }
  std::int64_t heap_bytes() const {
    return heap_ != nullptr ? static_cast<std::int64_t>(heap_->stats().bytes_in_use) -
                                  static_cast<std::int64_t>(heap_bytes_base_)
                            : 0;
  }

  // The retained-buffer invariant: the watched pools saw zero Alloc calls
  // since the snapshot (retransmits, in-place replies).
  void ExpectPoolFlat(const char* what) const {
    EXPECT_EQ(pool_allocs(), 0u) << what << ": netbuf pool churned";
  }
  // The steady-state invariant: no heap growth, and at most |max_mallocs|
  // malloc calls (0 for strictly allocation-free paths; small bounds cover
  // container-chunk recycling that mallocs and frees in balance).
  void ExpectHeapSteady(const char* what, std::uint64_t max_mallocs = 0) const {
    EXPECT_EQ(heap_bytes(), 0) << what << ": heap bytes_in_use drifted";
    EXPECT_LE(heap_mallocs(), max_mallocs) << what << ": heap alloc on the hot path";
  }

 private:
  std::vector<const uknetdev::NetBufPool*> pools_;
  const ukalloc::Allocator* heap_;
  std::vector<std::uint64_t> pool_base_;
  std::uint64_t heap_mallocs_base_ = 0;
  std::uint64_t heap_bytes_base_ = 0;
};

// Two hosts on a clean wire. Derive and call the (queues, pool_bufs)
// overload for multi-queue topologies.
class TwoHostTest : public ::testing::Test {
 protected:
  TwoHostTest() : TwoHostTest(1, 256) {}
  TwoHostTest(std::uint16_t queues, std::uint32_t pool_bufs)
      : wire_(&clock_),
        a_(&clock_, &wire_, 0, MakeIp(10, 0, 0, 1), queues, pool_bufs),
        b_(&clock_, &wire_, 1, MakeIp(10, 0, 0, 2), queues, pool_bufs) {}

  // Pumps both stacks until |pred| holds.
  bool PumpUntil(const std::function<bool()>& pred, int iters = 2000) {
    for (int i = 0; i < iters; ++i) {
      if (pred()) {
        return true;
      }
      a_.stack->Poll();
      b_.stack->Poll();
    }
    return pred();
  }

  ukplat::Clock clock_;
  ukplat::Wire wire_;
  Host a_;
  Host b_;
};

// Lossy wire: TCP must retransmit and still deliver everything correctly.
class LossyTest : public ::testing::Test {
 protected:
  LossyTest() {
    ukplat::Wire::Config cfg;
    cfg.drop_rate = 0.02;  // every 50th frame vanishes
    wire_ = std::make_unique<ukplat::Wire>(&clock_, cfg);
    a_ = std::make_unique<Host>(&clock_, wire_.get(), 0, MakeIp(10, 0, 0, 1));
    b_ = std::make_unique<Host>(&clock_, wire_.get(), 1, MakeIp(10, 0, 0, 2));
    // Short virtual RTO so retransmissions trigger quickly; advance the
    // virtual clock manually between polls.
    a_->stack->rto_cycles = 10'000;
    b_->stack->rto_cycles = 10'000;
  }

  ukplat::Clock clock_;
  std::unique_ptr<ukplat::Wire> wire_;
  std::unique_ptr<Host> a_;
  std::unique_ptr<Host> b_;
};

// A hand-rolled endpoint on wire side 1: answers ARP, records every TCP
// segment the host emits, and injects arbitrary crafted segments. This is
// how the teardown/loss regression tests control exactly which ACKs the
// host's TCP state machine observes.
struct RawPeer {
  ukplat::Wire* wire = nullptr;
  uknetdev::MacAddr mac{{0xde, 0xad, 0, 0, 0, 2}};
  uknetdev::MacAddr host_mac;
  Ip4Addr ip = 0;
  Ip4Addr host_ip = 0;

  struct Seg {
    uknet::TcpHeader hdr;  // options parsed into the header fields
    std::vector<std::uint8_t> payload;
    std::vector<std::uint8_t> raw_header;  // base header + raw option bytes

    // Option-area introspection: the raw bytes after the 20-byte base
    // header, exactly as they crossed the wire (byte-exact SYN asserts).
    std::span<const std::uint8_t> OptionBytes() const {
      return std::span(raw_header).subspan(uknet::kTcpHdrBytes);
    }
    bool HasOptions() const { return raw_header.size() > uknet::kTcpHdrBytes; }
  };
  std::vector<Seg> segs;   // every TCP segment seen, in arrival order
  std::uint64_t rsts = 0;  // RSTs among them

  void Poll() {
    using namespace uknet;
    while (auto f = wire->Receive(1)) {
      std::span<const std::uint8_t> frame(*f);
      if (frame.size() < kEthHdrBytes) {
        continue;
      }
      EthHeader eth = EthHeader::Parse(frame);
      auto body = frame.subspan(kEthHdrBytes);
      if (eth.ethertype == kEthTypeArp) {
        auto arp = ArpPacket::Parse(body);
        if (arp.has_value() && arp->oper == 1 && arp->target_ip == ip) {
          ArpPacket reply;
          reply.oper = 2;
          reply.sender_mac = mac;
          reply.sender_ip = ip;
          reply.target_mac = arp->sender_mac;
          reply.target_ip = arp->sender_ip;
          std::vector<std::uint8_t> out(kEthHdrBytes + kArpBytes);
          EthHeader oeth{arp->sender_mac, mac, kEthTypeArp};
          oeth.Serialize(out.data());
          reply.Serialize(out.data() + kEthHdrBytes);
          wire->Send(1, std::move(out));
        }
        continue;
      }
      if (eth.ethertype != kEthTypeIp4) {
        continue;
      }
      auto iph = Ip4Header::Parse(body);
      if (!iph.has_value() || iph->proto != kIpProtoTcp) {
        continue;
      }
      auto seg = body.subspan(iph->header_len, iph->total_len - iph->header_len);
      std::size_t hlen = 0;
      auto tcp = TcpHeader::Parse(seg, iph->src, iph->dst, &hlen);
      if (!tcp.has_value()) {
        continue;
      }
      if ((tcp->flags & kTcpRst) != 0) {
        ++rsts;
      }
      segs.push_back(Seg{*tcp,
                         {seg.begin() + static_cast<std::ptrdiff_t>(hlen),
                          seg.end()},
                         {seg.begin(),
                          seg.begin() + static_cast<std::ptrdiff_t>(hlen)}});
    }
  }

  // Core injector: builds the frame around a fully-specified TcpHeader, so
  // callers control every option byte (the frame is sized to HeaderBytes()).
  void SendTcpHeader(const uknet::TcpHeader& tcp,
                     std::span<const std::uint8_t> payload = {}) {
    using namespace uknet;
    const std::size_t tcp_bytes = tcp.HeaderBytes();
    std::vector<std::uint8_t> frame(kEthHdrBytes + kIp4HdrBytes + tcp_bytes +
                                    payload.size());
    EthHeader eth{host_mac, mac, kEthTypeIp4};
    eth.Serialize(frame.data());
    Ip4Header iph;
    iph.total_len = static_cast<std::uint16_t>(frame.size() - kEthHdrBytes);
    iph.proto = kIpProtoTcp;
    iph.src = ip;
    iph.dst = host_ip;
    iph.Serialize(frame.data() + kEthHdrBytes);
    std::uint8_t* body = frame.data() + kEthHdrBytes + kIp4HdrBytes + tcp_bytes;
    if (!payload.empty()) {
      std::memcpy(body, payload.data(), payload.size());
    }
    tcp.Serialize(frame.data() + kEthHdrBytes + kIp4HdrBytes, ip, host_ip,
                  std::span<const std::uint8_t>(body, payload.size()));
    wire->Send(1, std::move(frame));
  }

  void SendTcp(std::uint16_t src_port, std::uint16_t dst_port, std::uint8_t flags,
               std::uint32_t seq, std::uint32_t ack, std::uint16_t window,
               std::span<const std::uint8_t> payload = {}) {
    uknet::TcpHeader tcp;
    tcp.src_port = src_port;
    tcp.dst_port = dst_port;
    tcp.seq = seq;
    tcp.ack = ack;
    tcp.flags = flags;
    tcp.window = window;
    SendTcpHeader(tcp, payload);
  }

  // Injects a segment carrying handshake options (0 mss / -1 wscale / false
  // sack_permitted = omit that option). Tests drive SYN negotiation with
  // exact option bytes through this.
  void SendTcpWithOptions(std::uint16_t src_port, std::uint16_t dst_port,
                          std::uint8_t flags, std::uint32_t seq,
                          std::uint32_t ack, std::uint16_t window,
                          std::uint16_t mss, std::int8_t wscale,
                          bool sack_permitted,
                          std::span<const std::uint8_t> payload = {}) {
    uknet::TcpHeader tcp;
    tcp.src_port = src_port;
    tcp.dst_port = dst_port;
    tcp.seq = seq;
    tcp.ack = ack;
    tcp.flags = flags;
    tcp.window = window;
    tcp.mss = mss;
    tcp.wscale = wscale;
    tcp.sack_permitted = sack_permitted;
    SendTcpHeader(tcp, payload);
  }

  // Injects an ACK carrying SACK blocks (the scripted receiver side of the
  // sender-scoreboard tests).
  void SendTcpSack(std::uint16_t src_port, std::uint16_t dst_port,
                   std::uint32_t seq, std::uint32_t ack, std::uint16_t window,
                   std::span<const uknet::TcpSackBlock> blocks) {
    uknet::TcpHeader tcp;
    tcp.src_port = src_port;
    tcp.dst_port = dst_port;
    tcp.seq = seq;
    tcp.ack = ack;
    tcp.flags = uknet::kTcpAck;
    tcp.window = window;
    for (const uknet::TcpSackBlock& b : blocks) {
      if (tcp.sack_count >= tcp.sacks.size()) {
        break;
      }
      tcp.sacks[tcp.sack_count++] = b;
    }
    SendTcpHeader(tcp);
  }
};

// Host + RawPeer with ARP pre-resolved and a client-handshake helper.
class RawPeerTest : public ::testing::Test {
 protected:
  RawPeerTest() : wire_(&clock_), host_(&clock_, &wire_, 0, MakeIp(10, 0, 0, 1)) {
    peer_.wire = &wire_;
    peer_.host_mac = host_.nic->mac();
    peer_.ip = MakeIp(10, 0, 0, 2);
    peer_.host_ip = MakeIp(10, 0, 0, 1);
    host_.netif->AddArpEntry(peer_.ip, peer_.mac);
  }

  // One round of host poll + peer drain.
  void Pump(int rounds = 4) {
    for (int i = 0; i < rounds; ++i) {
      host_.stack->Poll();
      peer_.Poll();
    }
  }

  // Drives the client-side handshake against the raw peer and returns the
  // host's ISS (learned from its SYN). The peer uses seq 1000.
  std::uint32_t Handshake(const std::shared_ptr<uknet::TcpSocket>& client,
                          std::uint16_t peer_port) {
    Pump();
    EXPECT_FALSE(peer_.segs.empty());
    EXPECT_EQ(peer_.segs.back().hdr.flags, uknet::kTcpSyn);
    std::uint32_t iss = peer_.segs.back().hdr.seq;
    peer_.SendTcp(peer_port, client->local_port(), uknet::kTcpSyn | uknet::kTcpAck,
                  1000, iss + 1, 65535);
    Pump();
    EXPECT_TRUE(client->connected());
    return iss;
  }

  ukplat::Clock clock_;
  ukplat::Wire wire_;
  Host host_;
  RawPeer peer_;
};

// Host + raw L3 injection: parser hardening through the interface.
class RawRxTest : public ::testing::Test {
 protected:
  RawRxTest() : wire_(&clock_), host_(&clock_, &wire_, 0, MakeIp(10, 0, 0, 1)) {}

  // Wraps |l3| (starting at the IP header) into an Ethernet frame for the host.
  void InjectIp(std::span<const std::uint8_t> l3) {
    using namespace uknet;
    std::vector<std::uint8_t> frame(kEthHdrBytes + l3.size());
    EthHeader eth{host_.nic->mac(), uknetdev::MacAddr{{0xde, 0xad, 0, 0, 0, 2}},
                  kEthTypeIp4};
    eth.Serialize(frame.data());
    std::memcpy(frame.data() + kEthHdrBytes, l3.data(), l3.size());
    wire_.Send(1, std::move(frame));
  }

  ukplat::Clock clock_;
  ukplat::Wire wire_;
  Host host_;
};

}  // namespace netharness

#endif  // TESTS_NET_HARNESS_H_
