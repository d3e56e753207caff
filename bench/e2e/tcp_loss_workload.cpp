// bench/e2e/tcp_loss_workload.cpp - the tcp-bulk-loss workload: the one
// place loss recovery works (fast retransmit, the SACK scoreboard, TLP, RTO).
//
// A client host and the server unikernel sit on two separate wires joined by
// a bench-owned relay. One connection echoes 64 KiB messages with 4 in
// flight, driven straight on TcpSocket on both ends (no posix layer). Every
// echoed byte is compared with what was sent.
//
// The relay drops data segments in both directions by a scripted loss
// schedule keyed to stream bytes, not to time (LossSchedule below): bursts of
// 3 segments, two bursts in one window, and lost repairs, about 1.2% of the
// segments in all, at fixed spacing. Every measured phase holds whole cycles
// of the schedule, so every run meets the same loss events and the tail
// latencies measure the recovery paths. A random (Gilbert-Elliott) pattern
// makes the tail a few dozen rare coincidences, and p99.9 moves by 5-9% with
// how many of them a seed draws.
//
// Each turn charges the same fixed poll cost FleetTestBed::PumpAll does, so
// modeled time keeps moving while a loss stalls the flow and the TLP and RTO
// timers can expire.
#include <algorithm>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/e2e/harness.h"
#include "bench/e2e/traced_devices.h"
#include "env/fleet.h"
#include "env/profile.h"
#include "env/testbed.h"
#include "ukarch/random.h"
#include "ukboot/instance.h"
#include "uknet/stack.h"
#include "uknet/wire_format.h"
#include "uknetdev/virtio_net.h"
#include "ukplat/wire.h"

namespace e2e {

namespace {

constexpr uknet::Ip4Addr kServerIp = 0x0a000001;  // 10.0.0.1
constexpr uknet::Ip4Addr kClientIp = 0x0a000002;  // 10.0.0.2
constexpr std::uint16_t kPort = 7;
constexpr std::size_t kMessageBytes = 64 * 1024;
constexpr std::size_t kInFlight = 4;
constexpr std::size_t kBufCap = kMessageBytes * kInFlight;
constexpr std::size_t kPoolBytes = 1 << 20;
constexpr std::uint64_t kWarmupOps = 200;
// Retransmission timeout on both ends (5.6 ms): well above the queueing
// delay of four messages in flight, so it fires only on a real stall, as in
// bench_tab5_tcp_echo's loss leg. The seed sets it within +-kRtoJitter of
// this, so seeds differ in exact timer expiries (see Scenario).
constexpr std::uint64_t kRtoCycles = 20'000'000;
constexpr double kRtoJitter = 0.002;
constexpr std::uint64_t kMaxDrainTurns = 2'000'000;

// Loss schedule. Every kEventSpacing-th message of a direction carries one
// loss event, and the other direction's events sit halfway between. The
// event kinds follow a fixed cycle of kCycleEvents events:
//   0                  a segment and its fast retransmit: the tail-loss probe
//                      repairs it;
//   kCycleEvents / 4   a segment, its fast retransmit and the probe: the RTO
//                      repairs it, re-bursting only the unSACKed segments;
//   other odd          two bursts of 3 segments 10 segments apart: two holes
//                      in one window, the SACK scoreboard's case;
//   other even         one burst of 3 segments: fast retransmit.
// That drops about 1.2% of the data segments, in bursts of 3.
//
// Every lost repair of one kind delays the same few messages by the same
// amounts, so the top of the latency distribution is a staircase of
// plateaus, each as wide as the number of such repairs in one direction: 24
// in a measured phase of 24 cycles (34,752 messages). The cycle length puts
// the p99 and p99.9 ranks (347.5 and 34.75) mid-plateau, at 14.5 and 1.45
// plateau widths; at a plateau edge, one message more or less would move the
// quantile by up to 3%.
constexpr std::size_t kSegBytes = uknet::TcpSocket::kMss;
constexpr std::uint64_t kEventSpacing = 8;  // messages
constexpr std::uint64_t kCycleEvents = 181;
constexpr std::uint64_t kCycleMessages = kEventSpacing * kCycleEvents;
constexpr int kBurst = 3;        // segments
constexpr int kBurstGap = 10;    // segments between the two bursts of a window
constexpr int kEventSlot = 20;   // segment of the message an event centres on
// A hole further than this behind the highest byte seen can no longer be
// retransmitted (it is past the send buffer), so its state is dropped.
constexpr std::uint64_t kForgetBytes = 4 * kBufCap;

// What the seed decides. The loss events are the same for every seed; the
// seed rotates the cycle, so the measured phase starts at another point of it
// (every whole number of cycles holds the same events), and sets the exact
// retransmission timeout.
struct Scenario {
  std::uint64_t rotation = 0;
  std::uint64_t rto_cycles = kRtoCycles;
};

Scenario ScenarioFor(std::uint64_t seed) {
  ukarch::Xorshift rng(seed * 0x9e3779b97f4a7c15ull + 11);
  Scenario s;
  s.rotation = rng.NextBelow(kCycleEvents);
  const double u = static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;  // [0, 1)
  s.rto_cycles = static_cast<std::uint64_t>(static_cast<double>(kRtoCycles) *
                                            (1.0 + kRtoJitter * (2.0 * u - 1.0)));
  return s;
}

// The loss schedule of one direction of the connection. A hole is a byte
// offset of the stream: the first segment that carries it is dropped (the
// first two or three, for a lost repair), whenever it is sent. So the loss
// does not depend on timing, and a change that only moves timing meets the
// same loss.
class LossSchedule {
 public:
  // |direction| 0 is client to server, 1 the echo; event e has kind
  // (e + rotation) % kCycleEvents. The directions' lost repairs sit half a
  // cycle apart.
  LossSchedule(int direction, std::uint64_t rotation)
      : phase_(direction == 0 ? 0 : kEventSpacing / 2),
        rotation_(direction == 0 ? rotation
                                 : (rotation + kCycleEvents / 2) % kCycleEvents) {}

  // Whether the relay drops the segment |hdr| carrying |payload| bytes. SYNs
  // set the stream origin; segments without payload always pass.
  bool Drop(const uknet::TcpHeader& hdr, std::size_t payload);

 private:
  struct Hole {
    std::uint64_t pos;   // stream offset
    std::uint8_t drops;  // segments carrying it that are dropped
  };
  // The holes message |m| carries: none, 1, kBurst or 2 * kBurst.
  std::size_t HolesOf(std::uint64_t m, Hole* out) const;

  const std::uint64_t phase_;  // message m carries an event when (m + phase_) % kEventSpacing == 0
  const std::uint64_t rotation_;
  bool have_isn_ = false;
  std::uint32_t isn_ = 0;  // sequence number of stream byte 0
  std::uint64_t high_ = 0;  // end of the highest segment seen, as a stream offset
  std::map<std::uint64_t, std::uint8_t> dropped_;  // hole stream offset -> drops done
};

std::size_t LossSchedule::HolesOf(std::uint64_t m, Hole* out) const {
  if ((m + phase_) % kEventSpacing != 0) {
    return 0;
  }
  const std::uint64_t kind = ((m + phase_) / kEventSpacing + rotation_) % kCycleEvents;
  // The middle of a segment slot, so that a segment boundary a few bytes off
  // the slot grid still puts the hole in one segment.
  auto at = [m](int slot) { return m * kMessageBytes + slot * kSegBytes + kSegBytes / 2; };
  if (kind == 0 || kind == kCycleEvents / 4) {
    out[0] = {at(kEventSlot), static_cast<std::uint8_t>(kind == 0 ? 2 : 3)};
    return 1;
  }
  std::size_t n = 0;
  const int first = kind % 2 == 1 ? kEventSlot - kBurstGap / 2 : kEventSlot;
  for (int burst = 0; burst < (kind % 2 == 1 ? 2 : 1); ++burst) {
    for (int i = 0; i < kBurst; ++i) {
      out[n++] = {at(first + burst * kBurstGap + i), 1};
    }
  }
  return n;
}

bool LossSchedule::Drop(const uknet::TcpHeader& hdr, std::size_t payload) {
  if ((hdr.flags & uknet::kTcpSyn) != 0) {
    isn_ = hdr.seq + 1;
    have_isn_ = true;
    high_ = 0;
    dropped_.clear();
    return false;
  }
  if (!have_isn_ || payload == 0) {
    return false;
  }
  // Sequence numbers wrap at 4 GiB; the stream offset is unwrapped around
  // the highest byte seen, which a retransmission lies below.
  const std::uint32_t rel = hdr.seq - isn_;
  const std::uint64_t begin =
      high_ + static_cast<std::int32_t>(rel - static_cast<std::uint32_t>(high_));
  const std::uint64_t end = begin + payload;
  high_ = std::max(high_, end);
  bool drop = false;
  for (std::uint64_t m = begin / kMessageBytes; m * kMessageBytes < end; ++m) {
    Hole holes[2 * kBurst];
    const std::size_t n = HolesOf(m, holes);
    for (std::size_t i = 0; i < n; ++i) {
      if (holes[i].pos < begin || holes[i].pos >= end) {
        continue;
      }
      std::uint8_t& done = dropped_[holes[i].pos];
      if (done < holes[i].drops) {
        ++done;
        drop = true;
      }
    }
  }
  while (!dropped_.empty() && dropped_.begin()->first + kForgetBytes < high_) {
    dropped_.erase(dropped_.begin());
  }
  return drop;
}

struct Message {
  std::uint64_t issued = 0;
  std::size_t off = 0;     // slice of the pool this message carries
  std::size_t sent = 0;    // bytes handed to the socket
  std::size_t echoed = 0;  // bytes received back
  bool intact = true;
};

class TcpLossWorld final : public World {
 public:
  explicit TcpLossWorld(const Params& params);
  ~TcpLossWorld() override;

  std::string Describe() const override;
  void Setup() override;
  void Turn() override;
  void Finish(std::uint64_t ops, Report* report) override;
  ukplat::Clock& clock() override { return clock_; }

 protected:
  void SnapshotCounters() override;

 private:
  struct Counters {
    WireTotals wire;
    TracedNetDev::Counts nic;
    TcpTotals tcp;
    ukalloc::AllocStats heap;
    std::uint64_t relay_drops = 0;
    std::uint64_t kicks = 0;
    std::uint64_t tx_pool_allocs = 0;
    std::uint64_t rst_sent = 0;
    std::uint64_t payload_bytes = 0;
  };

  // Destroys what the server's inittab built, in reverse order.
  void TearDownServer();
  uknetdev::NetDev* ServerNic() {
    return traced_nic_ != nullptr ? static_cast<uknetdev::NetDev*>(traced_nic_.get())
                                  : nic_.get();
  }
  Counters ReadCounters() const;
  void PumpClient();
  void Relay(ukplat::Wire& from, int from_port, ukplat::Wire& to, int to_port,
             LossSchedule& loss);
  void Echo();

  Tracer* const tracer_;
  ukarch::Xorshift rng_;
  std::string pool_;

  ukplat::Clock clock_;
  ukplat::Wire client_wire_;  // client host (port 0) <-> relay (port 1)
  ukplat::Wire server_wire_;  // relay (port 0) <-> server unikernel (port 1)
  std::unique_ptr<env::SimHost> client_;

  std::unique_ptr<ukboot::Instance> inst_;
  std::unique_ptr<uknetdev::VirtioNet> nic_;
  std::unique_ptr<TracedNetDev> traced_nic_;
  std::unique_ptr<uknet::NetStack> stack_;
  uknet::NetIf* netif_ = nullptr;
  std::shared_ptr<uknet::TcpListener> listener_;

  std::shared_ptr<uknet::TcpSocket> client_sock_;
  std::shared_ptr<uknet::TcpSocket> server_sock_;
  std::vector<std::uint8_t> backlog_;  // echo bytes the server could not send yet
  std::size_t backlog_off_ = 0;

  bool lossy_ = false;
  const Scenario scenario_;
  LossSchedule to_server_;
  LossSchedule to_client_;
  std::uint64_t relay_drops_ = 0;
  std::deque<Message> messages_;
  std::uint64_t payload_bytes_ = 0;
  std::size_t wire_queue_peak_ = 0;
  Counters start_;
};

TcpLossWorld::TcpLossWorld(const Params& params)
    : tracer_(params.tracer),
      rng_(params.seed),
      pool_(RandomBytes(params.seed * 7919 + 7, kPoolBytes + kMessageBytes)),
      client_wire_(&clock_, ukplat::Wire::Config{.queue_depth = 4096}),
      server_wire_(&clock_, ukplat::Wire::Config{.queue_depth = 4096}),
      scenario_(ScenarioFor(params.seed)),
      to_server_(0, scenario_.rotation),
      to_client_(1, scenario_.rotation) {
  if (params.ops % kCycleMessages != 0) {
    setup_errors_.push_back("the measured phase must hold whole loss-schedule cycles");
  }
  client_ = std::make_unique<env::SimHost>(&clock_, &client_wire_, 0, kClientIp,
                                           ukalloc::Backend::kTlsf,
                                           uknetdev::VirtioBackend::kVhostUser,
                                           16ull << 20, /*queues=*/1);
  client_->stack->rto_cycles = scenario_.rto_cycles;
  inst_ = std::make_unique<ukboot::Instance>(ServerInstanceConfig("echo", 32ull << 20));
  inst_->RegisterInit(ukboot::InitStage::kBus, "virtio-net", [this](ukboot::Instance& inst) {
    uknetdev::VirtioNet::Config cfg;
    cfg.backend = env::Profile::UnikraftKvm().backend;
    cfg.wire_side = 1;
    cfg.mac = uknetdev::MacAddr{{2, 0, 0, 0, 0, 1}};
    cfg.queue_size = 256;
    nic_ = std::make_unique<uknetdev::VirtioNet>(&inst.mem(), &clock_, &server_wire_, cfg);
    if (tracer_ != nullptr) {
      traced_nic_ = std::make_unique<TracedNetDev>(nic_.get(), tracer_);
    }
    return ukarch::Status::kOk;
  });
  inst_->RegisterInit(ukboot::InitStage::kSys, "netstack", [this](ukboot::Instance& inst) {
    stack_ = std::make_unique<uknet::NetStack>(&inst.mem(), &clock_, inst.heap());
    stack_->rto_cycles = scenario_.rto_cycles;
    uknet::NetIf::Config ifcfg;
    ifcfg.ip = kServerIp;
    ifcfg.queues = 1;
    netif_ = stack_->AddInterface(ServerNic(), ifcfg);
    return netif_ != nullptr ? ukarch::Status::kOk : ukarch::Status::kNoMem;
  });
  inst_->RegisterInit(ukboot::InitStage::kLate, "echo", [this](ukboot::Instance&) {
    listener_ = stack_->TcpListen(kPort);
    if (listener_ == nullptr) {
      return ukarch::Status::kNoMem;
    }
    listener_->SetBufferCaps(kBufCap, kBufCap);
    return ukarch::Status::kOk;
  });
}

TcpLossWorld::~TcpLossWorld() {
  client_sock_.reset();
  TearDownServer();
}

void TcpLossWorld::TearDownServer() {
  server_sock_.reset();
  listener_.reset();
  netif_ = nullptr;
  stack_.reset();
  traced_nic_.reset();
  nic_.reset();
  server_wire_.ResetPort(1);
}

std::string TcpLossWorld::Describe() const {
  return "echo server unikernel (raw TcpSocket, vhost-net, mimalloc), 1 queue; "
         "client host and server on two wires joined by a relay dropping data "
         "segments both ways by a byte-keyed schedule (a loss event every 8 "
         "messages per direction: 3-segment bursts, two bursts in one window, "
         "and 2 in 181 a lost repair; ~1.2% loss); 1 connection echoing 64 KiB "
         "messages, 4 in flight, closed loop";
}

void TcpLossWorld::Setup() {
  if (!BootServer(*inst_)) {
    return;
  }
  netif_->AddArpEntry(kClientIp, client_->nic->mac());
  client_->netif->AddArpEntry(kServerIp, nic_->mac());
  client_sock_ = client_->stack->TcpConnect(kServerIp, kPort);
  if (client_sock_ == nullptr) {
    setup_errors_.push_back("client connect failed");
    return;
  }
  client_sock_->SetBufferCaps(kBufCap, kBufCap);
  // The handshake runs lossless; loss starts with the warm-up.
  if (!TurnUntil(*this, [this] { return client_sock_->connected() && server_sock_ != nullptr; },
                 100'000)) {
    setup_errors_.push_back("connection did not establish");
    return;
  }
  lossy_ = true;
  if (!TurnUntil(*this, [this] { return completed() >= kWarmupOps; }, 5'000'000)) {
    setup_errors_.push_back("warm-up did not complete");
  }
}

void TcpLossWorld::PumpClient() {
  if (client_sock_ == nullptr || !client_sock_->connected()) {
    return;
  }
  while (issuing_ && messages_.size() < kInFlight) {
    Message m;
    m.issued = clock_.cycles();
    m.off = static_cast<std::size_t>(rng_.NextBelow(kPoolBytes));
    messages_.push_back(m);
  }
  for (Message& m : messages_) {
    if (m.sent == kMessageBytes) {
      continue;
    }
    const std::int64_t n = client_sock_->Send(std::span(
        reinterpret_cast<const std::uint8_t*>(pool_.data()) + m.off + m.sent,
        kMessageBytes - m.sent));
    if (n <= 0) {
      break;
    }
    m.sent += static_cast<std::size_t>(n);
    payload_bytes_ += static_cast<std::uint64_t>(n);
    if (m.sent < kMessageBytes) {
      break;  // send buffer full; later messages must wait their turn
    }
  }
  std::uint8_t buf[16384];
  for (;;) {
    const std::int64_t n = client_sock_->Recv(buf);
    if (n <= 0) {
      break;
    }
    std::size_t pos = 0;
    const auto got = static_cast<std::size_t>(n);
    while (pos < got && !messages_.empty()) {
      Message& m = messages_.front();
      const std::size_t take = std::min(got - pos, kMessageBytes - m.echoed);
      if (std::memcmp(buf + pos, pool_.data() + m.off + m.echoed, take) != 0) {
        m.intact = false;
      }
      m.echoed += take;
      pos += take;
      if (m.echoed == kMessageBytes) {
        OpDone(m.issued, m.intact);
        messages_.pop_front();
      }
    }
  }
}

void TcpLossWorld::Relay(ukplat::Wire& from, int from_port, ukplat::Wire& to,
                         int to_port, LossSchedule& loss) {
  using namespace uknet;
  while (auto frame = from.Receive(from_port)) {
    const std::span<const std::uint8_t> f(*frame);
    if (f.size() >= kEthHdrBytes + kIp4HdrBytes && f[12] == 0x08 && f[13] == 0x00) {
      const auto ip = Ip4Header::Parse(f.subspan(kEthHdrBytes));
      if (ip.has_value() && ip->proto == kIpProtoTcp) {
        const auto segment = f.subspan(kEthHdrBytes + ip->header_len,
                                       ip->total_len - ip->header_len);
        std::size_t hdr_len = 0;
        const auto tcp = TcpHeader::Parse(segment, ip->src, ip->dst, &hdr_len,
                                          /*verify_checksum=*/false);
        // Until the warm-up the schedule only learns the stream origin from
        // the SYNs: payload-less segments always pass.
        const std::size_t payload = lossy_ ? segment.size() - hdr_len : 0;
        if (tcp.has_value() && loss.Drop(*tcp, payload)) {
          ++relay_drops_;
          continue;
        }
      }
    }
    to.Send(to_port, std::move(*frame));
  }
}

void TcpLossWorld::Echo() {
  if (server_sock_ == nullptr) {
    server_sock_ = listener_->Accept();
    if (server_sock_ == nullptr) {
      return;
    }
  }
  std::uint8_t buf[16384];
  for (;;) {
    if (backlog_off_ < backlog_.size()) {
      const std::int64_t n = server_sock_->Send(
          std::span(backlog_.data() + backlog_off_, backlog_.size() - backlog_off_));
      if (n > 0) {
        backlog_off_ += static_cast<std::size_t>(n);
      }
      if (backlog_off_ < backlog_.size()) {
        return;  // send buffer full: stop reading until the backlog drains
      }
      backlog_.clear();
      backlog_off_ = 0;
    }
    const std::int64_t r = server_sock_->Recv(buf);
    if (r <= 0) {
      return;
    }
    backlog_.assign(buf, buf + r);
  }
}

void TcpLossWorld::Turn() {
  clock_.Charge(env::FleetTestBed::kTurnCycles);
  {
    ScopedSpan span(tracer_, Layer::kClient);
    client_->stack->Poll();
    PumpClient();
  }
  {
    ScopedSpan span(tracer_, Layer::kUkplat);
    Relay(client_wire_, 1, server_wire_, 0, to_server_);
    Relay(server_wire_, 0, client_wire_, 1, to_client_);
  }
  {
    ScopedSpan span(tracer_, Layer::kUknet);
    stack_->Poll();
    Echo();
  }
  if (tracer_ != nullptr && tracer_->active()) {
    wire_queue_peak_ = std::max(
        {wire_queue_peak_, MaxPending(client_wire_), MaxPending(server_wire_)});
  }
}

TcpLossWorld::Counters TcpLossWorld::ReadCounters() const {
  Counters c;
  c.wire.Add(client_wire_);
  c.wire.Add(server_wire_);
  if (traced_nic_ != nullptr) {
    c.nic = traced_nic_->counts();
  }
  c.tcp.Add(client_sock_->tcp_stats());
  if (server_sock_ != nullptr) {
    c.tcp.Add(server_sock_->tcp_stats());
  }
  c.heap = inst_->heap()->stats();
  c.relay_drops = relay_drops_;
  c.kicks = nic_->kicks();
  c.tx_pool_allocs = netif_->tx_pool()->total_allocs();
  c.rst_sent = stack_->stats().rst_sent;
  c.payload_bytes = payload_bytes_;
  return c;
}

void TcpLossWorld::SnapshotCounters() {
  start_ = ReadCounters();
  wire_queue_peak_ = 0;
}

void TcpLossWorld::Finish(std::uint64_t ops, Report* report) {
  const Counters end = ReadCounters();
  issuing_ = false;
  if (!TurnUntil(*this, [this] { return messages_.empty(); }, kMaxDrainTurns)) {
    report->errors.push_back("outstanding messages never echoed back");
  }
  report->heap_peak_bytes = end.heap.peak_bytes;
  auto& m = report->layers;
  WireTotals wire = end.wire - start_.wire;
  wire.drops += end.relay_drops - start_.relay_drops;
  PutWireLayers(wire, wire_queue_peak_, ops, report);
  PutNetDevLayers(start_.nic, end.nic, ops, report);
  m["uknetdev.kicks_per_op"] = PerOp(static_cast<double>(end.kicks - start_.kicks), ops);
  m["uknetdev.tx_pool_allocs_per_op"] =
      PerOp(static_cast<double>(end.tx_pool_allocs - start_.tx_pool_allocs), ops);
  // Both directions carry the payload: the client's stream and its echo.
  PutTcpLayers(end.tcp - start_.tcp, 2 * (end.payload_bytes - start_.payload_bytes),
               report);
  m["uknet.tcp_conns_peak"] = static_cast<double>(stack_->tcp_conn_count());
  m["uknet.rst_sent"] = static_cast<double>(end.rst_sent - start_.rst_sent);
  PutAllocLayers(start_.heap, end.heap, ops, report);
}

}  // namespace

std::unique_ptr<World> MakeTcpBulkLossWorld(const Params& params) {
  return std::make_unique<TcpLossWorld>(params);
}

}  // namespace e2e
