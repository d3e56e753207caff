// bench/e2e/kv_workload.cpp - the kv-udp-sharded workload: Table 4's
// specialised path.
//
// KvServer in kUkNetdev mode owns a vhost-user virtio NIC with 4 RSS queue
// pairs and pumps one shard per queue: no uknet, no posix, no event loop. The
// generator injects raw UDP frames straight onto the wire from 4 groups of 32
// slots, one group per queue. Every slot has its own source port, picked
// through FlowHash4 so the device steers it to its group's queue; the reply's
// destination port names the slot it answers. The load runs in rounds: every
// group sends its 32 requests as one burst, and the next round starts once
// all 128 replies are back (closed loop, window 32 per queue). Rounds keep
// the groups in phase: groups that each restart on their own replies settle
// into seed-dependent phase relations, which move p50 by about 1% between
// seeds. The mix: 80% GET of a key of the group's own shard,
// 10% SET of such a key, 10% 4-key multi-get over the whole keyspace, which
// crosses shards over the SPSC ring mesh.
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "apps/kvstore.h"
#include "bench/common.h"
#include "bench/e2e/harness.h"
#include "bench/e2e/traced_devices.h"
#include "ukarch/hash.h"
#include "ukarch/random.h"
#include "ukboot/instance.h"
#include "uknet/wire_format.h"
#include "uknetdev/virtio_net.h"
#include "ukplat/wire.h"

namespace e2e {

namespace {

constexpr uknet::Ip4Addr kServerIp = 0x0a000001;  // 10.0.0.1
constexpr uknet::Ip4Addr kClientIp = 0x0a000002;  // 10.0.0.2
constexpr std::uint16_t kPort = 7777;
constexpr std::uint16_t kQueues = 4;
constexpr std::size_t kSlots = 32;
constexpr std::size_t kMultiKeys = 4;
constexpr std::uint16_t kKeys = 16384;
constexpr std::uint32_t kMinValue = 8;
// Multi-get replies carry at most KvServer::kMaxInlineValue bytes per key.
constexpr std::uint32_t kMaxValue = apps::KvServer::kMaxInlineValue;
constexpr std::size_t kValuePoolBytes = 1 << 16;
constexpr std::uint64_t kWarmupOps = 50'000;
constexpr std::uint64_t kMaxDrainTurns = 1'000'000;
constexpr int kClientWirePort = 1;

struct Value {
  std::uint32_t off = 0;
  std::uint32_t len = 0;
};

struct Slot {
  std::uint16_t port = 0;
  bool busy = false;
  std::uint64_t issued = 0;
  char op = 'G';
  std::array<std::uint16_t, kMultiKeys> keys{};
};

struct Group {
  std::array<Slot, kSlots> slots{};
  std::size_t outstanding = 0;
  std::size_t preload_next = 0;  // index into the shard's key list
};

class KvWorld final : public World {
 public:
  explicit KvWorld(const Params& params);
  ~KvWorld() override;

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
    ukalloc::AllocStats heap;
    apps::KvServer::Stats kv;
    std::array<std::uint64_t, kQueues> queue_requests{};
    std::uint64_t kicks = 0;
    std::uint64_t tx_pool_allocs = 0;
  };

  // Destroys what the server's inittab built, in reverse order.
  void TearDownServer();
  uknetdev::NetDev* ServerNic() {
    return traced_nic_ != nullptr ? static_cast<uknetdev::NetDev*>(traced_nic_.get())
                                  : nic_.get();
  }
  std::string_view ValueOf(std::uint16_t key) const {
    const Value& v = model_[key];
    return std::string_view(pool_).substr(v.off, v.len);
  }
  Counters ReadCounters() const;
  bool Idle() const;
  bool Preloading() const;
  void SendBurst(std::uint16_t q);
  void Issue(std::uint16_t q, Slot& s);
  void OnReply(std::span<const std::uint8_t> frame);
  bool Check(const Slot& s, std::span<const std::uint8_t> reply) const;
  std::uint16_t PickShardKey(std::uint16_t shard, bool for_write);

  Tracer* const tracer_;
  ukarch::Xorshift rng_;
  std::string pool_;
  std::vector<Value> model_;
  std::array<std::vector<std::uint16_t>, kQueues> shard_keys_;
  std::vector<std::uint8_t> writing_;
  std::vector<std::uint16_t> reading_;
  std::vector<std::int16_t> port_slot_;  // UDP source port -> group*kSlots+slot
  std::array<Group, kQueues> groups_;
  std::vector<std::uint8_t> payload_;

  ukplat::Clock clock_;
  ukplat::Wire wire_;
  std::unique_ptr<ukboot::Instance> inst_;
  std::unique_ptr<uknetdev::VirtioNet> nic_;
  std::unique_ptr<TracedNetDev> traced_nic_;
  std::unique_ptr<apps::KvServer> server_;

  std::size_t wire_queue_peak_ = 0;
  Counters start_;
};

KvWorld::KvWorld(const Params& params)
    : tracer_(params.tracer),
      rng_(params.seed),
      pool_(RandomBytes(params.seed * 7919 + 3, kValuePoolBytes)),
      model_(kKeys),
      writing_(kKeys, 0),
      reading_(kKeys, 0),
      port_slot_(65536, -1),
      wire_(&clock_) {
  for (std::uint16_t k = 0; k < kKeys; ++k) {
    Value& v = model_[k];
    v.len = static_cast<std::uint32_t>(rng_.NextInRange(kMinValue, kMaxValue));
    v.off = static_cast<std::uint32_t>(rng_.NextBelow(kValuePoolBytes - v.len));
    shard_keys_[apps::KvServer::ShardForKey(k, kQueues)].push_back(k);
  }
  // Source ports: walk up from a seeded start and give each group the first
  // kSlots ports whose flow hash lands on its queue.
  std::uint32_t port = 20000 + static_cast<std::uint32_t>(rng_.NextBelow(20000));
  std::array<std::size_t, kQueues> filled{};
  std::size_t total = 0;
  while (total < kQueues * kSlots) {
    const auto p = static_cast<std::uint16_t>(port++);
    const auto q = static_cast<std::uint16_t>(
        ukarch::FlowHash4(kClientIp, p, kServerIp, kPort) % kQueues);
    if (filled[q] < kSlots) {
      groups_[q].slots[filled[q]].port = p;
      port_slot_[p] = static_cast<std::int16_t>(q * kSlots + filled[q]);
      ++filled[q];
      ++total;
    }
  }

  inst_ = std::make_unique<ukboot::Instance>(ServerInstanceConfig("kvstore", 32ull << 20));
  inst_->RegisterInit(ukboot::InitStage::kBus, "virtio-net", [this](ukboot::Instance& inst) {
    uknetdev::VirtioNet::Config cfg;
    cfg.backend = uknetdev::VirtioBackend::kVhostUser;
    cfg.wire_side = 0;
    cfg.mac = uknetdev::MacAddr{{2, 0, 0, 0, 0, 1}};
    cfg.queue_size = 256;
    cfg.max_queue_pairs = kQueues;
    nic_ = std::make_unique<uknetdev::VirtioNet>(&inst.mem(), &clock_, &wire_, cfg);
    if (tracer_ != nullptr) {
      traced_nic_ = std::make_unique<TracedNetDev>(nic_.get(), tracer_);
    }
    return ukarch::Status::kOk;
  });
  inst_->RegisterInit(ukboot::InitStage::kLate, "kvstore", [this](ukboot::Instance& inst) {
    server_ = std::make_unique<apps::KvServer>(ServerNic(), &inst.mem(), inst.heap(),
                                               kServerIp, kPort,
                                               apps::KvMode::kUkNetdev, kQueues);
    return server_->Start() && server_->queue_count() == kQueues
               ? ukarch::Status::kOk
               : ukarch::Status::kNoMem;
  });
}

KvWorld::~KvWorld() { TearDownServer(); }

void KvWorld::TearDownServer() {
  server_.reset();
  traced_nic_.reset();
  nic_.reset();
  wire_.ResetPort(0);
}

std::string KvWorld::Describe() const {
  return "kvstore unikernel (KvServer uknetdev mode, vhost-user, mimalloc), 4 RSS "
         "queues, one shard per queue; raw-frame generator: 4 groups x 32 "
         "slots, closed loop in rounds of one 32-request burst per group; "
         "80% shard-local GET / 10% SET / "
         "10% 4-key multi-get over 16384 keys of 8-64 B";
}

bool KvWorld::Preloading() const {
  for (std::uint16_t q = 0; q < kQueues; ++q) {
    if (groups_[q].preload_next < shard_keys_[q].size()) {
      return true;
    }
  }
  return false;
}

void KvWorld::Setup() {
  if (!BootServer(*inst_)) {
    return;
  }
  // Preload every key through its home queue, then warm up on the mix.
  issuing_ = false;
  if (!TurnUntil(*this, [this] { return !Preloading() && Idle(); }, 10'000'000)) {
    setup_errors_.push_back("preload did not complete");
    return;
  }
  issuing_ = true;
  const std::uint64_t base = completed();
  if (!TurnUntil(*this, [&] { return completed() - base >= kWarmupOps; }, 10'000'000)) {
    setup_errors_.push_back("warm-up did not complete");
  }
}

std::uint16_t KvWorld::PickShardKey(std::uint16_t shard, bool for_write) {
  const std::vector<std::uint16_t>& keys = shard_keys_[shard];
  for (;;) {
    const std::uint16_t k = keys[rng_.NextBelow(keys.size())];
    if (writing_[k] == 0 && (!for_write || reading_[k] == 0)) {
      return k;
    }
  }
}

// Keys in flight are never both written and read, so the model's last write
// is the value every reply must carry.
void KvWorld::Issue(std::uint16_t q, Slot& s) {
  Group& g = groups_[q];
  payload_.clear();
  if (g.preload_next < shard_keys_[q].size()) {
    s.op = 'S';
    s.keys[0] = shard_keys_[q][g.preload_next++];
  } else {
    const std::uint64_t r = rng_.NextBelow(10);
    s.op = r < 8 ? 'G' : (r == 8 ? 'S' : 'M');
    if (s.op == 'M') {
      for (std::size_t i = 0; i < kMultiKeys; ++i) {
        std::uint16_t k = 0;
        do {
          k = static_cast<std::uint16_t>(rng_.NextBelow(kKeys));
        } while (writing_[k] != 0);
        s.keys[i] = k;
      }
    } else {
      s.keys[0] = PickShardKey(q, s.op == 'S');
    }
    if (s.op == 'S') {
      Value& v = model_[s.keys[0]];
      v.len = static_cast<std::uint32_t>(rng_.NextInRange(kMinValue, kMaxValue));
      v.off = static_cast<std::uint32_t>(rng_.NextBelow(kValuePoolBytes - v.len));
    }
  }
  const std::size_t nkeys = s.op == 'M' ? kMultiKeys : 1;
  payload_.push_back(static_cast<std::uint8_t>(s.op));
  if (s.op == 'M') {
    payload_.push_back(static_cast<std::uint8_t>(kMultiKeys));
  }
  for (std::size_t i = 0; i < nkeys; ++i) {
    payload_.push_back(static_cast<std::uint8_t>(s.keys[i]));
    payload_.push_back(static_cast<std::uint8_t>(s.keys[i] >> 8));
    if (s.op == 'S') {
      writing_[s.keys[i]] = 1;
    } else {
      ++reading_[s.keys[i]];
    }
  }
  if (s.op == 'S') {
    const std::string_view v = ValueOf(s.keys[0]);
    payload_.push_back(static_cast<std::uint8_t>(v.size()));
    payload_.push_back(static_cast<std::uint8_t>(v.size() >> 8));
    payload_.insert(payload_.end(), v.begin(), v.end());
  }
  s.busy = true;
  s.issued = clock_.cycles();
  wire_.Send(kClientWirePort, bench::BuildKvFrame(nic_->mac(), kClientIp, kServerIp,
                                                  kPort, s.port, payload_));
}

void KvWorld::SendBurst(std::uint16_t q) {
  Group& g = groups_[q];
  for (Slot& s : g.slots) {
    if (issuing_ || g.preload_next < shard_keys_[q].size()) {
      Issue(q, s);
      ++g.outstanding;
    }
  }
}

bool KvWorld::Check(const Slot& s, std::span<const std::uint8_t> reply) const {
  auto eq = [](std::span<const std::uint8_t> a, std::string_view b) {
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), reinterpret_cast<const std::uint8_t*>(b.data()));
  };
  if (s.op == 'G') {
    return eq(reply, ValueOf(s.keys[0]));
  }
  if (s.op == 'S') {
    return reply.size() == 1 && reply[0] == 'K';
  }
  if (reply.size() < 2 || reply[0] != 'V' || reply[1] != kMultiKeys) {
    return false;
  }
  std::size_t pos = 2;
  for (std::size_t i = 0; i < kMultiKeys; ++i) {
    if (reply.size() < pos + 2) {
      return false;
    }
    const std::size_t len = reply[pos] | (reply[pos + 1] << 8);
    pos += 2;
    if (reply.size() < pos + len || !eq(reply.subspan(pos, len), ValueOf(s.keys[i]))) {
      return false;
    }
    pos += len;
  }
  return pos == reply.size();
}

void KvWorld::OnReply(std::span<const std::uint8_t> frame) {
  using namespace uknet;
  if (frame.size() < kEthHdrBytes + kIp4HdrBytes + kUdpHdrBytes) {
    return;
  }
  auto ip = Ip4Header::Parse(frame.subspan(kEthHdrBytes));
  if (!ip.has_value() || ip->proto != kIpProtoUdp) {
    return;
  }
  auto body = frame.subspan(kEthHdrBytes + ip->header_len, ip->total_len - ip->header_len);
  auto udp = UdpHeader::Parse(body, ip->src, ip->dst, /*verify_checksum=*/false);
  if (!udp.has_value() || port_slot_[udp->dst_port] < 0) {
    return;
  }
  const auto idx = static_cast<std::size_t>(port_slot_[udp->dst_port]);
  Group& g = groups_[idx / kSlots];
  Slot& s = g.slots[idx % kSlots];
  if (!s.busy) {
    return;  // a duplicate reply: nothing is waiting on this slot
  }
  const bool ok = Check(s, body.subspan(kUdpHdrBytes, udp->length - kUdpHdrBytes));
  const std::size_t nkeys = s.op == 'M' ? kMultiKeys : 1;
  for (std::size_t i = 0; i < nkeys; ++i) {
    if (s.op == 'S') {
      writing_[s.keys[i]] = 0;
    } else {
      --reading_[s.keys[i]];
    }
  }
  s.busy = false;
  --g.outstanding;
  OpDone(s.issued, ok);
}

void KvWorld::Turn() {
  {
    ScopedSpan span(tracer_, Layer::kClient);
    const bool round_done = Idle();
    for (std::uint16_t q = 0; q < kQueues && round_done; ++q) {
      if (issuing_ || groups_[q].preload_next < shard_keys_[q].size()) {
        SendBurst(q);
      }
    }
  }
  for (std::uint16_t q = 0; q < kQueues; ++q) {
    ScopedSpan span(tracer_, Layer::kKvstore);
    server_->PumpQueue(q);
  }
  {
    ScopedSpan span(tracer_, Layer::kClient);
    if (tracer_ != nullptr && tracer_->active()) {
      wire_queue_peak_ = std::max(wire_queue_peak_, MaxPending(wire_));
    }
    while (auto frame = wire_.Receive(kClientWirePort)) {
      OnReply(*frame);
    }
  }
}

bool KvWorld::Idle() const {
  for (const Group& g : groups_) {
    if (g.outstanding != 0) {
      return false;
    }
  }
  return true;
}

KvWorld::Counters KvWorld::ReadCounters() const {
  Counters c;
  c.wire.Add(wire_);
  if (traced_nic_ != nullptr) {
    c.nic = traced_nic_->counts();
  }
  c.heap = inst_->heap()->stats();
  c.kv = server_->stats();
  for (std::uint16_t q = 0; q < kQueues; ++q) {
    c.queue_requests[q] = server_->queue_requests(q);
    c.tx_pool_allocs += server_->tx_pool(q)->total_allocs();
  }
  c.kicks = nic_->kicks();
  return c;
}

void KvWorld::SnapshotCounters() {
  start_ = ReadCounters();
  wire_queue_peak_ = 0;
}

void KvWorld::Finish(std::uint64_t ops, Report* report) {
  const Counters end = ReadCounters();
  issuing_ = false;
  if (!TurnUntil(*this, [this] { return Idle(); }, kMaxDrainTurns)) {
    report->errors.push_back("outstanding requests never completed");
  }
  report->heap_peak_bytes = end.heap.peak_bytes;
  auto& m = report->layers;
  PutWireLayers(end.wire - start_.wire, wire_queue_peak_, ops, report);
  PutNetDevLayers(start_.nic, end.nic, ops, report);
  m["uknetdev.kicks_per_op"] = PerOp(static_cast<double>(end.kicks - start_.kicks), ops);
  m["uknetdev.tx_pool_allocs_per_op"] =
      PerOp(static_cast<double>(end.tx_pool_allocs - start_.tx_pool_allocs), ops);
  const double requests = static_cast<double>(end.kv.requests - start_.kv.requests);
  m["apps.kvstore.ring_messages_per_op"] =
      PerOp(static_cast<double>(end.kv.ring_messages - start_.kv.ring_messages), ops);
  m["apps.kvstore.cross_shard_share"] =
      requests > 0
          ? static_cast<double>(end.kv.cross_shard_ops - start_.kv.cross_shard_ops) / requests
          : 0.0;
  double min_share = 1.0;
  for (std::uint16_t q = 0; q < kQueues; ++q) {
    const double share =
        requests > 0
            ? static_cast<double>(end.queue_requests[q] - start_.queue_requests[q]) / requests
            : 0.0;
    min_share = std::min(min_share, share);
  }
  m["apps.kvstore.min_queue_share"] = min_share;
  PutAllocLayers(start_.heap, end.heap, ops, report);
}

}  // namespace

std::unique_ptr<World> MakeKvUdpShardedWorld(const Params& params) {
  return std::make_unique<KvWorld>(params);
}

}  // namespace e2e
