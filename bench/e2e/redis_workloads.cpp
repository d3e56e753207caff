// bench/e2e/redis_workloads.cpp - the redis-get and redis-set-aof workloads.
//
// Both run the RESP server of Fig 12 as a booted unikraft-kvm unikernel
// (vhost-net virtio NIC, mimalloc heap, posix shim in direct-call mode)
// against a client host on the other end of one wire. The load is closed
// loop: 4 connections, each keeping 16 commands in flight.
//
// redis-get GETs uniform seeded keys from a 100k-key preload of 64 B values:
// the read-only, zero-alloc path through uknet TCP, posix epoll, the event
// loop and RESP parsing, with storage and the allocator idle.
//
// redis-set-aof SETs seeded 16-1024 B values with the AOF on BlockFs over a
// RamDisk at fsync=everyturn, plus a RESP BGSAVE every kBgsaveEvery SETs:
// the same TCP and RESP path, but storage, AOF batching, COW pre-images and
// the allocator do most of the work.
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "apps/persist.h"
#include "apps/redis.h"
#include "apps/resp.h"
#include "bench/e2e/harness.h"
#include "bench/e2e/traced_devices.h"
#include "env/profile.h"
#include "env/testbed.h"
#include "posix/api.h"
#include "ukarch/random.h"
#include "ukblockdev/ramdisk.h"
#include "ukboot/instance.h"
#include "uknet/stack.h"
#include "uknetdev/virtio_net.h"
#include "ukplat/wire.h"
#include "vfscore/blockfs.h"
#include "vfscore/vfs.h"

namespace e2e {

namespace {

constexpr uknet::Ip4Addr kServerIp = 0x0a000001;  // 10.0.0.1
constexpr uknet::Ip4Addr kClientIp = 0x0a000002;  // 10.0.0.2
constexpr std::uint16_t kPort = 6379;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kPipeline = 16;
constexpr std::uint64_t kWarmupOps = 20'000;
constexpr std::uint64_t kMaxDrainTurns = 1'000'000;

constexpr std::size_t kGetKeys = 100'000;
constexpr std::uint32_t kGetValueBytes = 64;

// redis-set-aof sizing. BlockFs is a 16 MiB volume whose files hold at most
// 4.04 MiB, and BGSAVE seals the live AOF segment. So the SETs between two
// BGSAVEs (~560 B of AOF each) must stay well under 4 MiB, a snapshot must
// finish (at kSnapshotChunkBytes per turn) long before the next BGSAVE, and
// two retained snapshots plus the live segments must fit the volume.
constexpr std::size_t kAofKeys = 2048;
constexpr std::uint32_t kAofMinValue = 16;
constexpr std::uint32_t kAofMaxValue = 1024;
constexpr std::uint64_t kBgsaveEvery = 4096;
constexpr std::size_t kSnapshotChunkBytes = 32 * 1024;
constexpr std::uint64_t kDiskSectors = 32768;  // 16 MiB
constexpr std::size_t kReadBackKeys = 1000;

constexpr std::size_t kValuePoolBytes = 1 << 20;

enum class Kind : std::uint8_t { kGet, kSet, kBgsave };

struct Pending {
  std::uint64_t issued = 0;
  std::uint32_t key = 0;
  Kind kind = Kind::kGet;
  bool measured = true;  // false for the post-run read-back
};

// A value is a slice of the world's random byte pool.
struct Value {
  std::uint32_t off = 0;
  std::uint32_t len = 0;
};

class RedisWorld final : public World {
 public:
  RedisWorld(const Params& params, bool aof);
  ~RedisWorld() override;

  std::string Describe() const override;
  void Setup() override;
  void Turn() override;
  void Finish(std::uint64_t ops, Report* report) override;
  ukplat::Clock& clock() override { return clock_; }

 protected:
  void SnapshotCounters() override;

 private:
  struct Conn {
    std::shared_ptr<uknet::TcpSocket> sock;
    std::string tx;
    std::string rx;
    std::size_t rx_pos = 0;
    std::deque<Pending> fifo;
  };

  // Counters the per-layer metrics are measured-phase deltas of.
  struct Counters {
    WireTotals wire;
    TracedNetDev::Counts nic;
    TracedBlockDev::Counts disk;
    TcpTotals tcp;
    ukalloc::AllocStats heap;
    apps::Persist::Stats persist;
    std::uint64_t kicks = 0;
    std::uint64_t tx_pool_allocs = 0;
    std::uint64_t rst_sent = 0;
    std::uint64_t syscalls = 0;
    std::uint64_t commands = 0;
    std::uint64_t turns = 0;
    std::uint64_t idle_turns = 0;
    std::uint64_t payload_bytes = 0;
  };

  void RegisterInittab();
  // Destroys what the server's inittab built, in reverse order.
  void TearDownServer();
  uknetdev::NetDev* ServerNic() {
    return traced_nic_ != nullptr ? static_cast<uknetdev::NetDev*>(traced_nic_.get())
                                  : nic_.get();
  }
  std::string_view ValueOf(const Value& v) const {
    return std::string_view(pool_).substr(v.off, v.len);
  }
  Counters ReadCounters() const;
  bool Idle() const;
  void PumpClient();
  void Refill(std::size_t conn_index, Conn& c);
  void Drain(Conn& c);
  void OnReply(const Pending& p, char type, std::string_view body);

  const bool aof_;
  const std::uint64_t seed_;
  Tracer* const tracer_;
  ukarch::Xorshift rng_;
  std::string pool_;
  std::vector<std::string> keys_;
  std::vector<Value> model_;  // the value every key must read back as
  std::vector<std::uint8_t> set_in_flight_;

  ukplat::Clock clock_;
  ukplat::Wire wire_;
  std::unique_ptr<env::SimHost> client_;

  // The server unikernel; its inittab builds everything below on Boot().
  std::unique_ptr<ukboot::Instance> inst_;
  std::unique_ptr<uknetdev::VirtioNet> nic_;
  std::unique_ptr<TracedNetDev> traced_nic_;
  std::unique_ptr<ukblockdev::RamDisk> disk_;
  std::unique_ptr<TracedBlockDev> traced_disk_;
  std::unique_ptr<vfscore::BlockFs> blockfs_;
  vfscore::Vfs vfs_;
  std::unique_ptr<uknet::NetStack> stack_;
  uknet::NetIf* netif_ = nullptr;
  std::unique_ptr<posix::PosixApi> api_;
  std::unique_ptr<apps::Persist> persist_;
  std::unique_ptr<apps::RedisServer> server_;

  std::vector<Conn> conns_;
  std::uint64_t sets_issued_ = 0;
  std::uint64_t next_bgsave_ = kBgsaveEvery;
  std::uint64_t readback_mismatches_ = 0;
  std::uint64_t payload_bytes_ = 0;
  std::uint64_t turns_ = 0;
  std::uint64_t idle_turns_ = 0;
  std::size_t wire_queue_peak_ = 0;
  std::size_t conns_peak_ = 0;
  Counters start_;
};

RedisWorld::RedisWorld(const Params& params, bool aof)
    : aof_(aof),
      seed_(params.seed),
      tracer_(params.tracer),
      rng_(params.seed),
      pool_(RandomBytes(params.seed * 7919 + 1, kValuePoolBytes)),
      wire_(&clock_) {
  keys_ = MakeKeyNames(rng_, aof_ ? kAofKeys : kGetKeys);
  model_.resize(keys_.size());
  set_in_flight_.assign(keys_.size(), 0);
  for (Value& v : model_) {
    v.len = aof_ ? static_cast<std::uint32_t>(rng_.NextInRange(kAofMinValue, kAofMaxValue))
                 : kGetValueBytes;
    v.off = static_cast<std::uint32_t>(rng_.NextBelow(kValuePoolBytes - v.len));
  }
  client_ = std::make_unique<env::SimHost>(&clock_, &wire_, 1, kClientIp,
                                           ukalloc::Backend::kTlsf,
                                           uknetdev::VirtioBackend::kVhostUser,
                                           16ull << 20, /*queues=*/1);
  RegisterInittab();
}

RedisWorld::~RedisWorld() {
  conns_.clear();
  TearDownServer();
}

void RedisWorld::TearDownServer() {
  server_.reset();
  persist_.reset();
  api_.reset();
  netif_ = nullptr;
  stack_.reset();
  vfs_.Unmount("/persist");
  blockfs_.reset();
  traced_disk_.reset();
  traced_nic_.reset();
  nic_.reset();
  wire_.ResetPort(0);
}

void RedisWorld::RegisterInittab() {
  inst_ = std::make_unique<ukboot::Instance>(
      ServerInstanceConfig(aof_ ? "redis-aof" : "redis", 32ull << 20));
  inst_->RegisterInit(ukboot::InitStage::kBus, "virtio-net", [this](ukboot::Instance& inst) {
    uknetdev::VirtioNet::Config cfg;
    cfg.backend = env::Profile::UnikraftKvm().backend;
    cfg.wire_side = 0;
    cfg.mac = uknetdev::MacAddr{{2, 0, 0, 0, 0, 1}};
    cfg.queue_size = 256;
    nic_ = std::make_unique<uknetdev::VirtioNet>(&inst.mem(), &clock_, &wire_, cfg);
    if (tracer_ != nullptr) {
      traced_nic_ = std::make_unique<TracedNetDev>(nic_.get(), tracer_);
    }
    return ukarch::Status::kOk;
  });
  if (aof_) {
    // The disk's backing bytes live host-side, like a cloud block volume:
    // created with the world, not by the guest's boot.
    disk_ = std::make_unique<ukblockdev::RamDisk>(&inst_->mem(), kDiskSectors);
    inst_->RegisterInit(ukboot::InitStage::kRootfs, "blockfs", [this](ukboot::Instance& inst) {
      ukblockdev::BlockDev* dev = disk_.get();
      if (tracer_ != nullptr) {
        traced_disk_ = std::make_unique<TracedBlockDev>(disk_.get(), tracer_);
        dev = traced_disk_.get();
      }
      blockfs_ = std::make_unique<vfscore::BlockFs>(dev, &inst.mem());
      const ukarch::Status st = blockfs_->EnsureFormatted();
      return ukarch::Ok(st) ? vfs_.Mount("/persist", blockfs_.get()) : st;
    });
  }
  inst_->RegisterInit(ukboot::InitStage::kSys, "netstack", [this](ukboot::Instance& inst) {
    stack_ = std::make_unique<uknet::NetStack>(&inst.mem(), &clock_, inst.heap());
    uknet::NetIf::Config ifcfg;
    ifcfg.ip = kServerIp;
    ifcfg.queues = 1;
    netif_ = stack_->AddInterface(ServerNic(), ifcfg);
    return netif_ != nullptr ? ukarch::Status::kOk : ukarch::Status::kNoMem;
  });
  inst_->RegisterInit(ukboot::InitStage::kLate, "redis", [this](ukboot::Instance& inst) {
    api_ = std::make_unique<posix::PosixApi>(&clock_, &vfs_, stack_.get(),
                                             env::Profile::UnikraftKvm().dispatch);
    server_ = std::make_unique<apps::RedisServer>(api_.get(), inst.heap(), kPort);
    if (!server_->Start()) {
      return ukarch::Status::kNoMem;
    }
    if (aof_) {
      apps::Persist::Config pcfg;
      pcfg.dir = "/persist";
      pcfg.fsync = apps::Persist::FsyncPolicy::kEveryTurn;
      pcfg.snapshot_chunk_bytes = kSnapshotChunkBytes;
      persist_ = std::make_unique<apps::Persist>(&vfs_, pcfg);
      server_->AttachPersist(persist_.get());
      server_->RecoverFromPersist();
    }
    return ukarch::Status::kOk;
  });
}

std::string RedisWorld::Describe() const {
  std::string d =
      "redis server unikernel (unikraft-kvm: vhost-net, mimalloc, direct-call "
      "shim), 1 queue; client host 1 queue; 4 connections x pipeline 16, closed loop; ";
  d += aof_ ? "SET of 16-1024 B values over 2048 keys, AOF fsync=everyturn on "
              "BlockFs/RamDisk, BGSAVE every 4096 SETs"
            : "GET of uniform keys over a 100000-key preload of 64 B values";
  return d;
}

void RedisWorld::Setup() {
  if (!BootServer(*inst_)) {
    return;
  }
  netif_->AddArpEntry(kClientIp, client_->nic->mac());
  client_->netif->AddArpEntry(kServerIp, nic_->mac());
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (!server_->store().Set(keys_[i], ValueOf(model_[i]))) {
      setup_errors_.push_back("preload ran out of server heap");
      return;
    }
  }
  for (std::size_t i = 0; i < kConnections; ++i) {
    Conn c;
    c.sock = client_->stack->TcpConnect(kServerIp, kPort);
    if (c.sock == nullptr) {
      setup_errors_.push_back("client connect failed");
      return;
    }
    conns_.push_back(std::move(c));
  }
  if (!TurnUntil(*this, [this] { return completed() >= kWarmupOps; }, 10'000'000)) {
    setup_errors_.push_back("warm-up did not complete");
  }
}

void RedisWorld::Turn() {
  {
    ScopedSpan span(tracer_, Layer::kClient);
    client_->stack->Poll();
    PumpClient();
  }
  {
    ScopedSpan span(tracer_, Layer::kUknet);
    stack_->Poll();
  }
  std::size_t handled = 0;
  {
    ScopedSpan span(tracer_, Layer::kRedis);
    handled = server_->PumpOnce();
  }
  ++turns_;
  idle_turns_ += handled == 0 ? 1 : 0;
  if (tracer_ != nullptr && tracer_->active()) {
    wire_queue_peak_ = std::max(wire_queue_peak_, MaxPending(wire_));
    conns_peak_ = std::max(conns_peak_, stack_->tcp_conn_count());
  }
}

void RedisWorld::PumpClient() {
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    if (!c.sock->connected()) {
      continue;
    }
    if (issuing_) {
      Refill(i, c);
    }
    if (!c.tx.empty()) {
      const std::int64_t n = c.sock->Send(std::span(
          reinterpret_cast<const std::uint8_t*>(c.tx.data()), c.tx.size()));
      if (n > 0) {
        payload_bytes_ += static_cast<std::uint64_t>(n);
        c.tx.erase(0, static_cast<std::size_t>(n));
      }
    }
    Drain(c);
  }
}

void RedisWorld::Refill(std::size_t conn_index, Conn& c) {
  while (c.fifo.size() < kPipeline) {
    Pending p;
    p.issued = clock_.cycles();
    if (!aof_) {
      p.kind = Kind::kGet;
      p.key = static_cast<std::uint32_t>(rng_.NextBelow(keys_.size()));
      apps::RespCommandInto(c.tx, {"GET", keys_[p.key]});
    } else if (conn_index == 0 && sets_issued_ >= next_bgsave_) {
      p.kind = Kind::kBgsave;
      next_bgsave_ += kBgsaveEvery;
      apps::RespCommandInto(c.tx, {"BGSAVE"});
    } else {
      // A key is never written by two commands in flight at once, so the
      // model's last write is the value the server must hold.
      p.kind = Kind::kSet;
      do {
        p.key = static_cast<std::uint32_t>(rng_.NextBelow(keys_.size()));
      } while (set_in_flight_[p.key] != 0);
      Value& v = model_[p.key];
      v.len = static_cast<std::uint32_t>(rng_.NextInRange(kAofMinValue, kAofMaxValue));
      v.off = static_cast<std::uint32_t>(rng_.NextBelow(kValuePoolBytes - v.len));
      set_in_flight_[p.key] = 1;
      ++sets_issued_;
      apps::RespCommandInto(c.tx, {"SET", keys_[p.key], ValueOf(v)});
    }
    c.fifo.push_back(p);
  }
}

void RedisWorld::Drain(Conn& c) {
  std::uint8_t buf[16384];
  for (;;) {
    const std::int64_t n = c.sock->Recv(buf);
    if (n <= 0) {
      break;
    }
    c.rx.append(reinterpret_cast<const char*>(buf), static_cast<std::size_t>(n));
  }
  const std::string_view all(c.rx);
  while (!c.fifo.empty()) {
    char type = 0;
    std::string_view body;
    const std::size_t used = ParseRespReply(all.substr(c.rx_pos), &type, &body);
    if (used == 0) {
      break;
    }
    c.rx_pos += used;
    const Pending p = c.fifo.front();
    c.fifo.pop_front();
    OnReply(p, type, body);
  }
  if (c.rx_pos == c.rx.size()) {
    c.rx.clear();
    c.rx_pos = 0;
  } else if (c.rx_pos > 64 * 1024) {
    c.rx.erase(0, c.rx_pos);
    c.rx_pos = 0;
  }
}

void RedisWorld::OnReply(const Pending& p, char type, std::string_view body) {
  bool ok = false;
  switch (p.kind) {
    case Kind::kGet:
      ok = type == '$' && body == ValueOf(model_[p.key]);
      break;
    case Kind::kSet:
      set_in_flight_[p.key] = 0;
      ok = type == '+' && body == "OK";
      break;
    case Kind::kBgsave:
      ok = type == '+' && body == "Background saving started";
      break;
  }
  if (p.measured) {
    OpDone(p.issued, ok);
  } else if (!ok) {
    ++readback_mismatches_;
  }
}

bool RedisWorld::Idle() const {
  for (const Conn& c : conns_) {
    if (!c.fifo.empty()) {
      return false;
    }
  }
  return true;
}

RedisWorld::Counters RedisWorld::ReadCounters() const {
  Counters c;
  c.wire.Add(wire_);
  if (traced_nic_ != nullptr) {
    c.nic = traced_nic_->counts();
  }
  if (traced_disk_ != nullptr) {
    c.disk = traced_disk_->counts();
  }
  for (const Conn& conn : conns_) {
    c.tcp.Add(conn.sock->tcp_stats());
  }
  c.heap = inst_->heap()->stats();
  if (persist_ != nullptr) {
    c.persist = persist_->stats();
  }
  c.kicks = nic_->kicks();
  c.tx_pool_allocs = netif_->tx_pool()->total_allocs();
  c.rst_sent = stack_->stats().rst_sent;
  c.syscalls = api_->shim().calls();
  c.commands = server_->commands_processed();
  c.turns = turns_;
  c.idle_turns = idle_turns_;
  c.payload_bytes = payload_bytes_;
  return c;
}

void RedisWorld::SnapshotCounters() {
  start_ = ReadCounters();
  wire_queue_peak_ = 0;
  conns_peak_ = 0;
}

void RedisWorld::Finish(std::uint64_t ops, Report* report) {
  const Counters end = ReadCounters();
  issuing_ = false;
  if (!TurnUntil(*this, [this] { return Idle(); }, kMaxDrainTurns)) {
    report->errors.push_back("outstanding commands never completed");
  }
  if (aof_) {
    // Read-back: every sampled key must hold the value of its last SET.
    ukarch::Xorshift pick(seed_ ^ 0x9e3779b97f4a7c15ull);
    for (std::size_t i = 0; i < kReadBackKeys; ++i) {
      Conn& c = conns_[i % conns_.size()];
      Pending p;
      p.issued = clock_.cycles();
      p.key = static_cast<std::uint32_t>(pick.NextBelow(keys_.size()));
      p.measured = false;
      apps::RespCommandInto(c.tx, {"GET", keys_[p.key]});
      c.fifo.push_back(p);
    }
    if (!TurnUntil(*this, [this] { return Idle(); }, kMaxDrainTurns)) {
      report->errors.push_back("read-back never completed");
    }
    if (readback_mismatches_ > 0) {
      report->errors.push_back(std::to_string(readback_mismatches_) + " of " +
                               std::to_string(kReadBackKeys) +
                               " read-back keys did not match their last SET");
    }
    if (persist_->stats().io_errors != 0) {
      report->errors.push_back("persistence hit I/O errors");
    }
    if (persist_->stats().snapshots_completed == 0) {
      report->errors.push_back("no BGSAVE snapshot completed");
    }
  }

  report->heap_peak_bytes = end.heap.peak_bytes;
  auto& m = report->layers;
  PutWireLayers(end.wire - start_.wire, wire_queue_peak_, ops, report);
  PutNetDevLayers(start_.nic, end.nic, ops, report);
  m["uknetdev.kicks_per_op"] = PerOp(static_cast<double>(end.kicks - start_.kicks), ops);
  m["uknetdev.tx_pool_allocs_per_op"] =
      PerOp(static_cast<double>(end.tx_pool_allocs - start_.tx_pool_allocs), ops);
  PutTcpLayers(end.tcp - start_.tcp, end.payload_bytes - start_.payload_bytes, report);
  m["uknet.tcp_conns_peak"] = static_cast<double>(conns_peak_);
  m["uknet.rst_sent"] = static_cast<double>(end.rst_sent - start_.rst_sent);
  m["posix.syscalls_per_op"] =
      PerOp(static_cast<double>(end.syscalls - start_.syscalls), ops);
  const double turns = static_cast<double>(end.turns - start_.turns);
  m["apps.redis.commands_per_turn"] =
      turns > 0 ? static_cast<double>(end.commands - start_.commands) / turns : 0.0;
  m["apps.redis.idle_turn_share"] =
      turns > 0 ? static_cast<double>(end.idle_turns - start_.idle_turns) / turns : 0.0;
  m["ukblockdev.submits_per_op"] =
      PerOp(static_cast<double>(end.disk.submits - start_.disk.submits), ops);
  m["ukblockdev.bytes_per_op"] =
      PerOp(static_cast<double>(end.disk.bytes - start_.disk.bytes), ops);
  m["apps.persist.aof_writes_per_kop"] =
      1000.0 * PerOp(static_cast<double>(end.persist.aof_writes - start_.persist.aof_writes), ops);
  m["apps.persist.fsyncs_per_kop"] =
      1000.0 * PerOp(static_cast<double>(end.persist.fsyncs - start_.persist.fsyncs), ops);
  m["apps.persist.snapshot_turns"] =
      static_cast<double>(end.persist.snapshot_turns - start_.persist.snapshot_turns);
  m["apps.persist.cow_preimages"] =
      static_cast<double>(end.persist.cow_preimages - start_.persist.cow_preimages);
  m["apps.persist.max_turn_aof_bytes"] = static_cast<double>(end.persist.max_turn_aof_bytes);
  m["apps.persist.max_turn_snapshot_bytes"] =
      static_cast<double>(end.persist.max_turn_snapshot_bytes);
  PutAllocLayers(start_.heap, end.heap, ops, report);
}

}  // namespace

std::unique_ptr<World> MakeRedisGetWorld(const Params& params) {
  return std::make_unique<RedisWorld>(params, /*aof=*/false);
}

std::unique_ptr<World> MakeRedisSetAofWorld(const Params& params) {
  return std::make_unique<RedisWorld>(params, /*aof=*/true);
}

}  // namespace e2e
