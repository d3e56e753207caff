// bench/e2e/fleet_workload.cpp - the fleet-churn workload: connection setup
// and teardown through the L4 balancer, with backend kills and inittab
// reboots as serving events.
//
// env::FleetTestBed runs a client host, the balancer and 2 redis backends,
// each booted through a real ukboot::Instance and preloaded with the same
// 20k seeded keys, snapshotted to its RamDisk. 4 churn slots run connect ->
// GET id + GET <seeded key> (one write) -> close through the balancer VIP,
// closed loop: the id names the serving incarnation, the value proves the
// dataset. Once per host-time slice (kSlices times per measured phase) one
// backend (alternating) is hard-killed; churn continues until the balancer's
// probes mark it down, and the backend is rebooted through its inittab, which
// replays the snapshot.
// An attempt that dies with the backend (RST or FIN before the reply) is
// retried by its slot: the op then counts the retry in its latency and fails
// only when kMaxAttempts attempts die.
//
// The turn reproduces FleetTestBed::PumpAll, including its per-turn
// kTurnCycles charge, with a span around each component.
#include <array>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/e2e/harness.h"
#include "apps/resp.h"
#include "env/fleet.h"
#include "ukarch/random.h"

namespace e2e {

namespace {

constexpr int kBackends = 2;
constexpr std::size_t kSlots = 4;
constexpr std::size_t kPreloadKeys = 20'000;
constexpr std::uint64_t kMinValue = 16;
constexpr std::uint64_t kMaxValue = 128;
constexpr std::size_t kValuePoolBytes = 1 << 16;
constexpr int kKills = kSlices;  // one kill and reboot per host-time slice
constexpr int kMaxAttempts = 3;
// An attempt with no reply after this much modeled time (0.5 s) is dropped
// and retried; the balancer's probe timeout is far shorter.
constexpr std::uint64_t kAttemptTimeoutCycles = 1'800'000'000;
constexpr std::uint64_t kWarmupOps = 2'000;
constexpr std::uint64_t kMaxDrainTurns = 5'000'000;
constexpr std::string_view kGetIdRequest = "*2\r\n$3\r\nGET\r\n$2\r\nid\r\n";

struct Slot {
  std::shared_ptr<uknet::TcpSocket> sock;
  std::string rx;
  bool in_op = false;
  bool sent = false;
  int attempts = 0;
  std::uint32_t key = 0;
  std::uint64_t issued = 0;          // op start: the first attempt's connect
  std::uint64_t attempt_start = 0;
};

class FleetWorld final : public World {
 public:
  explicit FleetWorld(const Params& params);
  ~FleetWorld() override;

  std::string Describe() const override;
  void Setup() override;
  void Turn() override;
  void Finish(std::uint64_t ops, Report* report) override;
  ukplat::Clock& clock() override { return fleet_->clock(); }

 protected:
  void SnapshotCounters() override;

 private:
  // Counters of one backend incarnation; folded into retired_ at its kill.
  struct Backend {
    ukalloc::AllocStats heap;
    std::uint64_t syscalls = 0;
    std::uint64_t rst_sent = 0;
    std::uint64_t commands = 0;

    void Add(const Backend& o) {
      heap.malloc_calls += o.heap.malloc_calls;
      heap.free_calls += o.heap.free_calls;
      heap.failed_allocs += o.heap.failed_allocs;
      heap.peak_bytes = std::max(heap.peak_bytes, o.heap.peak_bytes);
      syscalls += o.syscalls;
      rst_sent += o.rst_sent;
      commands += o.commands;
    }
  };
  struct Counters {
    WireTotals wire;
    TcpTotals tcp;
    Backend backends;
    apps::L4Balancer::Stats balancer;
    std::uint64_t balancer_syscalls = 0;
    std::uint64_t balancer_rst_sent = 0;
    std::uint64_t payload_bytes = 0;
    std::uint64_t turns = 0;
    std::uint64_t idle_turns = 0;
    std::uint64_t retried = 0;
  };

  std::string_view ValueOf(std::size_t key) const {
    return std::string_view(pool_).substr(values_[key].first, values_[key].second);
  }
  Backend ReadBackend(int i);
  Counters ReadCounters();
  bool Idle() const;
  void StepSlot(Slot& slot);
  void EndAttempt(Slot& slot, bool retry);
  bool IdIsLive(std::string_view id, std::uint64_t issued) const;
  // Parses the two bulk replies of a finished op; false while incomplete.
  bool ParseReplies(const Slot& slot, bool* ok, std::string* id) const;
  void KillOrReboot();
  std::size_t ConnCount();

  Tracer* const tracer_;
  const std::uint64_t kill_every_;
  ukarch::Xorshift rng_;
  std::string pool_;
  std::vector<std::string> keys_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> values_;  // pool slices
  std::unique_ptr<env::FleetTestBed> fleet_;
  std::array<Slot, kSlots> slots_{};
  std::string request_;

  // Serving identities: id -> modeled cycle of its kill (max while alive).
  std::map<std::string, std::uint64_t, std::less<>> id_death_;
  std::set<std::string> served_ids_;
  std::vector<std::string> reborn_ids_;
  std::vector<std::string> reboot_errors_;

  bool kill_phase_ = false;  // kills run only inside the measured phase
  std::uint64_t measure_base_ = 0;
  int kills_done_ = 0;
  int victim_ = -1;  // killed and not yet rebooted
  int next_victim_ = 0;
  std::uint64_t recovered_keys_ = 0;

  Backend retired_;
  TcpTotals closed_tcp_;
  std::uint64_t payload_bytes_ = 0;
  std::uint64_t retried_ = 0;
  std::uint64_t turns_ = 0;
  std::uint64_t idle_turns_ = 0;
  std::size_t wire_queue_peak_ = 0;
  std::size_t conns_peak_ = 0;
  Counters start_;
};

FleetWorld::FleetWorld(const Params& params)
    : tracer_(params.tracer),
      kill_every_(std::max<std::uint64_t>(params.ops / kKills, 1)),
      rng_(params.seed),
      pool_(RandomBytes(params.seed * 7919 + 5, kValuePoolBytes)) {
  keys_ = MakeKeyNames(rng_, kPreloadKeys);
  for (std::size_t i = 0; i < kPreloadKeys; ++i) {
    const auto len = static_cast<std::uint32_t>(rng_.NextInRange(kMinValue, kMaxValue));
    values_.emplace_back(static_cast<std::uint32_t>(rng_.NextBelow(kValuePoolBytes - len)), len);
  }
}

FleetWorld::~FleetWorld() {
  for (Slot& s : slots_) {
    s.sock.reset();
  }
  fleet_.reset();
}

std::string FleetWorld::Describe() const {
  return "fleet: client host + L4 balancer + 2 redis backend unikernels (vhost-user, "
         "tlsf, 1 queue each, the same 20000 keys of 16-128 B preloaded and "
         "snapshotted to a RamDisk); 4 churn slots connect -> GET id + GET key "
         "-> close, closed loop; " + std::to_string(kKills) +
         " kills per measured phase, one per host-time slice, each followed by "
         "an inittab reboot once the balancer marks the backend down";
}

void FleetWorld::Setup() {
  env::FleetTestBed::Config cfg;
  cfg.backends = kBackends;
  cfg.backend_memory_bytes = 32ull << 20;
  fleet_ = std::make_unique<env::FleetTestBed>(cfg);
  for (int i = 0; i < kBackends; ++i) {
    auto& b = fleet_->backend(i);
    NoteBoot(b.report, /*sample=*/false);
    if (!b.alive) {
      return;
    }
    for (std::size_t k = 0; k < kPreloadKeys; ++k) {
      if (!b.server->store().Set(keys_[k], ValueOf(k))) {
        setup_errors_.push_back("preload ran out of backend heap");
        return;
      }
    }
    if (!b.persist->SaveNow()) {
      setup_errors_.push_back("preload snapshot failed");
      return;
    }
    id_death_[b.id()] = std::numeric_limits<std::uint64_t>::max();
  }
  if (!TurnUntil(*this, [this] { return completed() >= kWarmupOps; }, 10'000'000)) {
    setup_errors_.push_back("warm-up did not complete");
  }
}

bool FleetWorld::IdIsLive(std::string_view id, std::uint64_t issued) const {
  auto it = id_death_.find(id);
  return it != id_death_.end() && it->second > issued;
}

void FleetWorld::EndAttempt(Slot& slot, bool retry) {
  if (slot.sock != nullptr) {
    closed_tcp_.Add(slot.sock->tcp_stats());
    slot.sock->Close();
    slot.sock = nullptr;
  }
  if (!retry) {
    slot.in_op = false;
    return;
  }
  ++retried_;
  if (slot.attempts >= kMaxAttempts) {
    slot.in_op = false;
    OpDone(slot.issued, false);
  }
}

void FleetWorld::StepSlot(Slot& slot) {
  ukplat::Clock& clk = clock();
  if (slot.sock == nullptr) {
    if (!slot.in_op) {
      if (!issuing_) {
        return;
      }
      slot.in_op = true;
      slot.attempts = 0;
      slot.key = static_cast<std::uint32_t>(rng_.NextBelow(kPreloadKeys));
      slot.issued = clk.cycles();
    }
    ++slot.attempts;
    slot.attempt_start = clk.cycles();
    slot.sock = fleet_->client_stack()->TcpConnect(env::FleetTestBed::kBalancerIp,
                                                   fleet_->config().vip_port);
    slot.rx.clear();
    slot.sent = false;
    return;
  }
  if (slot.sock->failed() || clk.cycles() - slot.attempt_start > kAttemptTimeoutCycles) {
    EndAttempt(slot, /*retry=*/true);
    return;
  }
  if (!slot.sock->connected() && !slot.sock->peer_closed()) {
    return;  // handshake in flight
  }
  if (!slot.sent && slot.sock->connected()) {
    request_.assign(kGetIdRequest);
    apps::RespCommandInto(request_, {"GET", keys_[slot.key]});
    const auto* p = reinterpret_cast<const std::uint8_t*>(request_.data());
    if (slot.sock->Send(std::span(p, request_.size())) ==
        static_cast<std::int64_t>(request_.size())) {
      slot.sent = true;
      payload_bytes_ += request_.size();
    }
  }
  std::uint8_t buf[512];
  for (;;) {
    const std::int64_t n = slot.sock->Recv(buf);
    if (n > 0) {
      slot.rx.append(reinterpret_cast<const char*>(buf), static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0 && slot.rx.empty()) {
      EndAttempt(slot, /*retry=*/true);  // closed before any reply
      return;
    }
    break;
  }
  bool ok = false;
  std::string id;
  if (ParseReplies(slot, &ok, &id)) {
    served_ids_.insert(id);
    const std::uint64_t issued = slot.issued;
    EndAttempt(slot, /*retry=*/false);
    OpDone(issued, ok);
  }
}

bool FleetWorld::ParseReplies(const Slot& slot, bool* ok, std::string* id) const {
  const std::string_view rx(slot.rx);
  char id_type = 0;
  char value_type = 0;
  std::string_view id_body;
  std::string_view value_body;
  const std::size_t used = ParseRespReply(rx, &id_type, &id_body);
  if (used == 0 || ParseRespReply(rx.substr(used), &value_type, &value_body) == 0) {
    return false;
  }
  id->assign(id_body);
  *ok = id_type == '$' && IdIsLive(id_body, slot.issued) && value_type == '$' &&
        value_body == ValueOf(slot.key);
  return true;
}

void FleetWorld::KillOrReboot() {
  if (victim_ >= 0) {
    if (fleet_->balancer().state(victim_) != apps::L4Balancer::BackendState::kDown) {
      return;
    }
    ScopedSpan span(tracer_, Layer::kUkboot);
    const ukboot::BootReport report = fleet_->BootBackend(victim_);
    NoteBoot(report);
    auto& b = fleet_->backend(victim_);
    if (report.ok) {
      id_death_[b.id()] = std::numeric_limits<std::uint64_t>::max();
      reborn_ids_.push_back(b.id());
      recovered_keys_ = b.last_recover.snapshot_keys + b.last_recover.aof_commands;
      if (b.last_recover.snapshot_keys != kPreloadKeys + 1) {  // + the "id" key
        reboot_errors_.push_back(b.id() + " recovered " +
                                 std::to_string(b.last_recover.snapshot_keys) +
                                 " snapshot keys");
      }
    } else {
      reboot_errors_.push_back("reboot of backend " + std::to_string(victim_) +
                               " failed: " + report.error);
    }
    victim_ = -1;
    return;
  }
  // Kill k falls in the middle of host-time slice k, so the kill, the
  // balancer's down-marking and the reboot's snapshot replay are inside it.
  if (!kill_phase_ || kills_done_ >= kKills ||
      completed() - measure_base_ <
          kill_every_ * static_cast<std::uint64_t>(kills_done_) + kill_every_ / 2) {
    return;
  }
  ScopedSpan span(tracer_, Layer::kUkboot);
  victim_ = next_victim_;
  next_victim_ = (next_victim_ + 1) % kBackends;
  ++kills_done_;
  retired_.Add(ReadBackend(victim_));
  id_death_[fleet_->backend(victim_).id()] = clock().cycles();
  fleet_->KillBackend(victim_);
}

std::size_t FleetWorld::ConnCount() {
  std::size_t n = fleet_->balancer_sim().stack->tcp_conn_count();
  for (int i = 0; i < kBackends; ++i) {
    if (fleet_->backend_alive(i)) {
      n += fleet_->backend(i).stack->tcp_conn_count();
    }
  }
  return n;
}

void FleetWorld::Turn() {
  fleet_->clock().Charge(env::FleetTestBed::kTurnCycles);
  {
    ScopedSpan span(tracer_, Layer::kClient);
    for (Slot& s : slots_) {
      StepSlot(s);
    }
    fleet_->client_stack()->Poll();
  }
  {
    ScopedSpan span(tracer_, Layer::kBalancer);
    fleet_->balancer_sim().stack->Poll();
    fleet_->balancer().PumpOnce();
  }
  std::size_t handled = 0;
  for (int i = 0; i < kBackends; ++i) {
    if (!fleet_->backend_alive(i)) {
      continue;
    }
    auto& b = fleet_->backend(i);
    {
      ScopedSpan span(tracer_, Layer::kUknet);
      b.stack->Poll();
    }
    ScopedSpan span(tracer_, Layer::kRedis);
    handled += b.server->PumpOnce();
  }
  ++turns_;
  idle_turns_ += handled == 0 ? 1 : 0;
  KillOrReboot();
  if (tracer_ != nullptr && tracer_->active()) {
    wire_queue_peak_ = std::max(wire_queue_peak_, MaxPending(fleet_->wire()));
    conns_peak_ = std::max(conns_peak_, ConnCount());
  }
}

bool FleetWorld::Idle() const {
  for (const Slot& s : slots_) {
    if (s.in_op) {
      return false;
    }
  }
  return victim_ < 0;
}

FleetWorld::Backend FleetWorld::ReadBackend(int i) {
  auto& b = fleet_->backend(i);
  Backend out;
  out.heap = b.instance->heap()->stats();
  out.syscalls = b.api->shim().calls();
  out.rst_sent = b.stack->stats().rst_sent;
  out.commands = b.server->commands_processed();
  return out;
}

FleetWorld::Counters FleetWorld::ReadCounters() {
  Counters c;
  c.wire.Add(fleet_->wire());
  c.tcp = closed_tcp_;
  for (const Slot& s : slots_) {
    if (s.sock != nullptr) {
      c.tcp.Add(s.sock->tcp_stats());
    }
  }
  c.backends = retired_;
  for (int i = 0; i < kBackends; ++i) {
    if (fleet_->backend_alive(i)) {
      c.backends.Add(ReadBackend(i));
    }
  }
  c.balancer = fleet_->balancer().stats();
  c.balancer_syscalls = fleet_->balancer_api().shim().calls();
  c.balancer_rst_sent = fleet_->balancer_sim().stack->stats().rst_sent;
  c.payload_bytes = payload_bytes_;
  c.turns = turns_;
  c.idle_turns = idle_turns_;
  c.retried = retried_;
  return c;
}

void FleetWorld::SnapshotCounters() {
  start_ = ReadCounters();
  wire_queue_peak_ = 0;
  conns_peak_ = 0;
  measure_base_ = completed();
  kill_phase_ = true;
}

void FleetWorld::Finish(std::uint64_t ops, Report* report) {
  kill_phase_ = false;
  const Counters end = ReadCounters();
  issuing_ = false;
  if (!TurnUntil(*this, [this] { return Idle(); }, kMaxDrainTurns)) {
    report->errors.push_back("churn never drained");
  }
  if (kills_done_ != kKills || reborn_ids_.size() != static_cast<std::size_t>(kKills)) {
    report->errors.push_back("ran " + std::to_string(kills_done_) + " kills and " +
                             std::to_string(reborn_ids_.size()) + " reboots, expected " +
                             std::to_string(kKills));
  }
  for (const std::string& id : reborn_ids_) {
    if (served_ids_.count(id) == 0) {
      report->errors.push_back("rebooted backend " + id + " never served");
    }
  }
  report->errors.insert(report->errors.end(), reboot_errors_.begin(), reboot_errors_.end());

  // The heap peak is the largest of any backend incarnation, preload included.
  report->heap_peak_bytes = end.backends.heap.peak_bytes;
  auto& m = report->layers;
  PutWireLayers(end.wire - start_.wire, wire_queue_peak_, ops, report);
  PutTcpLayers(end.tcp - start_.tcp, end.payload_bytes - start_.payload_bytes, report);
  m["uknet.tcp_conns_peak"] = static_cast<double>(conns_peak_);
  m["uknet.rst_sent"] = static_cast<double>(
      end.backends.rst_sent - start_.backends.rst_sent + end.balancer_rst_sent -
      start_.balancer_rst_sent);
  m["posix.syscalls_per_op"] =
      PerOp(static_cast<double>(end.backends.syscalls - start_.backends.syscalls +
                                end.balancer_syscalls - start_.balancer_syscalls),
            ops);
  const double turns = static_cast<double>(end.turns - start_.turns);
  m["apps.redis.commands_per_turn"] =
      turns > 0 ? static_cast<double>(end.backends.commands - start_.backends.commands) / turns
                : 0.0;
  m["apps.redis.idle_turn_share"] =
      turns > 0 ? static_cast<double>(end.idle_turns - start_.idle_turns) / turns : 0.0;
  const auto& b0 = start_.balancer;
  const auto& b1 = end.balancer;
  const double flows = static_cast<double>(b1.flows_opened - b0.flows_opened);
  m["apps.l4_balancer.probes_per_flow"] =
      flows > 0 ? static_cast<double>(b1.probes_sent - b0.probes_sent) / flows : 0.0;
  m["apps.l4_balancer.fallback_steers"] =
      static_cast<double>(b1.fallback_steers - b0.fallback_steers);
  m["apps.l4_balancer.flows_failed"] = static_cast<double>(b1.flows_failed - b0.flows_failed);
  m["apps.l4_balancer.down_events"] =
      static_cast<double>(b1.backend_down_events - b0.backend_down_events);
  m["ukboot.recovered_keys"] = static_cast<double>(recovered_keys_);
  m["client.retried_attempts"] = static_cast<double>(end.retried - start_.retried);
  PutAllocLayers(start_.backends.heap, end.backends.heap, ops, report);
}

}  // namespace

std::unique_ptr<World> MakeFleetChurnWorld(const Params& params) {
  return std::make_unique<FleetWorld>(params);
}

}  // namespace e2e
