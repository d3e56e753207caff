// bench/e2e/tracer.h - layer spans for the traced pass of the end-to-end
// benchmark.
//
// The benchmark wraps every call it makes into a layer's public functions in a
// ScopedSpan. A span records its layer, host start/end (steady clock), the
// world's modeled cycles at both ends, its parent span and the turn it ran
// in; all spans of one event-loop turn share that turn id. Per-layer totals
// are kept for every turn. "Self" time is a span's duration minus the part
// its child spans cover, so nested layers (a TxBurst inside the redis pump)
// are never counted twice. Raw spans are kept only when asked for, and only
// for the first kRawTurnLimit turns, then written as Chrome trace-event JSON.
//
// The tracer only reads clocks: it never charges the world's ukplat::Clock,
// so a traced run executes exactly the modeled cycles of an untraced one.
#ifndef BENCH_E2E_TRACER_H_
#define BENCH_E2E_TRACER_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ukplat/clock.h"

namespace e2e {

enum class Layer : std::uint8_t {
  kClient,     // the load generator + the client host's stack
  kUkplat,     // bench-owned wire relay (tcp-bulk-loss)
  kUknetdev,   // server NIC bursts (TracedNetDev)
  kUknet,      // server NetStack::Poll (+ raw socket calls of the echo app)
  kRedis,      // RedisServer::PumpOnce: event loop + RESP + store
  kBlockdev,   // server block device (TracedBlockDev)
  kKvstore,    // KvServer::PumpQueue
  kBalancer,   // balancer host stack Poll + L4Balancer::PumpOnce
  kUkboot,     // instance kill + inittab reboot
  kCount,
};
inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);
const char* LayerName(Layer layer);

class Tracer {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    double self_ns = 0.0;
    std::uint64_t self_cycles = 0;
  };

  static constexpr std::uint32_t kRawTurnLimit = 100'000;

  // |keep_raw| retains raw spans of the first kRawTurnLimit turns.
  explicit Tracer(bool keep_raw);

  // Brackets the traced phase of the world whose modeled time is |clock|;
  // spans only record while active.
  void Start(const ukplat::Clock* clock);
  void Stop();
  // Leaves the time between Pause() and Resume() out of the phase (and out
  // of the raw spans' timeline); no span may be open across it.
  void Pause();
  void Resume();
  bool active() const { return active_; }
  // Every span opened until the next call belongs to a new turn.
  void BeginTurn() { ++turn_; }

  void Open(Layer layer);
  void Close();

  const Totals& totals(Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }
  const ukplat::CostModel& model() const { return model_; }
  // Host time inside top-level spans, and the whole traced phase.
  double covered_ns() const { return covered_ns_; }
  double phase_ns() const { return phase_ns_; }

  void PrintSelfTable(std::FILE* out, std::uint64_t ops) const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct OpenSpan {
    Layer layer;
    std::int64_t start_ns;
    std::uint64_t start_cycles;
    std::int64_t child_ns;
    std::uint64_t child_cycles;
    std::int32_t raw;  // index into raw_, -1 when not kept
  };
  struct RawSpan {
    Layer layer;
    std::int32_t parent;
    std::uint32_t turn;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  const ukplat::Clock* clock_ = nullptr;
  ukplat::CostModel model_;
  bool keep_raw_;
  bool active_ = false;
  std::uint32_t turn_ = 0;
  std::int64_t phase_start_ns_ = 0;
  std::int64_t pause_start_ns_ = 0;
  double phase_ns_ = 0.0;
  double covered_ns_ = 0.0;
  std::array<Totals, kLayerCount> totals_{};
  std::vector<OpenSpan> stack_;
  std::vector<RawSpan> raw_;
};

// RAII span; a no-op when |tracer| is null or inactive.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer)
      : tracer_(tracer != nullptr && tracer->active() ? tracer : nullptr) {
    if (tracer_ != nullptr) {
      tracer_->Open(layer);
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Close();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace e2e

#endif  // BENCH_E2E_TRACER_H_
