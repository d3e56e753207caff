#include "bench/e2e/tracer.h"

#include <chrono>

namespace e2e {

namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kClient: return "client";
    case Layer::kUkplat: return "ukplat";
    case Layer::kUknetdev: return "uknetdev";
    case Layer::kUknet: return "uknet";
    case Layer::kRedis: return "apps.redis";
    case Layer::kBlockdev: return "ukblockdev";
    case Layer::kKvstore: return "apps.kvstore";
    case Layer::kBalancer: return "apps.l4_balancer";
    case Layer::kUkboot: return "ukboot";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer::Tracer(bool keep_raw) : keep_raw_(keep_raw) { stack_.reserve(16); }

void Tracer::Start(const ukplat::Clock* clock) {
  clock_ = clock;
  model_ = clock->model();
  totals_ = {};
  covered_ns_ = 0.0;
  turn_ = 0;
  raw_.clear();
  active_ = true;
  phase_start_ns_ = NowNs();
}

void Tracer::Stop() {
  phase_ns_ = static_cast<double>(NowNs() - phase_start_ns_);
  active_ = false;
}

void Tracer::Pause() { pause_start_ns_ = NowNs(); }

void Tracer::Resume() { phase_start_ns_ += NowNs() - pause_start_ns_; }

void Tracer::Open(Layer layer) {
  OpenSpan s{layer, NowNs(), clock_->cycles(), 0, 0, -1};
  if (keep_raw_ && turn_ <= kRawTurnLimit) {
    s.raw = static_cast<std::int32_t>(raw_.size());
    raw_.push_back(RawSpan{layer, stack_.empty() ? -1 : stack_.back().raw, turn_,
                           s.start_ns - phase_start_ns_, 0});
  }
  stack_.push_back(s);
}

void Tracer::Close() {
  const std::int64_t end_ns = NowNs();
  const std::uint64_t end_cycles = clock_->cycles();
  const OpenSpan s = stack_.back();
  stack_.pop_back();
  const std::int64_t dur_ns = end_ns - s.start_ns;
  const std::uint64_t dur_cycles = end_cycles - s.start_cycles;
  Totals& t = totals_[static_cast<std::size_t>(s.layer)];
  ++t.calls;
  t.self_ns += static_cast<double>(dur_ns - s.child_ns);
  t.self_cycles += dur_cycles - s.child_cycles;
  if (stack_.empty()) {
    covered_ns_ += static_cast<double>(dur_ns);
  } else {
    stack_.back().child_ns += dur_ns;
    stack_.back().child_cycles += dur_cycles;
  }
  if (s.raw >= 0) {
    raw_[static_cast<std::size_t>(s.raw)].end_ns = end_ns - phase_start_ns_;
  }
}

void Tracer::PrintSelfTable(std::FILE* out, std::uint64_t ops) const {
  const double n = ops > 0 ? static_cast<double>(ops) : 1.0;
  double self_sum = 0.0;
  for (const Totals& t : totals_) {
    self_sum += t.self_ns;
  }
  std::fprintf(out, "%-18s %12s %14s %14s %10s\n", "layer", "spans",
               "self ns/op", "modeled ns/op", "self share");
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const Totals& t = totals_[i];
    std::fprintf(out, "%-18s %12llu %14.1f %14.1f %9.1f%%\n",
                 LayerName(static_cast<Layer>(i)),
                 static_cast<unsigned long long>(t.calls), t.self_ns / n,
                 model_.CyclesToNs(t.self_cycles) / n,
                 self_sum > 0 ? 100.0 * t.self_ns / self_sum : 0.0);
  }
  std::fprintf(out, "spans cover %.1f%% of the traced phase's host time\n",
               phase_ns_ > 0 ? 100.0 * covered_ns_ / phase_ns_ : 0.0);
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  // Complete ("X") events on one thread nest by time, which is how
  // chrome://tracing and Perfetto draw the parent/child layer stack.
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    const RawSpan& s = raw_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"turn\":%u}}",
                 i == 0 ? "" : ",", LayerName(s.layer),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 s.turn);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2e
