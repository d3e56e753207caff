#include "bench/e2e/harness.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <ctime>

#include "apps/resp.h"
#include "env/profile.h"
#include "ukarch/random.h"

namespace e2e {

namespace {

constexpr int kSubBits = 10;                              // 1024 per octave
constexpr std::uint64_t kExact = 2ull << kSubBits;        // exact below 2048
constexpr std::size_t kBuckets = kExact + 54 * (1u << kSubBits);

std::size_t BucketOf(std::uint64_t v) {
  if (v < kExact) {
    return static_cast<std::size_t>(v);
  }
  const int shift = std::bit_width(v) - (kSubBits + 1);
  return kExact + static_cast<std::size_t>(shift - 1) * (1u << kSubBits) +
         static_cast<std::size_t>((v >> shift) - (1u << kSubBits));
}

// [lower, lower + width) of bucket |i|.
void BucketRange(std::size_t i, double* lower, double* width) {
  if (i < kExact) {
    *lower = static_cast<double>(i);
    *width = 1.0;
    return;
  }
  const std::size_t rel = i - kExact;
  const int shift = static_cast<int>(rel >> kSubBits) + 1;
  const std::uint64_t sub = (rel & ((1u << kSubBits) - 1)) + (1u << kSubBits);
  *lower = static_cast<double>(sub << shift);
  *width = static_cast<double>(1ull << shift);
}

}  // namespace

LatencyHistogram::LatencyHistogram() : counts_(kBuckets, 0) {}

void LatencyHistogram::Record(std::uint64_t cycles) {
  const std::size_t b = BucketOf(cycles);
  ++counts_[b < kBuckets ? b : kBuckets - 1];
  ++total_;
}

double LatencyHistogram::Quantile(double q) const {
  if (total_ == 0) {
    return 0.0;
  }
  const double rank = q * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) {
      continue;
    }
    const double c = static_cast<double>(counts_[i]);
    if (cum + c >= rank) {
      double lower = 0.0;
      double width = 0.0;
      BucketRange(i, &lower, &width);
      return lower + width * (rank - cum) / c;
    }
    cum += c;
  }
  return 0.0;
}

void LatencyHistogram::Reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
}

double ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

double WallNs() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Reference::Slowdown() const {
  return std::sqrt(cpu_ns / kCpuNs * (chase_ns / kChaseNs));
}

Reference MeasureReference() {
  constexpr int kCpuSteps = 2'000'000;  // about 2.6 ms
  constexpr std::size_t kLine = 64;
  constexpr std::size_t kLines = (8u << 20) / kLine;
  constexpr std::size_t kStride = kLine / sizeof(std::uint32_t);
  // One pointer per cache line, linked in a random cycle so that the
  // prefetchers cannot run ahead.
  static const std::vector<std::uint32_t> chase = [] {
    std::vector<std::uint32_t> order(kLines);
    for (std::size_t i = 0; i < kLines; ++i) {
      order[i] = static_cast<std::uint32_t>(i);
    }
    ukarch::Xorshift rng(0x5eed);
    for (std::size_t i = kLines - 1; i > 0; --i) {
      std::swap(order[i], order[rng.NextBelow(i + 1)]);
    }
    std::vector<std::uint32_t> next(kLines * kStride);
    for (std::size_t i = 0; i < kLines; ++i) {
      next[order[i] * kStride] = static_cast<std::uint32_t>(order[(i + 1) % kLines] * kStride);
    }
    return next;
  }();
  static volatile std::uint64_t sink;

  Reference r;
  double t0 = ThreadCpuNs();
  std::uint64_t x = sink;
  for (int i = 0; i < kCpuSteps; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  r.cpu_ns = (ThreadCpuNs() - t0) / kCpuSteps;

  std::uint32_t p = 0;
  for (std::size_t i = 0; i < kLines; ++i) {
    p = chase[p];
  }
  t0 = ThreadCpuNs();
  for (std::size_t i = 0; i < kLines; ++i) {
    p = chase[p];
  }
  r.chase_ns = (ThreadCpuNs() - t0) / kLines;
  sink = x + p;
  return r;
}

void TcpTotals::Add(const uknet::TcpSocket::TcpStats& s) {
  data_segments += s.data_segments_sent;
  pure_acks += s.pure_acks_sent;
  retransmissions += s.retransmissions;
  fast_retransmits += s.fast_retransmits;
  rto_fires += s.rto_retransmits;
  tlp_probes += s.tlp_probes;
  sack_spared += s.sack_rexmit_segments;
  rexmit_copy_allocs += s.rexmit_copy_allocs;
}

TcpTotals TcpTotals::operator-(const TcpTotals& o) const {
  TcpTotals d;
  d.data_segments = data_segments - o.data_segments;
  d.pure_acks = pure_acks - o.pure_acks;
  d.retransmissions = retransmissions - o.retransmissions;
  d.fast_retransmits = fast_retransmits - o.fast_retransmits;
  d.rto_fires = rto_fires - o.rto_fires;
  d.tlp_probes = tlp_probes - o.tlp_probes;
  d.sack_spared = sack_spared - o.sack_spared;
  d.rexmit_copy_allocs = rexmit_copy_allocs - o.rexmit_copy_allocs;
  return d;
}

void PutTcpLayers(const TcpTotals& d, std::uint64_t payload_bytes, Report* r) {
  auto& m = r->layers;
  m["uknet.tcp.pure_acks_per_data_segment"] =
      d.data_segments > 0 ? static_cast<double>(d.pure_acks) /
                                static_cast<double>(d.data_segments)
                          : 0.0;
  const double mib = static_cast<double>(payload_bytes) / (1024.0 * 1024.0);
  m["uknet.tcp.retransmits_per_mib"] =
      mib > 0 ? static_cast<double>(d.retransmissions) / mib : 0.0;
  m["uknet.tcp.fast_retransmits"] = static_cast<double>(d.fast_retransmits);
  m["uknet.tcp.rto_fires"] = static_cast<double>(d.rto_fires);
  m["uknet.tcp.tlp_probes"] = static_cast<double>(d.tlp_probes);
  m["uknet.tcp.sack_spared_segments"] = static_cast<double>(d.sack_spared);
  m["uknet.tcp.rexmit_copy_allocs"] = static_cast<double>(d.rexmit_copy_allocs);
}

void WireTotals::Add(const ukplat::Wire& wire) {
  frames += wire.frames_sent();
  bytes += wire.bytes_sent();
  drops += wire.frames_dropped();
}

WireTotals WireTotals::operator-(const WireTotals& o) const {
  return WireTotals{frames - o.frames, bytes - o.bytes, drops - o.drops};
}

void PutWireLayers(const WireTotals& d, std::size_t queue_peak,
                   std::uint64_t ops, Report* r) {
  auto& m = r->layers;
  m["ukplat.wire_frames_per_op"] = PerOp(static_cast<double>(d.frames), ops);
  m["ukplat.wire_bytes_per_op"] = PerOp(static_cast<double>(d.bytes), ops);
  m["ukplat.wire_drops"] = static_cast<double>(d.drops);
  m["ukplat.wire_queue_peak"] = static_cast<double>(queue_peak);
}

std::size_t MaxPending(const ukplat::Wire& wire) {
  std::size_t peak = 0;
  for (std::size_t p = 0; p < wire.port_count(); ++p) {
    peak = std::max(peak, wire.Pending(static_cast<int>(p)));
  }
  return peak;
}

void PutAllocLayers(const ukalloc::AllocStats& before,
                    const ukalloc::AllocStats& after, std::uint64_t ops,
                    Report* r) {
  auto& m = r->layers;
  m["ukalloc.mallocs_per_op"] =
      PerOp(static_cast<double>(after.malloc_calls - before.malloc_calls), ops);
  m["ukalloc.frees_per_op"] =
      PerOp(static_cast<double>(after.free_calls - before.free_calls), ops);
  m["ukalloc.failed_allocs"] = static_cast<double>(after.failed_allocs);
}

void PutNetDevLayers(const TracedNetDev::Counts& before,
                     const TracedNetDev::Counts& after, std::uint64_t ops,
                     Report* r) {
  auto& m = r->layers;
  const double rx_calls = static_cast<double>(after.rx_calls - before.rx_calls);
  const double tx_calls = static_cast<double>(after.tx_calls - before.tx_calls);
  const double rx_frames = static_cast<double>(after.rx_frames - before.rx_frames);
  const double tx_frames = static_cast<double>(after.tx_frames - before.tx_frames);
  m["uknetdev.rx_calls_per_op"] = PerOp(rx_calls, ops);
  m["uknetdev.rx_frames_per_call"] = rx_calls > 0 ? rx_frames / rx_calls : 0.0;
  m["uknetdev.tx_calls_per_op"] = PerOp(tx_calls, ops);
  m["uknetdev.tx_frames_per_call"] = tx_calls > 0 ? tx_frames / tx_calls : 0.0;
}

ukboot::InstanceConfig ServerInstanceConfig(const char* name,
                                            std::size_t memory_bytes) {
  const env::Profile profile = env::Profile::UnikraftKvm();
  ukboot::InstanceConfig cfg;
  cfg.name = name;
  cfg.memory_bytes = memory_bytes;
  cfg.allocator = profile.allocator;
  cfg.vmm = profile.vmm;
  cfg.enable_scheduler = false;
  cfg.nics = 1;
  return cfg;
}

std::size_t ParseRespReply(std::string_view buf, char* type, std::string_view* body) {
  const char* eol = buf.empty() ? nullptr : apps::FindCrlf(buf.data(), buf.size());
  if (eol == nullptr) {
    return 0;
  }
  const auto line = static_cast<std::size_t>(eol - buf.data());
  *type = buf[0];
  if (buf[0] != '$') {
    *body = buf.substr(1, line - 1);
    return line + 2;
  }
  long len = 0;
  std::from_chars(buf.data() + 1, eol, len);
  if (len < 0) {
    *type = 'n';
    *body = {};
    return line + 2;
  }
  const std::size_t need = line + 2 + static_cast<std::size_t>(len) + 2;
  if (buf.size() < need) {
    return 0;
  }
  *body = buf.substr(line + 2, static_cast<std::size_t>(len));
  return need;
}

std::vector<std::string> MakeKeyNames(ukarch::Xorshift& rng, std::size_t n) {
  static constexpr char kAlnum[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::vector<std::string> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string k;
    const std::uint64_t len = rng.NextInRange(4, 16);
    for (std::uint64_t j = 0; j < len; ++j) {
      k.push_back(kAlnum[rng.NextBelow(36)]);
    }
    k.push_back(':');
    char digits[16];
    auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), i, 36);
    (void)ec;
    k.append(digits, end);
    keys.push_back(std::move(k));
  }
  return keys;
}

std::string RandomBytes(std::uint64_t seed, std::size_t n) {
  ukarch::Xorshift rng(seed);
  std::string out(n, '\0');
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t r = rng.Next();
    for (std::size_t j = 0; j < 8 && i + j < n; ++j) {
      out[i + j] = static_cast<char>(r >> (8 * j));
    }
  }
  return out;
}

}  // namespace e2e
