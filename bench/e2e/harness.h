// bench/e2e/harness.h - measurement plumbing shared by the workloads of the
// end-to-end benchmark: the World interface every workload implements, the
// modeled-latency histogram, and the host clocks.
//
// Time base. Modeled time is the virtual cycles the code charges to the
// world's ukplat::Clock; it is deterministic for a seed. Host time is the
// thread CPU time of the measured phase. They meet only through
// bench::kSimNormalization (world ns/op = modeled ns/op + 0.10 x host ns/op),
// the convention every figure bench uses.
#ifndef BENCH_E2E_HARNESS_H_
#define BENCH_E2E_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench/e2e/traced_devices.h"
#include "bench/e2e/tracer.h"
#include "ukalloc/allocator.h"
#include "ukarch/random.h"
#include "ukboot/instance.h"
#include "uknet/stack.h"
#include "ukplat/clock.h"
#include "ukplat/wire.h"

namespace e2e {

// Log-linear histogram of modeled latencies in cycles: exact below 2048, then
// 1024 sub-buckets per power of two, so a bucket is at most 1/1024 (< 0.1%)
// of its values wide.
class LatencyHistogram {
 public:
  // A failed op misses every latency limit: it is recorded at this value
  // (about five minutes of modeled time).
  static constexpr std::uint64_t kMissCycles = 1ull << 40;

  LatencyHistogram();
  void Record(std::uint64_t cycles);
  // Cycles at quantile |q|, interpolated linearly inside its bucket.
  double Quantile(double q) const;
  void Reset();

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

double ThreadCpuNs();  // CLOCK_THREAD_CPUTIME_ID
double WallNs();       // steady clock

// Host time drifts with the load other tenants put on a shared host, which
// the guest cannot see. Two fixed loops measure how fast the machine runs
// right now: a chain of dependent multiply-adds in registers (clock speed),
// and a pointer chase through an 8 MiB buffer, timed on its second pass
// (how much of the cache the neighbours leave us; the first pass reloads the
// buffer, so what the workload left in the caches cannot move it). Host
// times are reported at the reference speed: measured ns / Slowdown() of a
// reference taken next to the interval (README.md, "Time base").
struct Reference {
  // Typical speeds of the loops on a 4-vCPU x86 VM.
  static constexpr double kCpuNs = 1.30;
  static constexpr double kChaseNs = 120.0;

  double cpu_ns = kCpuNs;      // per multiply-add
  double chase_ns = kChaseNs;  // per pointer-chase step

  // How many times slower than the reference speed the machine runs: the
  // geometric mean of both loops' slowdowns.
  double Slowdown() const;
};
Reference MeasureReference();  // about 30 ms

// Inputs of one world. The seed drives every generated input; the program
// under test only sees what the generator sends it.
struct Params {
  std::uint64_t seed = 1;
  std::uint64_t ops = 0;     // measured-phase op count
  Tracer* tracer = nullptr;  // null in the untraced phase
};

// Facts a world reports after its measured phase, besides latency.
struct Report {
  std::vector<std::string> errors;  // correctness violations
  std::uint64_t heap_peak_bytes = 0;
  // Per-layer counts from public stats, by metric name (see main.cpp).
  std::map<std::string, double> layers;
};

// One simulated world: hosts, wires, NICs, stacks and the server unikernel,
// plus the closed-loop load generator. Everything runs inline on the calling
// thread; Turn() pumps every component once.
class World {
 public:
  virtual ~World() = default;

  // The configuration line printed before the run.
  virtual std::string Describe() const = 0;
  // Boots, preloads, connects and warms up. Failures go to setup_errors().
  virtual void Setup() = 0;
  virtual void Turn() = 0;
  // Stops issuing, drains outstanding ops, runs the post-run checks and
  // collects the per-layer counts of the measured phase.
  virtual void Finish(std::uint64_t ops, Report* report) = 0;
  virtual ukplat::Clock& clock() = 0;

  // Snapshots the counters the per-layer metrics are deltas of, then
  // records latency until EndMeasure().
  void BeginMeasure() {
    SnapshotCounters();
    measuring_ = true;
  }
  void EndMeasure() { measuring_ = false; }

  std::uint64_t completed() const { return completed_; }
  std::uint64_t failed() const { return failed_; }
  LatencyHistogram& latency() { return latency_; }
  const std::vector<ukboot::BootReport>& boots() const { return boots_; }
  const std::vector<std::string>& setup_errors() const { return setup_errors_; }

 protected:
  virtual void SnapshotCounters() = 0;

  // An op issued at modeled cycle |issued| finished now.
  void OpDone(std::uint64_t issued, bool ok) {
    ++completed_;
    if (!ok) {
      ++failed_;
    }
    if (measuring_) {
      latency_.Record(ok ? clock().cycles() - issued
                         : LatencyHistogram::kMissCycles);
    }
  }
  // Records a boot; |sample| boots feed the ukboot.* per-layer metrics.
  void NoteBoot(const ukboot::BootReport& report, bool sample = true) {
    if (!report.ok) {
      setup_errors_.push_back("boot failed: " + report.error);
      return;
    }
    if (sample) {
      boots_.push_back(report);
    }
  }
  // Cold-boots the server unikernel once; false when the boot failed.
  bool BootServer(ukboot::Instance& inst) {
    NoteBoot(inst.Boot());
    return inst.booted();
  }

  bool issuing_ = true;  // the generator starts new ops only while set
  std::vector<std::string> setup_errors_;

 private:
  bool measuring_ = false;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  LatencyHistogram latency_;
  std::vector<ukboot::BootReport> boots_;
};

// The measured phase is cut into this many slices of equal op counts;
// host_ns_per_op is the median slice. fleet-churn kills one backend per slice,
// so every slice holds the same periodic failover work.
inline constexpr int kSlices = 20;

// Pumps |world| until |done| holds; false when |max_turns| ran out.
template <typename Pred>
bool TurnUntil(World& world, Pred done, std::uint64_t max_turns) {
  for (std::uint64_t i = 0; i < max_turns; ++i) {
    if (done()) {
      return true;
    }
    world.Turn();
  }
  return done();
}

// ---- per-layer count helpers ------------------------------------------------------

inline double PerOp(double delta, std::uint64_t ops) {
  return ops > 0 ? delta / static_cast<double>(ops) : 0.0;
}

// TcpStats summed over the sockets the load generator owns.
struct TcpTotals {
  std::uint64_t data_segments = 0;
  std::uint64_t pure_acks = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t rto_fires = 0;
  std::uint64_t tlp_probes = 0;
  std::uint64_t sack_spared = 0;
  std::uint64_t rexmit_copy_allocs = 0;

  void Add(const uknet::TcpSocket::TcpStats& s);
  TcpTotals operator-(const TcpTotals& o) const;
};
// Fills the uknet.tcp.* metrics; |payload_bytes| is what the generator's
// sockets were handed to send over the same interval.
void PutTcpLayers(const TcpTotals& delta, std::uint64_t payload_bytes,
                  Report* report);

// Wire counters over an interval (ukplat.* metrics).
struct WireTotals {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t drops = 0;

  void Add(const ukplat::Wire& wire);
  WireTotals operator-(const WireTotals& o) const;
};
void PutWireLayers(const WireTotals& delta, std::size_t queue_peak,
                   std::uint64_t ops, Report* report);
// Deepest RX queue over every port of |wire| right now.
std::size_t MaxPending(const ukplat::Wire& wire);

// Server-heap activity over an interval (ukalloc.* metrics).
void PutAllocLayers(const ukalloc::AllocStats& before,
                    const ukalloc::AllocStats& after, std::uint64_t ops,
                    Report* report);

// NIC burst counts over an interval (uknetdev.* call/frame metrics).
void PutNetDevLayers(const TracedNetDev::Counts& before,
                     const TracedNetDev::Counts& after, std::uint64_t ops,
                     Report* report);

// A deterministic stream of filler bytes that values and messages are cut
// from, so generating an op costs a slice, not a fresh random buffer.
std::string RandomBytes(std::uint64_t seed, std::size_t n);

// One complete RESP reply at the front of |buf|. Sets |*type| ('+', '-',
// ':', '$', or 'n' for a nil bulk) and |*body| (bulk payload, or the line
// after the type byte) and returns the bytes it spans; 0 while incomplete.
std::size_t ParseRespReply(std::string_view buf, char* type, std::string_view* body);

// Seeded key names: a random alphanumeric prefix of 4-16 bytes plus the key
// index in base 36, so names vary in length and never collide.
std::vector<std::string> MakeKeyNames(ukarch::Xorshift& rng, std::size_t n);

// The server unikernel of every workload but fleet-churn: the unikraft-kvm
// profile's allocator and VMM, one NIC, run to completion (no scheduler —
// every pump runs inline on the benchmark's one thread).
ukboot::InstanceConfig ServerInstanceConfig(const char* name,
                                            std::size_t memory_bytes);

// Workload factories (one per workload source file).
std::unique_ptr<World> MakeRedisGetWorld(const Params& params);
std::unique_ptr<World> MakeRedisSetAofWorld(const Params& params);
std::unique_ptr<World> MakeKvUdpShardedWorld(const Params& params);
std::unique_ptr<World> MakeFleetChurnWorld(const Params& params);
std::unique_ptr<World> MakeTcpBulkLossWorld(const Params& params);

}  // namespace e2e

#endif  // BENCH_E2E_HARNESS_H_
