// bench/e2e/main.cpp - ukraft_e2e, the end-to-end benchmark.
//
//   ukraft_e2e --workload <name> [--seed N] [--seconds 10] [--trace 0|1]
//              [--trace-out FILE]
//
// Each workload's measured phase is a fixed op count sized for 10 s; --seconds
// is accepted only with that value.
//
// --trace 0 sets the world up kSetupsUntraced times (setup_s is the median),
// then runs the untraced measured phase and reports the end-to-end metrics.
// Host times (host_ns_per_op, setup_s) are reported at the reference speed;
// see Reference in harness.h.
// --trace 1 runs the untraced phase once more as the reference, then rebuilds
// the world with the span decorators and reruns the same seed traced; it
// reports the per-layer metrics, prints the self-time table and the tracing
// overhead, and checks that both phases executed exactly the same modeled
// cycles. --trace-out also writes the first 100k turns' spans as Chrome
// trace-event JSON.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. The exit code is non-zero when a check failed.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "bench/e2e/harness.h"
#include "bench/e2e/tracer.h"

namespace e2e {
namespace {

struct WorkloadSpec {
  const char* name;
  std::unique_ptr<World> (*make)(const Params&);
  // Measured-phase op count, fixed so that a seed's modeled results repeat
  // exactly. Sized for an untraced phase of about kRunSeconds on a 4-vCPU
  // x86 VM.
  std::uint64_t ops;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"redis-get", MakeRedisGetWorld, 10'000'000},
    {"redis-set-aof", MakeRedisSetAofWorld, 2'700'000},
    {"kv-udp-sharded", MakeKvUdpShardedWorld, 13'000'000},
    {"fleet-churn", MakeFleetChurnWorld, 330'000},
    {"tcp-bulk-loss", MakeTcpBulkLossWorld, 34'752},  // 24 loss-schedule cycles
};

// The op counts above are sized for this measured-phase length. --seconds
// must name it: a run of another length would not be comparable.
constexpr double kRunSeconds = 10.0;
constexpr int kSetupsUntraced = 11;
constexpr double kPhaseLimitNs = 150e9;  // abort a wedged phase well inside 180 s

struct Metric {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every workload reports with --trace 0.
constexpr Metric kEndToEnd[] = {
    {"throughput_kops", "kops/s"}, {"latency_p50_us", "us"},
    {"latency_p99_us", "us"},      {"latency_p999_us", "us"},
    {"host_ns_per_op", "ns"},      {"heap_peak_kib", "KiB"},
    {"setup_s", "s"},
};

// The per-layer metrics every workload reports with --trace 1 (0 where a
// layer takes no part in the workload).
constexpr Metric kPerLayer[] = {
    {"client.self_ns_per_op", "ns/op"},
    {"client.modeled_ns_per_op", "ns/op"},
    {"client.retried_attempts", "count"},
    {"ukplat.self_ns_per_op", "ns/op"},
    {"ukplat.modeled_ns_per_op", "ns/op"},
    {"ukplat.wire_frames_per_op", "1/op"},
    {"ukplat.wire_bytes_per_op", "B/op"},
    {"ukplat.wire_drops", "count"},
    {"ukplat.wire_queue_peak", "count"},
    {"uknetdev.self_ns_per_op", "ns/op"},
    {"uknetdev.modeled_ns_per_op", "ns/op"},
    {"uknetdev.rx_calls_per_op", "1/op"},
    {"uknetdev.rx_frames_per_call", "1/call"},
    {"uknetdev.tx_calls_per_op", "1/op"},
    {"uknetdev.tx_frames_per_call", "1/call"},
    {"uknetdev.kicks_per_op", "1/op"},
    {"uknetdev.tx_pool_allocs_per_op", "1/op"},
    {"uknet.self_ns_per_op", "ns/op"},
    {"uknet.modeled_ns_per_op", "ns/op"},
    {"uknet.tcp.pure_acks_per_data_segment", "ratio"},
    {"uknet.tcp.retransmits_per_mib", "1/MiB"},
    {"uknet.tcp.fast_retransmits", "count"},
    {"uknet.tcp.rto_fires", "count"},
    {"uknet.tcp.tlp_probes", "count"},
    {"uknet.tcp.sack_spared_segments", "count"},
    {"uknet.tcp.rexmit_copy_allocs", "count"},
    {"uknet.tcp_conns_peak", "count"},
    {"uknet.rst_sent", "count"},
    {"posix.syscalls_per_op", "1/op"},
    {"apps.redis.self_ns_per_op", "ns/op"},
    {"apps.redis.modeled_ns_per_op", "ns/op"},
    {"apps.redis.commands_per_turn", "1/turn"},
    {"apps.redis.idle_turn_share", "ratio"},
    {"ukblockdev.self_ns_per_op", "ns/op"},
    {"ukblockdev.modeled_ns_per_op", "ns/op"},
    {"ukblockdev.submits_per_op", "1/op"},
    {"ukblockdev.bytes_per_op", "B/op"},
    {"apps.persist.aof_writes_per_kop", "1/kop"},
    {"apps.persist.fsyncs_per_kop", "1/kop"},
    {"apps.persist.snapshot_turns", "count"},
    {"apps.persist.cow_preimages", "count"},
    {"apps.persist.max_turn_aof_bytes", "B"},
    {"apps.persist.max_turn_snapshot_bytes", "B"},
    {"ukalloc.mallocs_per_op", "1/op"},
    {"ukalloc.frees_per_op", "1/op"},
    {"ukalloc.failed_allocs", "count"},
    {"apps.kvstore.self_ns_per_op", "ns/op"},
    {"apps.kvstore.modeled_ns_per_op", "ns/op"},
    {"apps.kvstore.ring_messages_per_op", "1/op"},
    {"apps.kvstore.cross_shard_share", "ratio"},
    {"apps.kvstore.min_queue_share", "ratio"},
    {"apps.l4_balancer.self_ns_per_op", "ns/op"},
    {"apps.l4_balancer.modeled_ns_per_op", "ns/op"},
    {"apps.l4_balancer.probes_per_flow", "1/flow"},
    {"apps.l4_balancer.fallback_steers", "count"},
    {"apps.l4_balancer.flows_failed", "count"},
    {"apps.l4_balancer.down_events", "count"},
    {"ukboot.self_ns_per_op", "ns/op"},
    {"ukboot.modeled_ns_per_op", "ns/op"},
    {"ukboot.guest_us", "us"},
    {"ukboot.stage_us.plat", "us"},
    {"ukboot.stage_us.alloc", "us"},
    {"ukboot.stage_us.sched", "us"},
    {"ukboot.stage_us.bus", "us"},
    {"ukboot.stage_us.rootfs", "us"},
    {"ukboot.stage_us.sys", "us"},
    {"ukboot.stage_us.late", "us"},
    {"ukboot.recovered_keys", "count"},
    {"trace.host_overhead_ratio", "ratio"},
    {"trace.span_coverage", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = kRunSeconds;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->seconds != kRunSeconds) {
    std::fprintf(stderr, "--seconds must be %g: the op counts are fixed and sized for it\n",
                 kRunSeconds);
    return false;
  }
  return !args->workload.empty();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Everything one phase (setups + measured run + post-run checks) produced.
struct Phase {
  std::string description;
  std::vector<std::string> errors;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t modeled_cycles = 0;
  double modeled_ns_per_op = 0.0;
  // Thread CPU time per op of the median of kSlices equal-op slices, each at
  // the reference speed; raw_host_ns_per_op is the same without that
  // scaling, and reference the loops' median speeds over the phase.
  double host_ns_per_op = 0.0;
  double raw_host_ns_per_op = 0.0;
  Reference reference;
  std::vector<double> slices;  // sorted
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  std::vector<double> setup_s;  // at the reference speed
  std::vector<double> raw_setup_s;
  std::vector<ukboot::BootReport> boots;
  Report report;
};

Phase RunPhase(const WorkloadSpec& spec, const Params& params, int setups) {
  Phase ph;
  std::unique_ptr<World> world;
  for (int i = 0; i < setups; ++i) {
    world.reset();
    const double slowdown = MeasureReference().Slowdown();
    const double t0 = WallNs();
    world = spec.make(params);
    world->Setup();
    ph.raw_setup_s.push_back((WallNs() - t0) / 1e9);
    ph.setup_s.push_back(ph.raw_setup_s.back() / slowdown);
    if (world->failed() > 0) {
      ph.errors.push_back(std::to_string(world->failed()) + " ops failed during setup");
    }
    if (!world->setup_errors().empty() || !ph.errors.empty()) {
      ph.errors.insert(ph.errors.end(), world->setup_errors().begin(),
                       world->setup_errors().end());
      return ph;
    }
  }
  World& w = *world;
  ph.description = w.Describe();
  Tracer* tracer = params.tracer;
  const std::uint64_t ops = params.ops;
  const std::uint64_t done0 = w.completed();
  const std::uint64_t failed0 = w.failed();
  // The reference runs between slices, outside their CPU time and outside
  // the traced phase; a slice is scaled by the mean of the slowdowns measured
  // at its two ends.
  Reference reference = MeasureReference();
  w.latency().Reset();
  w.BeginMeasure();
  if (tracer != nullptr) {
    tracer->Start(&w.clock());
  }
  const std::uint64_t cycles0 = w.clock().cycles();
  const double wall0 = WallNs();
  double slowdown_prev = reference.Slowdown();
  std::vector<double> cpu_ns = {reference.cpu_ns};
  std::vector<double> chase_ns = {reference.chase_ns};
  double cpu_prev = ThreadCpuNs();
  std::uint64_t done_prev = 0;
  std::vector<double> slices;
  std::vector<double> raw_slices;
  std::uint64_t turns = 0;
  std::uint64_t done = 0;
  while (done < ops) {
    if (tracer != nullptr) {
      tracer->BeginTurn();
    }
    w.Turn();
    done = w.completed() - done0;
    if (done > done_prev &&
        done * kSlices >= ops * (static_cast<std::uint64_t>(slices.size()) + 1)) {
      const double raw = (ThreadCpuNs() - cpu_prev) / static_cast<double>(done - done_prev);
      if (tracer != nullptr) {
        tracer->Pause();
      }
      reference = MeasureReference();
      if (tracer != nullptr) {
        tracer->Resume();
      }
      const double slowdown = reference.Slowdown();
      raw_slices.push_back(raw);
      slices.push_back(raw / (0.5 * (slowdown_prev + slowdown)));
      cpu_ns.push_back(reference.cpu_ns);
      chase_ns.push_back(reference.chase_ns);
      slowdown_prev = slowdown;
      cpu_prev = ThreadCpuNs();
      done_prev = done;
    }
    if ((++turns & 0xfff) == 0 && WallNs() - wall0 > kPhaseLimitNs) {
      ph.errors.push_back("measured phase exceeded its time limit");
      break;
    }
  }
  if (tracer != nullptr) {
    tracer->Stop();
  }
  w.EndMeasure();
  ph.ops = done;
  ph.failed = w.failed() - failed0;
  ph.modeled_cycles = w.clock().cycles() - cycles0;
  const ukplat::CostModel& model = w.clock().model();
  ph.modeled_ns_per_op = PerOp(model.CyclesToNs(ph.modeled_cycles), ph.ops);
  std::sort(slices.begin(), slices.end());
  ph.host_ns_per_op = Median(slices);
  ph.raw_host_ns_per_op = Median(raw_slices);
  ph.reference.cpu_ns = Median(cpu_ns);
  ph.reference.chase_ns = Median(chase_ns);
  ph.slices = slices;
  ph.p50_us = model.CyclesToNs(static_cast<std::uint64_t>(w.latency().Quantile(0.5))) / 1e3;
  ph.p99_us = model.CyclesToNs(static_cast<std::uint64_t>(w.latency().Quantile(0.99))) / 1e3;
  ph.p999_us =
      model.CyclesToNs(static_cast<std::uint64_t>(w.latency().Quantile(0.999))) / 1e3;
  w.Finish(ops, &ph.report);
  ph.errors.insert(ph.errors.end(), ph.report.errors.begin(), ph.report.errors.end());
  ph.boots = w.boots();
  return ph;
}

std::string Number(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc{} ? std::string(buf, end) : std::string("0");
}

void PrintJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<std::pair<Metric, double>>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [m, v] = metrics[i];
    out += i == 0 ? "" : ", ";
    out += "\"" + std::string(m.name) + "\": {\"value\": " + Number(v) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void PrintErrors(const char* phase, const std::vector<std::string>& errors) {
  for (const std::string& e : errors) {
    std::printf("FAIL (%s): %s\n", phase, e.c_str());
  }
}

void PrintPhase(const char* label, const Phase& ph) {
  std::printf(
      "%s: %llu ops (%llu failed), modeled %.1f ns/op, host %.1f ns/op (median "
      "of %d slices; raw %.1f ns/op, reference loops at %.3f ns and %.1f ns per "
      "step), latency p50 %.3f us p99 %.3f us p99.9 %.3f us\n",
      label, static_cast<unsigned long long>(ph.ops),
      static_cast<unsigned long long>(ph.failed), ph.modeled_ns_per_op,
      ph.host_ns_per_op, kSlices, ph.raw_host_ns_per_op, ph.reference.cpu_ns,
      ph.reference.chase_ns, ph.p50_us, ph.p99_us, ph.p999_us);
  std::printf("  setup: median %.4f s over %zu setups (raw %.4f s)\n", Median(ph.setup_s),
              ph.setup_s.size(), Median(ph.raw_setup_s));
  const std::vector<double>& s = ph.slices;  // sorted
  if (!s.empty()) {
    std::printf("  host ns/op over the slices: min %.1f p10 %.1f median %.1f p90 %.1f max %.1f\n",
                s.front(), s[s.size() / 10], s[s.size() / 2], s[9 * s.size() / 10],
                s.back());
  }
}

// Median real time per inittab class ("bus", "late", ...) over |boots|.
std::map<std::string, double> StageMedians(const std::vector<ukboot::BootReport>& boots) {
  std::map<std::string, std::vector<double>> samples;
  for (const ukboot::BootReport& b : boots) {
    std::map<std::string, double> per_class;
    for (const ukboot::BootStageTime& s : b.stages) {
      per_class[s.name.substr(0, s.name.find(':'))] += s.real_ns / 1e3;
    }
    for (const auto& [cls, us] : per_class) {
      samples[cls].push_back(us);
    }
  }
  std::map<std::string, double> out;
  for (auto& [cls, v] : samples) {
    out[cls] = Median(v);
  }
  return out;
}

int RunUntraced(const WorkloadSpec& spec, const Params& params) {
  Phase ph = RunPhase(spec, params, kSetupsUntraced);
  std::printf("config: %s\n", ph.description.c_str());
  PrintPhase("measured", ph);
  PrintErrors("untraced", ph.errors);
  const double world_ns = ph.modeled_ns_per_op + bench::kSimNormalization * ph.host_ns_per_op;
  const std::vector<std::pair<Metric, double>> metrics = {
      {kEndToEnd[0], world_ns > 0 ? 1e6 / world_ns : 0.0},
      {kEndToEnd[1], ph.p50_us},
      {kEndToEnd[2], ph.p99_us},
      {kEndToEnd[3], ph.p999_us},
      {kEndToEnd[4], ph.host_ns_per_op},
      {kEndToEnd[5], static_cast<double>(ph.report.heap_peak_bytes) / 1024.0},
      {kEndToEnd[6], Median(ph.setup_s)},
  };
  const bool correct = ph.errors.empty() && ph.failed == 0 && ph.ops >= params.ops;
  PrintJson(correct, std::max<std::uint64_t>(ph.ops, 1), ph.failed, metrics);
  return correct ? 0 : 1;
}

int RunTraced(const WorkloadSpec& spec, Params params, const std::string& trace_out) {
  const Phase base = RunPhase(spec, params, 1);
  std::printf("config: %s\n", base.description.c_str());
  PrintPhase("untraced", base);
  PrintErrors("untraced", base.errors);

  Tracer tracer(!trace_out.empty());
  params.tracer = &tracer;
  const Phase traced = RunPhase(spec, params, 1);
  PrintPhase("traced", traced);
  PrintErrors("traced", traced.errors);
  bool correct = base.errors.empty() && traced.errors.empty() && base.failed == 0 &&
                 traced.failed == 0 && traced.ops >= params.ops;
  if (traced.modeled_cycles != base.modeled_cycles) {
    std::printf("FAIL: traced phase ran %llu modeled cycles, untraced %llu\n",
                static_cast<unsigned long long>(traced.modeled_cycles),
                static_cast<unsigned long long>(base.modeled_cycles));
    correct = false;
  } else {
    std::printf("modeled cycles identical in both phases: %llu\n",
                static_cast<unsigned long long>(traced.modeled_cycles));
  }
  const double overhead =
      base.host_ns_per_op > 0 ? traced.host_ns_per_op / base.host_ns_per_op : 0.0;
  const double coverage =
      tracer.phase_ns() > 0 ? tracer.covered_ns() / tracer.phase_ns() : 0.0;
  std::printf("tracing overhead: traced host %.1f ns/op vs untraced %.1f ns/op (x%.3f)\n",
              traced.host_ns_per_op, base.host_ns_per_op, overhead);
  tracer.PrintSelfTable(stdout, traced.ops);
  if (coverage < 0.95) {
    std::printf("WARNING: spans cover only %.1f%% of the traced phase\n", coverage * 100);
  }
  if (!trace_out.empty()) {
    if (tracer.WriteChromeTrace(trace_out)) {
      std::printf("wrote Chrome trace of the first %u turns to %s\n",
                  Tracer::kRawTurnLimit, trace_out.c_str());
    } else {
      std::printf("FAIL: could not write %s\n", trace_out.c_str());
      correct = false;
    }
  }

  std::map<std::string, double> values = traced.report.layers;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const auto layer = static_cast<Layer>(i);
    const Tracer::Totals& t = tracer.totals(layer);
    const std::string name = LayerName(layer);
    values[name + ".self_ns_per_op"] = PerOp(t.self_ns, traced.ops);
    values[name + ".modeled_ns_per_op"] =
        PerOp(tracer.model().CyclesToNs(t.self_cycles), traced.ops);
  }
  std::vector<double> guest_us;
  for (const ukboot::BootReport& b : traced.boots) {
    guest_us.push_back(b.guest_us);
  }
  values["ukboot.guest_us"] = Median(guest_us);
  for (const auto& [cls, us] : StageMedians(traced.boots)) {
    values["ukboot.stage_us." + cls] = us;
  }
  values["trace.host_overhead_ratio"] = overhead;
  values["trace.span_coverage"] = coverage;

  std::vector<std::pair<Metric, double>> metrics;
  for (const Metric& m : kPerLayer) {
    auto it = values.find(m.name);
    metrics.emplace_back(m, it != values.end() ? it->second : 0.0);
  }
  PrintJson(correct, std::max<std::uint64_t>(traced.ops, 1), traced.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ukraft_e2e --workload <name> [--seed N] [--seconds 10] "
                 "[--trace 0|1] [--trace-out FILE]\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) {
      spec = &w;
    }
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  Params params;
  params.seed = args.seed;
  params.ops = spec->ops;
  std::printf("workload: %s seed %llu ops %llu trace %d\n", spec->name,
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(params.ops), args.trace ? 1 : 0);
  std::fflush(stdout);
  return args.trace ? RunTraced(*spec, params, args.trace_out)
                    : RunUntraced(*spec, params);
}
