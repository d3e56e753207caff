#include "analysis/linux_depgraph.h"

namespace analysis {

std::uint64_t ComponentGraph::TotalCalls() const {
  std::uint64_t sum = 0;
  for (const WeightedEdge& e : edges) {
    sum += e.calls;
  }
  return sum;
}

double ComponentGraph::Density() const {
  if (components.size() < 2) {
    return 0.0;
  }
  double pairs = static_cast<double>(components.size()) *
                 static_cast<double>(components.size() - 1);
  return static_cast<double>(edges.size()) / pairs;
}

std::uint64_t ComponentGraph::Coupling(const std::string& component) const {
  std::uint64_t sum = 0;
  for (const WeightedEdge& e : edges) {
    if (e.from == component || e.to == component) {
      sum += e.calls;
    }
  }
  return sum;
}

const ComponentGraph& LinuxKernelGraph() {
  // Weighted edges transcribed from the paper's Fig 1 annotations (cscope
  // cross-component call counts between kernel source subdirectories).
  static const ComponentGraph kGraph = {
      {"fs", "time", "mm", "sched", "net", "block", "locking", "security", "irq",
       "ipc", "crypto", "pid"},
      {
          {"fs", "time", 90},      {"fs", "mm", 277},      {"fs", "sched", 111},
          {"fs", "net", 311},      {"fs", "block", 95},    {"fs", "locking", 13},
          {"fs", "security", 14},  {"fs", "irq", 23},      {"fs", "ipc", 3},
          {"mm", "fs", 77},        {"mm", "time", 37},     {"mm", "sched", 151},
          {"mm", "block", 110},    {"mm", "locking", 1},   {"mm", "security", 2},
          {"mm", "irq", 4},        {"sched", "mm", 213},   {"sched", "time", 15},
          {"sched", "locking", 53},{"sched", "irq", 2},    {"sched", "fs", 28},
          {"net", "fs", 6},        {"net", "mm", 22},      {"net", "sched", 207},
          {"net", "time", 101},    {"net", "security", 36},{"net", "locking", 16},
          {"net", "irq", 8},       {"net", "ipc", 2},      {"block", "mm", 91},
          {"block", "sched", 551}, {"block", "time", 107}, {"block", "fs", 465},
          {"block", "locking", 60},{"block", "irq", 11},   {"block", "ipc", 5},
          {"time", "sched", 7},    {"time", "irq", 27},    {"irq", "sched", 720},
          {"irq", "time", 68},     {"irq", "locking", 46}, {"irq", "mm", 36},
          {"irq", "fs", 25},       {"ipc", "mm", 2},       {"ipc", "fs", 10},
          {"ipc", "sched", 164},   {"ipc", "time", 24},    {"ipc", "security", 30},
          {"locking", "sched", 117},{"locking", "time", 8},{"security", "fs", 7},
          {"security", "mm", 119}, {"security", "net", 226},{"security", "sched", 3},
          {"crypto", "mm", 122},   {"crypto", "sched", 191},{"crypto", "time", 24},
          {"crypto", "fs", 6},     {"pid", "sched", 4},    {"pid", "mm", 10},
          {"pid", "fs", 17},       {"pid", "time", 67},    {"pid", "irq", 11},
          {"pid", "locking", 6},   {"pid", "security", 39},{"pid", "ipc", 1},
      },
  };
  return kGraph;
}

}  // namespace analysis
