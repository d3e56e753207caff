// analysis/linux_depgraph.h - the Linux kernel component dependency graph of
// Fig 1, as structured data plus the metrics the paper draws from it.
//
// The paper extracted cross-component function calls with cscope over the
// kernel tree. We embed the weighted edge list their Fig 1 annotates, and run
// the same analytics (edge counts, density, coupling per component) that
// motivate "removing or replacing any single component ... is a daunting
// task". Our own Figs 2/3 graphs come live from ukbuild::Linker::Graph and
// are compared against these numbers by bench/fig01* and tests.
#ifndef ANALYSIS_LINUX_DEPGRAPH_H_
#define ANALYSIS_LINUX_DEPGRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace analysis {

struct WeightedEdge {
  std::string from;
  std::string to;
  std::uint32_t calls;  // cross-component function calls
};

struct ComponentGraph {
  std::vector<std::string> components;
  std::vector<WeightedEdge> edges;

  std::uint64_t TotalCalls() const;
  std::size_t EdgePairs() const { return edges.size(); }
  // Fraction of ordered component pairs that have at least one dependency.
  double Density() const;
  // Sum of in+out call weights for |component| (how hard it is to remove).
  std::uint64_t Coupling(const std::string& component) const;
};

// Fig 1's graph: 12 kernel components, cscope-derived call counts.
const ComponentGraph& LinuxKernelGraph();

}  // namespace analysis

#endif  // ANALYSIS_LINUX_DEPGRAPH_H_
