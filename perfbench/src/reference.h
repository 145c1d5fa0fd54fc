// Independent reference for the benchmark's correctness checks. It works
// on a plain edge list and uses nothing from the library's abcore or core
// modules: a naive (α,β)-core peel, a component BFS, and a search for the
// significance f(R) by descending weight threshold.

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// One weighted edge in layer-local ids: `u` upper, `v` lower.
struct RefEdge {
  uint32_t u = 0;
  uint32_t v = 0;
  double w = 0.0;
};

/// Vertices use one id space: upper u is `u`, lower v is `num_upper + v`.
struct RefGraph {
  uint32_t num_upper = 0;
  uint32_t num_lower = 0;
  std::vector<RefEdge> edges;

  uint32_t NumVertices() const { return num_upper + num_lower; }
};

/// The connected components of one (α,β)-core.
struct RefCores {
  uint32_t alpha = 0;
  uint32_t beta = 0;
  /// Component id per vertex, or kNone outside the core.
  std::vector<uint32_t> comp;
  /// Edge count per component.
  std::vector<uint32_t> comp_edges;
  static constexpr uint32_t kNone = UINT32_MAX;

  /// |C_{α,β}(x)|: the edge count of x's community, 0 outside the core.
  uint32_t CommunityEdges(uint32_t x) const {
    return comp[x] == kNone ? 0 : comp_edges[comp[x]];
  }
};

RefCores RefCoreComponents(const RefGraph& g, uint32_t alpha, uint32_t beta);

/// The significant (α,β)-community R of x: the largest threshold w such
/// that x survives in the (α,β)-core of C's edges of weight ≥ w; R is x's
/// component there and f(R) its minimum weight.
struct RefScs {
  bool found = false;
  uint32_t result_edges = 0;
  double significance = 0.0;
};

RefScs RefSignificant(const RefGraph& g, const RefCores& cores, uint32_t x);

/// Checks the reference on small graphs whose answers are worked out by
/// hand. Returns the number of checks made; `*failures` gets one line per
/// wrong answer.
int RefSelfCheck(std::vector<std::string>* failures);

/// The benchmark's own copy of a graph under updates: the edge set keyed
/// by (u, v), with dense positions for uniform sampling.
class RefEdgeSet {
 public:
  explicit RefEdgeSet(const RefGraph& g);

  bool Contains(uint32_t u, uint32_t v) const;
  /// Inserts a new edge; false if it already exists.
  bool Insert(uint32_t u, uint32_t v, double w);
  /// Removes an edge; false if absent.
  bool Remove(uint32_t u, uint32_t v);
  /// Sets an existing edge's weight; false if absent.
  bool Reweight(uint32_t u, uint32_t v, double w);
  std::size_t size() const { return edges_.size(); }
  const RefEdge& at(std::size_t i) const { return edges_[i]; }
  RefGraph Graph() const;

 private:
  static uint64_t Key(uint32_t u, uint32_t v) {
    return (static_cast<uint64_t>(u) << 32) | v;
  }
  uint32_t num_upper_;
  uint32_t num_lower_;
  std::vector<RefEdge> edges_;
  std::unordered_map<uint64_t, std::size_t> pos_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
