#ifndef ABCS_CORE_BICORE_INDEX_H_
#define ABCS_CORE_BICORE_INDEX_H_

#include <cstdint>
#include <vector>

#include "abcore/offsets.h"
#include "core/query_scratch.h"
#include "core/query_stats.h"
#include "core/subgraph.h"
#include "graph/bipartite_graph.h"
#include "io/arena_storage.h"

namespace abcs {

struct BundleAccess;

/// \brief The bicore index `I_v` (Liu et al., WWW'19 — the paper's [15]):
/// vertex-only (α,β)-core membership, organised by the degeneracy bound.
///
/// For every τ ∈ [1, δ] it stores the vertices of the (τ,1)-core sorted by
/// decreasing α-offset and the vertices of the (1,τ)-core sorted by
/// decreasing β-offset, so `V(R_{α,β})` is a prefix of one of the lists and
/// is retrieved in optimal O(|V(R_{α,β})|) time.
///
/// Because only vertex membership is stored, retrieving the
/// *(α,β)-community* (`Qv`, see `QueryCommunity`) must BFS over the
/// original graph and inspect arcs that leave the community — this is the
/// non-optimality the paper's `I_δ` removes.
class BicoreIndex {
 public:
  BicoreIndex() = default;

  /// Builds the index in O(δ·m). If `decomp` is non-null it is used instead
  /// of recomputing the offset table (benches share one decomposition
  /// across index builds); otherwise the 2δ offset peels run on
  /// `num_threads` workers (1 = serial, 0 = hardware concurrency; identical
  /// result). The graph must outlive the index.
  static BicoreIndex Build(const BipartiteGraph& g,
                           const BicoreDecomposition* decomp = nullptr,
                           unsigned num_threads = 1);

  /// Degeneracy of the indexed graph.
  uint32_t delta() const { return delta_; }

  /// Vertex set of the (α,β)-core, in O(|V(R_{α,β})|). Empty when the core
  /// is empty (in particular whenever min(α,β) > δ).
  std::vector<VertexId> QueryCoreVertices(uint32_t alpha, uint32_t beta,
                                          QueryStats* stats = nullptr) const;

  /// `Qv`: the (α,β)-community of `q`, via core vertex retrieval plus BFS
  /// over the graph restricted to core vertices.
  Subgraph QueryCommunity(VertexId q, uint32_t alpha, uint32_t beta,
                          QueryStats* stats = nullptr) const;

  /// Scratch-backed `Qv`: identical result with zero steady-state heap
  /// allocations. Rejects `q` *before* materialising any core state: an
  /// O(1) degree bound, then binary searches over the equal-offset runs of
  /// the sorted entry list — so a rejected query costs O(r·log n) (r =
  /// distinct offsets above the threshold) instead of the old O(n)
  /// `in_core` array build. Accepted queries stamp the core prefix into
  /// `scratch` in O(|V(R_{α,β})|).
  void QueryCommunity(VertexId q, uint32_t alpha, uint32_t beta,
                      QueryScratch& scratch, Subgraph* out,
                      QueryStats* stats = nullptr) const;

  /// Bytes used by the index payload (Fig. 11).
  std::size_t MemoryBytes() const;

  /// Array-wise equality of the payload (δ and both sides), whatever the
  /// graph object or storage ownership behind it.
  friend bool operator==(const BicoreIndex& a, const BicoreIndex& b) {
    return a.delta_ == b.delta_ && a.alpha_side_ == b.alpha_side_ &&
           a.beta_side_ == b.beta_side_;
  }

 private:
  struct Entry {
    VertexId v;
    uint32_t offset;  ///< s_a(v,τ) or s_b(v,τ)

    friend bool operator==(const Entry&, const Entry&) = default;
  };

  /// One side of the index in arena form (the layout `DeltaIndex::Half`
  /// already uses): the δ per-τ entry lists concatenated into one flat
  /// array behind a start table, so the whole side is two allocations and
  /// a query's prefix scan is one contiguous sweep.
  /// `List(τ)` = entries[start[τ-1] .. start[τ]): vertices with offset ≥ 1
  /// at τ, sorted by (offset desc, v asc). Arrays in `ArenaStorage`: owned
  /// by Build, or borrowed from an opened bundle (io/index_bundle.h).
  struct SideArena {
    ArenaStorage<uint32_t> start;  ///< size δ+1
    ArenaStorage<Entry> entries;

    const Entry* ListBegin(uint32_t tau) const {
      return entries.data() + start[tau - 1];
    }
    const Entry* ListEnd(uint32_t tau) const {
      return entries.data() + start[tau];
    }
    std::size_t Bytes() const {
      return start.size() * sizeof(uint32_t) +
             entries.size() * sizeof(Entry);
    }
    friend bool operator==(const SideArena&, const SideArena&) = default;
  };

  /// True iff `q` appears in [first, last) with offset ≥ `need`, i.e. q is
  /// in the queried core. The list is sorted by (offset desc, v asc);
  /// within the qualifying prefix each equal-offset run is binary searched
  /// for q.
  static bool CoreContains(const Entry* first, const Entry* last,
                           uint32_t need, VertexId q);

  /// Fills one side arena from the matching decomposition arena by a
  /// counting sort in Σ_v Levels(v) time plus one counter per (τ, offset)
  /// — no δ·n sweep and no comparison sort.
  static void BuildSide(const OffsetArena& offsets, uint32_t delta,
                        SideArena* side);

  friend struct BundleAccess;

  const BipartiteGraph* graph_ = nullptr;
  uint32_t delta_ = 0;
  SideArena alpha_side_;  ///< per-τ lists of s_a(·,τ)
  SideArena beta_side_;   ///< per-τ lists of s_b(·,τ)
};

}  // namespace abcs

#endif  // ABCS_CORE_BICORE_INDEX_H_
