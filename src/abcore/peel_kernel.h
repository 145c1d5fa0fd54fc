#ifndef ABCS_ABCORE_PEEL_KERNEL_H_
#define ABCS_ABCORE_PEEL_KERNEL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <ranges>
#include <utility>
#include <vector>

#include "core/cancel.h"
#include "graph/bipartite_graph.h"

namespace abcs {

/// \brief The shared peeling kernels. Every peel loop in the library —
/// (α,β)-core peels, offset/level decompositions, k-core numbers, scoped
/// index maintenance, and the weight-filtered SCS peels — is one of the two
/// shapes below, parameterised over an adjacency functor so the same code
/// runs on `BipartiteGraph` CSR arcs, the maintenance adjacency lists and
/// the SCS `LocalGraph` (with caller-side edge-alive bookkeeping).
///
/// `for_each(v, visit)` must call `visit(w)` once for every *countable*
/// neighbour `w` of `v` — the functor owns any filtering (scope, edge
/// weight, edge liveness) and any side effects of deleting the arc.
/// The kernels own `deg`/`alive`: `deg[v]` is the countable degree of `v`,
/// kept exact for alive vertices; `alive[v]` flips to 0 exactly once, at
/// removal time, before `on_remove` fires.

/// \brief Cascade peel to per-vertex degree thresholds (Definition 1
/// generalised): repeatedly remove alive vertices with
/// `deg[v] < threshold(v)` until a fixed point. O(m) — every arc is visited
/// at most once from each side.
///
/// The seed scan covers `vertices` only; every alive vertex violating its
/// threshold must appear there (cascades then reach any vertex through the
/// adjacency). Incremental callers — e.g. the nested-core decomposition
/// tightening the (τ,1)-core to the (τ+1,1)-core — pass the surviving
/// frontier instead of re-scanning all of [0, n).
///
/// `cancel` (optional) is ticked once per seed-scan vertex and once per
/// cascaded arc; an armed stop abandons the peel mid-fixed-point, leaving
/// `deg`/`alive` in a torn state the caller must discard (the query paths
/// re-assign both per query, so abandonment is free).
template <typename VertexRange, typename ForEachNeighbor, typename Threshold,
          typename OnRemove>
void ThresholdPeelRange(const VertexRange& vertices,
                        std::vector<uint32_t>& deg,
                        std::vector<uint8_t>& alive,
                        ForEachNeighbor&& for_each, Threshold&& threshold,
                        OnRemove&& on_remove,
                        std::vector<VertexId>* queue_storage = nullptr,
                        CancelToken* cancel = nullptr) {
  // Callers on an allocation-free steady state (QueryScratch) lend the
  // work-queue buffer; everyone else gets a local one.
  std::vector<VertexId> local_queue;
  std::vector<VertexId>& queue = queue_storage ? *queue_storage : local_queue;
  queue.clear();
  queue.reserve(64);
  for (const VertexId v : vertices) {
    if (cancel != nullptr && cancel->Tick()) return;
    if (alive[v] && deg[v] < threshold(v)) {
      alive[v] = 0;
      queue.push_back(v);
    }
  }
  while (!queue.empty()) {
    if (cancel != nullptr && cancel->Stopped()) return;
    const VertexId v = queue.back();
    queue.pop_back();
    on_remove(v);
    for_each(v, [&](VertexId w) {
      if (cancel != nullptr) cancel->Tick();
      if (!alive[w]) return;
      if (--deg[w] < threshold(w)) {
        alive[w] = 0;
        queue.push_back(w);
      }
    });
  }
}

/// Whole-graph form: seeds from every vertex in [0, num_vertices).
template <typename ForEachNeighbor, typename Threshold, typename OnRemove>
void ThresholdPeel(uint32_t num_vertices, std::vector<uint32_t>& deg,
                   std::vector<uint8_t>& alive, ForEachNeighbor&& for_each,
                   Threshold&& threshold, OnRemove&& on_remove,
                   std::vector<VertexId>* queue_storage = nullptr,
                   CancelToken* cancel = nullptr) {
  ThresholdPeelRange(std::views::iota(VertexId{0}, num_vertices), deg, alive,
                     std::forward<ForEachNeighbor>(for_each),
                     std::forward<Threshold>(threshold),
                     std::forward<OnRemove>(on_remove), queue_storage, cancel);
}

/// \brief Lent working storage for `LevelPeeler`: the degree bucket queue
/// and the cascade stack. A caller that runs many peels (scoped index
/// maintenance, the per-τ ranked peels of the nested-core decomposition)
/// keeps one instance and stops paying an O(max_degree) bucket-vector
/// allocation per peel; capacity is retained across uses.
struct LevelPeelScratch {
  std::vector<std::vector<VertexId>> buckets;
  std::vector<VertexId> cascade;
  /// Buckets [0, used) may hold stale entries from the previous peel;
  /// everything beyond is clean. Lets the next peel reset only what the
  /// last one touched — a small scoped peel after one huge peel must not
  /// pay an O(max degree) bucket sweep forever after.
  std::size_t used = 0;
};

/// \brief Level-wise bucket-queue peel: degree buckets with lazy re-push on
/// decrement, no per-level rescans. O(m + max_level) total.
///
/// Vertices come in two roles decided by `is_fixed`:
///  - *fixed* vertices must keep `deg ≥ fixed_need` at all times;
///  - *ranked* vertices die level by level — at level L every alive ranked
///    vertex with `deg ≤ L` is removed (with full cascade through both
///    roles), so a ranked vertex's removal level is its offset / core
///    number.
/// `on_remove(v, level)` fires once per vertex; level 0 covers the initial
/// peel to the base constraint (fixed: `fixed_need`, ranked: degree ≥ 1).
///
/// With `is_fixed ≡ false` this is exactly the bucket k-core algorithm
/// (removal level = core number); with `is_fixed = IsUpper` (resp. lower)
/// and `fixed_need = α` (resp. β) it computes β-offsets at fixed α (resp.
/// α-offsets at fixed β), Definition 6.
///
/// Driving sequence: `Start(vertices)` once, then `RunLevel(level)` for
/// `level = 1, 2, …` strictly increasing; `Decrement` may be interleaved
/// (between or after `RunLevel` calls at the current level) for external
/// degree-support changes, e.g. boundary expiries in scoped maintenance.
template <typename ForEachNeighbor, typename IsFixed, typename OnRemove>
class LevelPeeler {
 public:
  /// `deg`/`alive` are caller-owned and must be consistent on entry:
  /// `deg[v]` = countable degree of every alive vertex. `max_level` bounds
  /// both the ranked degrees and every level later passed in. A non-null
  /// `scratch` lends the bucket/cascade storage (reset here, capacity
  /// kept) so repeated peels allocate nothing in steady state.
  LevelPeeler(std::vector<uint32_t>& deg, std::vector<uint8_t>& alive,
              uint32_t fixed_need, uint32_t max_level,
              ForEachNeighbor for_each, IsFixed is_fixed, OnRemove on_remove,
              LevelPeelScratch* scratch = nullptr)
      : deg_(deg),
        alive_(alive),
        fixed_need_(fixed_need),
        for_each_(std::move(for_each)),
        is_fixed_(std::move(is_fixed)),
        on_remove_(std::move(on_remove)),
        scratch_(scratch ? scratch : &owned_scratch_),
        buckets_(scratch_->buckets),
        cascade_(scratch_->cascade) {
    // An early-terminated previous peel (alive_count hit 0) can leave
    // stale entries behind; reset exactly the slots it may have dirtied
    // (its `used` watermark), never the whole historical capacity.
    const std::size_t need = static_cast<std::size_t>(max_level) + 2;
    if (buckets_.size() < need) buckets_.resize(need);
    const std::size_t dirty = std::min(scratch_->used, buckets_.size());
    for (std::size_t i = 0; i < dirty; ++i) buckets_[i].clear();
    scratch_->used = need;
    cascade_.clear();
  }

  /// Runs the level-0 peel over `vertices` (every alive vertex that fails
  /// its base constraint, with cascade), then buckets the ranked survivors
  /// by degree. `vertices` must cover every alive vertex.
  template <typename VertexRange>
  uint32_t Start(const VertexRange& vertices) {
    for (const VertexId v : vertices) {
      if (alive_[v]) ++alive_count_;
    }
    for (const VertexId v : vertices) {
      if (!alive_[v]) continue;
      const uint32_t need = is_fixed_(v) ? fixed_need_ : 1;
      if (deg_[v] < need) Remove(v, 0);
    }
    Cascade(0);
    for (const VertexId v : vertices) {
      if (alive_[v] && !is_fixed_(v)) buckets_[deg_[v]].push_back(v);
    }
    return alive_count_;
  }

  /// Removes every ranked vertex at exactly this level (stale lazy entries
  /// are skipped), cascading each removal.
  void RunLevel(uint32_t level) {
    std::vector<VertexId>& bucket = buckets_[level];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const VertexId v = bucket[i];
      if (!alive_[v] || deg_[v] != level) continue;
      Remove(v, level);
      Cascade(level);
    }
    bucket.clear();
  }

  /// External degree decrement of `v` attributed to `level` (e.g. a
  /// boundary support expiring in scoped maintenance), cascading if `v`
  /// falls below its constraint.
  void Decrement(VertexId v, uint32_t level) {
    if (!alive_[v]) return;
    --deg_[v];
    if (Violates(v, level)) {
      Remove(v, level);
      Cascade(level);
    } else if (!is_fixed_(v)) {
      buckets_[deg_[v]].push_back(v);
    }
  }

  uint32_t alive_count() const { return alive_count_; }

 private:
  bool Violates(VertexId v, uint32_t level) const {
    return is_fixed_(v) ? deg_[v] < fixed_need_ : deg_[v] <= level;
  }

  void Remove(VertexId v, uint32_t level) {
    alive_[v] = 0;
    on_remove_(v, level);
    cascade_.push_back(v);
  }

  void Cascade(uint32_t level) {
    while (!cascade_.empty()) {
      const VertexId x = cascade_.back();
      cascade_.pop_back();
      --alive_count_;
      for_each_(x, [&](VertexId w) {
        if (!alive_[w]) return;
        --deg_[w];
        if (Violates(w, level)) {
          Remove(w, level);
        } else if (!is_fixed_(w)) {
          buckets_[deg_[w]].push_back(w);
        }
      });
    }
  }

  std::vector<uint32_t>& deg_;
  std::vector<uint8_t>& alive_;
  const uint32_t fixed_need_;
  ForEachNeighbor for_each_;
  IsFixed is_fixed_;
  OnRemove on_remove_;
  LevelPeelScratch owned_scratch_;
  LevelPeelScratch* scratch_;
  std::vector<std::vector<VertexId>>& buckets_;
  std::vector<VertexId>& cascade_;
  uint32_t alive_count_ = 0;
};

/// Adjacency functor over `BipartiteGraph` CSR arcs (the common case).
inline auto GraphNeighbors(const BipartiteGraph& g) {
  return [&g](VertexId v, auto&& visit) {
    for (const Arc& a : g.Neighbors(v)) visit(a.to);
  };
}

}  // namespace abcs

#endif  // ABCS_ABCORE_PEEL_KERNEL_H_
