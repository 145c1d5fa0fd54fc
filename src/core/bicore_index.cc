#include "core/bicore_index.h"

#include <algorithm>

namespace abcs {

/// Builds one side arena from the matching decomposition arena with one
/// counting sort: each list τ is a run of buckets, one per offset from
/// the level's largest down to 0, filled in increasing v — the lists'
/// (offset desc, v asc) order with no comparison sort. Three sweeps over
/// the Σ_v Levels(v) stored offsets (level maxima, counts, fill) plus the
/// bucket table, Σ_τ (max offset at τ + 1) ≤ δ·(max degree + 1) counters.
void BicoreIndex::BuildSide(const OffsetArena& offsets, uint32_t delta,
                            SideArena* side) {
  const uint32_t n =
      static_cast<uint32_t>(offsets.start.empty() ? 0
                                                  : offsets.start.size() - 1);
  const uint32_t* values = offsets.values.data();
  // bucket_base[τ-1]: the first bucket of level τ, which holds offset
  // top[τ]; the bucket of (τ, o) is bucket_base[τ-1] + top[τ] - o.
  std::vector<uint32_t> top(delta + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t base = offsets.start[v];
    const uint32_t levels = offsets.Levels(v);
    for (uint32_t tau = 1; tau <= levels; ++tau) {
      top[tau] = std::max(top[tau], values[base + tau - 1]);
    }
  }
  std::vector<std::size_t> bucket_base(delta + 1, 0);
  for (uint32_t tau = 1; tau <= delta; ++tau) {
    bucket_base[tau] = bucket_base[tau - 1] + top[tau] + 1;
  }
  std::vector<uint32_t> cursor(bucket_base[delta] + 1, 0);
  const auto bucket = [&](uint32_t tau, uint32_t offset) {
    return bucket_base[tau - 1] + top[tau] - offset;
  };
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t base = offsets.start[v];
    const uint32_t levels = offsets.Levels(v);
    for (uint32_t tau = 1; tau <= levels; ++tau) {
      ++cursor[bucket(tau, values[base + tau - 1]) + 1];
    }
  }
  for (std::size_t b = 1; b < cursor.size(); ++b) cursor[b] += cursor[b - 1];

  std::vector<uint32_t>& start = side->start.Mutable();
  start.assign(delta + 1, 0);
  for (uint32_t tau = 1; tau <= delta; ++tau) {
    start[tau] = cursor[bucket_base[tau]];
  }
  std::vector<Entry>& entries = side->entries.Mutable();
  entries.resize(start[delta]);
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t base = offsets.start[v];
    const uint32_t levels = offsets.Levels(v);
    for (uint32_t tau = 1; tau <= levels; ++tau) {
      const uint32_t o = values[base + tau - 1];
      entries[cursor[bucket(tau, o)]++] = Entry{v, o};
    }
  }
}

BicoreIndex BicoreIndex::Build(const BipartiteGraph& g,
                               const BicoreDecomposition* decomp,
                               unsigned num_threads) {
  BicoreDecomposition local;
  if (decomp == nullptr) {
    local = ComputeBicoreDecompositionParallel(g, num_threads);
    decomp = &local;
  }

  BicoreIndex index;
  index.graph_ = &g;
  index.delta_ = decomp->delta;
  BuildSide(decomp->alpha, decomp->delta, &index.alpha_side_);
  BuildSide(decomp->beta, decomp->delta, &index.beta_side_);
  return index;
}

std::vector<VertexId> BicoreIndex::QueryCoreVertices(
    uint32_t alpha, uint32_t beta, QueryStats* stats) const {
  std::vector<VertexId> out;
  if (alpha == 0 || beta == 0) return out;
  const uint32_t tau = std::min(alpha, beta);
  if (tau > delta_) return out;

  // Prefix of the side indexed by min(α,β), thresholded by the other value.
  const bool use_alpha_side = alpha <= beta;
  const SideArena& side = use_alpha_side ? alpha_side_ : beta_side_;
  const uint32_t tau_level = use_alpha_side ? alpha : beta;
  const uint32_t need = use_alpha_side ? beta : alpha;
  for (const Entry* entry = side.ListBegin(tau_level);
       entry != side.ListEnd(tau_level); ++entry) {
    if (stats) ++stats->touched_arcs;
    if (entry->offset < need) break;
    out.push_back(entry->v);
  }
  return out;
}

bool BicoreIndex::CoreContains(const Entry* first, const Entry* last,
                               uint32_t need, VertexId q) {
  const auto prefix_end = std::partition_point(
      first, last, [need](const Entry& e) { return e.offset >= need; });
  auto it = first;
  while (it != prefix_end) {
    const uint32_t o = it->offset;
    // Galloping search for the run end: O(log |run|) per run, so a prefix
    // of mostly-distinct offsets costs O(p) total (like a linear scan)
    // while a flat prefix — one big run — rejects in O(log p).
    auto low = it;
    std::ptrdiff_t width = 1;
    while (prefix_end - low > width && (low + width)->offset == o) {
      low += width;
      width *= 2;
    }
    const auto window_end =
        prefix_end - low > width ? low + width : prefix_end;
    const auto run_end = std::partition_point(
        low, window_end, [o](const Entry& e) { return e.offset == o; });
    const auto hit = std::lower_bound(
        it, run_end, q,
        [](const Entry& e, VertexId v) { return e.v < v; });
    if (hit != run_end && hit->v == q) return true;
    it = run_end;
  }
  return false;
}

void BicoreIndex::QueryCommunity(VertexId q, uint32_t alpha, uint32_t beta,
                                 QueryScratch& scratch, Subgraph* out,
                                 QueryStats* stats) const {
  out->edges.clear();
  if (graph_ == nullptr || alpha == 0 || beta == 0) return;
  const BipartiteGraph& g = *graph_;
  if (q >= g.NumVertices()) return;
  const uint32_t tau = std::min(alpha, beta);
  if (tau > delta_) return;

  // Reject before touching any O(n) or O(|core|) state: q's degree bounds
  // its offset (O(1)), then membership via run-wise binary search.
  if (g.Degree(q) < (g.IsUpper(q) ? alpha : beta)) return;
  const bool use_alpha_side = alpha <= beta;
  const SideArena& side = use_alpha_side ? alpha_side_ : beta_side_;
  const uint32_t tau_level = use_alpha_side ? alpha : beta;
  const uint32_t need = use_alpha_side ? beta : alpha;
  const Entry* first = side.ListBegin(tau_level);
  const Entry* last = side.ListEnd(tau_level);
  if (!CoreContains(first, last, need, q)) return;

  // Stamp the core prefix — O(|V(R_{α,β})|), not O(n).
  scratch.BeginQuery(g.NumVertices());
  scratch.EnsureInCore(g.NumVertices());
  for (const Entry* entry = first; entry != last; ++entry) {
    scratch.CancelTick();
    if (stats) ++stats->touched_arcs;
    if (entry->offset < need) break;
    scratch.MarkInCore(entry->v);
  }
  if (scratch.CancelStopped()) return;

  // BFS from q over the original adjacency; arcs to vertices outside the
  // core are inspected (and counted) but not followed — the overhead Qopt
  // eliminates.
  CollectCommunityBfs(scratch, g, q, out->edges,
                      [&](VertexId v, auto&& visit) {
                        for (const Arc& a : g.Neighbors(v)) {
                          scratch.CancelTick();
                          if (stats) ++stats->touched_arcs;
                          if (!scratch.InCore(a.to)) continue;
                          visit(a.to, a.eid);
                        }
                      });
  if (scratch.CancelStopped()) out->edges.clear();  // drop partial walk
}

Subgraph BicoreIndex::QueryCommunity(VertexId q, uint32_t alpha,
                                     uint32_t beta, QueryStats* stats) const {
  QueryScratch scratch;
  Subgraph result;
  QueryCommunity(q, alpha, beta, scratch, &result, stats);
  return result;
}

std::size_t BicoreIndex::MemoryBytes() const {
  return alpha_side_.Bytes() + beta_side_.Bytes();
}

}  // namespace abcs
