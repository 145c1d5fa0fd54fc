#include "core/delta_index.h"

#include <algorithm>
#include <compare>

namespace abcs {

namespace {

/// Row order: offset descending, then `to` ascending.
constexpr auto kByOffsetDesc = [](const auto& x, const auto& y) {
  if (x.offset != y.offset) return x.offset > y.offset;
  return x.to < y.to;
};

/// α half keeps neighbours with s_a ≥ τ; β half needs s_b > τ (entries at
/// exactly τ can never satisfy a β-side query).
bool Qualifies(bool alpha_side, uint32_t offset, uint32_t tau) {
  return alpha_side ? offset >= tau : offset > tau;
}

/// (u, v) order of the edge arrays GraphBuilder emits.
bool EdgeBefore(const Edge& x, const Edge& y) {
  return x.u != y.u ? x.u < y.u : x.v < y.v;
}

}  // namespace

/// The part of a base index a build can reuse. A row (u, τ) of half h
/// depends on u's adjacency and on its neighbours' offsets at τ only, so:
///  - `reemit[u]`: u gained or lost an edge, or its level count changed —
///    every row of u is emitted from the graph;
///  - `patches_[h]`: one (u, τ, x, eid) per row whose neighbour x changed
///    its offset at τ across the qualifying threshold's reach, sorted by
///    (u, τ, x) so the row loop consumes them in order;
///  - every other row is the base row with its edge ids remapped.
class DeltaIndex::Splice {
 public:
  /// False when `base` cannot be spliced from (the build then emits
  /// every row).
  bool Init(const BipartiteGraph& g, const BicoreDecomposition& decomp,
            const std::vector<uint32_t>& num_levels, const Base& base) {
    if (base.index == nullptr || base.decomp == nullptr ||
        base.index->graph_ == nullptr) {
      return false;
    }
    const BipartiteGraph& old_g = *base.index->graph_;
    const uint32_t n = g.NumVertices();
    if (old_g.NumUpper() != g.NumUpper() || old_g.NumVertices() != n ||
        base.decomp->NumVertices() != n || base.decomp->delta != decomp.delta ||
        base.index->delta_ != decomp.delta) {
      return false;
    }
    old_ = base.index;

    // One merge of the two (u, v)-sorted edge arrays: the old → new edge
    // id table, and the endpoints of every inserted or removed edge.
    const ArenaStorage<Edge>& old_edges = old_g.Edges();
    const ArenaStorage<Edge>& new_edges = g.Edges();
    const auto unordered = [](const ArenaStorage<Edge>& edges) {
      return std::adjacent_find(edges.begin(), edges.end(),
                                [](const Edge& x, const Edge& y) {
                                  return !EdgeBefore(x, y);
                                }) != edges.end();
    };
    if (unordered(old_edges) || unordered(new_edges)) return false;
    remap_.assign(old_edges.size(), kInvalidEdge);
    reemit_.assign(n, 0);
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < old_edges.size() || j < new_edges.size()) {
      if (j == new_edges.size() ||
          (i < old_edges.size() && EdgeBefore(old_edges[i], new_edges[j]))) {
        reemit_[old_edges[i].u] = reemit_[old_edges[i].v] = 1;  // removed
        ++i;
      } else if (i == old_edges.size() ||
                 EdgeBefore(new_edges[j], old_edges[i])) {
        reemit_[new_edges[j].u] = reemit_[new_edges[j].v] = 1;  // inserted
        ++j;
      } else {
        remap_[i++] = static_cast<EdgeId>(j++);
      }
    }
    for (VertexId u = 0; u < n; ++u) {
      if (old_->alpha_half_.NumLevels(u) != num_levels[u]) reemit_[u] = 1;
      if (reemit_[u]) {
        reemit_entries_ +=
            static_cast<std::size_t>(num_levels[u]) * g.Degree(u);
      }
    }

    // Per-level change masks: diff the two decompositions over the
    // touched vertices and fan each relevant change out to the rows that
    // hold (or should hold) an entry for it.
    for (const bool alpha_side : {true, false}) {
      const OffsetArena& before =
          alpha_side ? base.decomp->alpha : base.decomp->beta;
      const OffsetArena& after = alpha_side ? decomp.alpha : decomp.beta;
      std::vector<Patch>& patches = patches_[alpha_side ? 0 : 1];
      for (const VertexId x : base.touched) {
        if (x >= n) continue;
        const uint32_t levels = std::max(before.Levels(x), after.Levels(x));
        for (uint32_t tau = 1; tau <= levels; ++tau) {
          const uint32_t was = before.At(tau, x);
          const uint32_t now = after.At(tau, x);
          if (was == now || (!Qualifies(alpha_side, was, tau) &&
                             !Qualifies(alpha_side, now, tau))) {
            continue;
          }
          for (const Arc& arc : g.Neighbors(x)) {
            if (reemit_[arc.to] || num_levels[arc.to] < tau) continue;
            patches.push_back(Patch{arc.to, tau, x, arc.eid});
          }
        }
      }
      std::sort(patches.begin(), patches.end());
      patches.erase(std::unique(patches.begin(), patches.end()),
                    patches.end());
    }
    dropped_.assign(n, 0);
    return true;
  }

  bool Reemit(VertexId u) const { return reemit_[u] != 0; }
  /// Upper bound on the new half's entries: copied rows keep their size,
  /// a patch adds at most one entry, a re-emitted row at most deg(u).
  std::size_t MaxEntries(bool alpha_side) const {
    return OldHalf(alpha_side).entries.size() +
           patches_[alpha_side ? 0 : 1].size() + reemit_entries_;
  }

  /// Appends row (u, τ) of the new index, taken from the base row: copied
  /// with remapped edge ids, or patched with this row's changed
  /// neighbours. Rows must be requested in (u, τ) order per half, and u
  /// must not be re-emitted.
  void AppendRow(bool alpha_side, VertexId u, uint32_t tau,
                 const OffsetArena& off, std::vector<Entry>& entries) {
    const Half& old = OldHalf(alpha_side);
    const uint32_t table = old.table_base[u] + tau - 1;
    const Entry* first = old.entries.data() + old.level_start[table];
    const Entry* last = old.entries.data() + old.level_start[table + 1];

    const std::vector<Patch>& patches = patches_[alpha_side ? 0 : 1];
    std::size_t& cursor = cursor_[alpha_side ? 0 : 1];
    const std::size_t run = cursor;
    while (cursor < patches.size() && patches[cursor].u == u &&
           patches[cursor].tau == tau) {
      dropped_[patches[cursor++].x] = 1;
    }

    const std::size_t begin = entries.size();
    if (run == cursor) {  // copied
      entries.insert(entries.end(), first, last);
      for (auto e = entries.begin() + begin; e != entries.end(); ++e) {
        e->eid = remap_[e->eid];
      }
      return;
    }

    // Patched: the unchanged neighbours' entries as copied, then the
    // changed neighbours' current entries merged back in.
    for (const Entry* e = first; e != last; ++e) {
      if (dropped_[e->to]) continue;
      entries.push_back(Entry{e->to, remap_[e->eid], e->offset});
    }
    const std::size_t mid = entries.size();
    for (std::size_t p = run; p < cursor; ++p) {
      const Patch& patch = patches[p];
      dropped_[patch.x] = 0;
      const uint32_t o = off.At(tau, patch.x);
      if (Qualifies(alpha_side, o, tau)) {
        entries.push_back(Entry{patch.x, patch.eid, o});
      }
    }
    std::sort(entries.begin() + mid, entries.end(), kByOffsetDesc);
    std::inplace_merge(entries.begin() + begin, entries.begin() + mid,
                       entries.end(), kByOffsetDesc);
  }

 private:
  const Half& OldHalf(bool alpha_side) const {
    return alpha_side ? old_->alpha_half_ : old_->beta_half_;
  }

  struct Patch {
    VertexId u;
    uint32_t tau;
    VertexId x;  ///< the neighbour whose offset at τ changed
    EdgeId eid;  ///< edge (u, x) in the new graph
    friend auto operator<=>(const Patch&, const Patch&) = default;
  };

  const DeltaIndex* old_ = nullptr;
  std::vector<EdgeId> remap_;
  std::vector<uint8_t> reemit_;
  std::size_t reemit_entries_ = 0;  ///< Σ levels·degree over re-emitted u
  std::vector<Patch> patches_[2];
  std::size_t cursor_[2] = {0, 0};
  std::vector<uint8_t> dropped_;  ///< all-zero between rows
};

DeltaIndex DeltaIndex::Build(const BipartiteGraph& g,
                             const BicoreDecomposition* decomp,
                             unsigned num_threads, const Base* base) {
  BicoreDecomposition local;
  if (decomp == nullptr) {
    local = ComputeBicoreDecompositionParallel(g, num_threads);
    decomp = &local;
  }

  DeltaIndex index;
  index.graph_ = &g;
  index.delta_ = decomp->delta;
  const uint32_t n = g.NumVertices();

  // Level count per vertex: the largest τ ≤ δ with v ∈ (τ,τ)-core; levels
  // are contiguous because (τ,τ)-cores nest.
  std::vector<uint32_t> num_levels(n, 0);
  std::size_t total_levels = 0;
  for (VertexId v = 0; v < n; ++v) {
    uint32_t levels = 0;
    while (levels < decomp->delta && decomp->sa(levels + 1, v) >= levels + 1) {
      ++levels;
    }
    num_levels[v] = levels;
    total_levels += levels;
  }

  Splice splice;
  const bool spliced =
      base != nullptr && splice.Init(g, *decomp, num_levels, *base);

  for (const bool alpha_side : {true, false}) {
    Half& half = alpha_side ? index.alpha_half_ : index.beta_half_;
    const OffsetArena& off = alpha_side ? decomp->alpha : decomp->beta;
    std::vector<uint32_t>& table_base = half.table_base.Mutable();
    std::vector<uint32_t>& level_start = half.level_start.Mutable();
    std::vector<uint32_t>& self_offset = half.self_offset.Mutable();
    std::vector<Entry>& entries = half.entries.Mutable();
    table_base.reserve(n + 1);
    level_start.reserve(total_levels + n);
    self_offset.reserve(total_levels);
    if (spliced) entries.reserve(splice.MaxEntries(alpha_side));
    table_base.push_back(0);
    for (VertexId u = 0; u < n; ++u) {
      const bool emit = !spliced || splice.Reemit(u);
      for (uint32_t tau = 1; tau <= num_levels[u]; ++tau) {
        level_start.push_back(static_cast<uint32_t>(entries.size()));
        self_offset.push_back(off.At(tau, u));
        if (!emit) {
          splice.AppendRow(alpha_side, u, tau, off, entries);
          continue;
        }
        const std::size_t begin = entries.size();
        for (const Arc& arc : g.Neighbors(u)) {
          const uint32_t o = off.At(tau, arc.to);
          if (Qualifies(alpha_side, o, tau)) {
            entries.push_back(Entry{arc.to, arc.eid, o});
          }
        }
        std::sort(entries.begin() + begin, entries.end(), kByOffsetDesc);
      }
      level_start.push_back(static_cast<uint32_t>(entries.size()));
      table_base.push_back(static_cast<uint32_t>(level_start.size()));
    }
  }
  return index;
}

void DeltaIndex::QueryImpl(VertexId q, uint32_t level, uint32_t need,
                           const Half& half, QueryScratch& scratch,
                           Subgraph* out, QueryStats* stats) const {
  const BipartiteGraph& g = *graph_;
  if (half.NumLevels(q) < level) return;  // q ∉ (τ,τ)-core
  if (half.self_offset[half.table_base[q] - q + level - 1] < need) {
    return;  // q ∉ (α,β)-core
  }

  scratch.BeginQuery(g.NumVertices());
  uint64_t touched = 0;
  CollectCommunityBfs(
      scratch, g, q, out->edges, [&](VertexId u, auto&& visit) {
        const uint32_t table = half.table_base[u] + level - 1;
        const uint32_t begin = half.level_start[table];
        const uint32_t end = half.level_start[table + 1];
        for (uint32_t i = begin; i < end; ++i) {
          const Entry& entry = half.entries[i];
          scratch.CancelTick();
          ++touched;
          if (entry.offset < need) break;  // sorted: early terminate
          visit(entry.to, entry.eid);
        }
      });
  if (scratch.CancelStopped()) out->edges.clear();  // drop partial walk
  if (stats) stats->touched_arcs += touched;
}

void DeltaIndex::QueryCommunity(VertexId q, uint32_t alpha, uint32_t beta,
                                QueryScratch& scratch, Subgraph* out,
                                QueryStats* stats) const {
  out->edges.clear();
  if (graph_ == nullptr || q >= graph_->NumVertices() || alpha == 0 ||
      beta == 0) {
    return;
  }
  if (std::min(alpha, beta) > delta_) return;  // Lemma 4
  if (alpha <= beta) {
    QueryImpl(q, /*level=*/alpha, /*need=*/beta, alpha_half_, scratch, out,
              stats);
  } else {
    QueryImpl(q, /*level=*/beta, /*need=*/alpha, beta_half_, scratch, out,
              stats);
  }
}

Subgraph DeltaIndex::QueryCommunity(VertexId q, uint32_t alpha, uint32_t beta,
                                    QueryStats* stats) const {
  QueryScratch scratch;
  Subgraph result;
  QueryCommunity(q, alpha, beta, scratch, &result, stats);
  return result;
}

std::size_t DeltaIndex::MemoryBytes() const {
  return alpha_half_.Bytes() + beta_half_.Bytes();
}

}  // namespace abcs
