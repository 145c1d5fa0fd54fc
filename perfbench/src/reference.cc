#include "reference.h"

#include <algorithm>
#include <cstdio>
#include <functional>

namespace perfbench {

namespace {

/// The (α,β)-core of the subgraph made of `g.edges[ids[i]]`, by naive
/// peeling: repeatedly drop an upper vertex with fewer than α live edges or
/// a lower vertex with fewer than β.
struct Peeled {
  std::vector<uint8_t> alive;       ///< per vertex
  std::vector<uint8_t> edge_live;   ///< per position in `ids`
  std::vector<uint32_t> start;      ///< CSR over vertices
  std::vector<uint32_t> incident;   ///< positions in `ids`
};

Peeled Peel(const RefGraph& g, const std::vector<uint32_t>& ids,
            uint32_t alpha, uint32_t beta) {
  const uint32_t n = g.NumVertices();
  const uint32_t nu = g.num_upper;
  Peeled p;
  std::vector<uint32_t> deg(n, 0);
  for (const uint32_t id : ids) {
    ++deg[g.edges[id].u];
    ++deg[nu + g.edges[id].v];
  }
  p.start.assign(n + 1, 0);
  for (uint32_t x = 0; x < n; ++x) p.start[x + 1] = p.start[x] + deg[x];
  p.incident.resize(p.start[n]);
  std::vector<uint32_t> fill(p.start.begin(), p.start.end() - 1);
  for (uint32_t i = 0; i < ids.size(); ++i) {
    p.incident[fill[g.edges[ids[i]].u]++] = i;
    p.incident[fill[nu + g.edges[ids[i]].v]++] = i;
  }
  auto need = [&](uint32_t x) { return x < nu ? alpha : beta; };
  p.alive.assign(n, 0);
  p.edge_live.assign(ids.size(), 1);
  std::vector<uint32_t> queue;
  for (uint32_t x = 0; x < n; ++x) {
    if (deg[x] == 0) continue;
    if (deg[x] >= need(x)) {
      p.alive[x] = 1;
    } else {
      queue.push_back(x);
    }
  }
  while (!queue.empty()) {
    const uint32_t x = queue.back();
    queue.pop_back();
    for (uint32_t k = p.start[x]; k < p.start[x + 1]; ++k) {
      const uint32_t i = p.incident[k];
      if (!p.edge_live[i]) continue;
      p.edge_live[i] = 0;
      const RefEdge& e = g.edges[ids[i]];
      const uint32_t y = (x == e.u) ? nu + e.v : e.u;
      if (p.alive[y] && --deg[y] < need(y)) {
        p.alive[y] = 0;
        queue.push_back(y);
      }
    }
  }
  return p;
}

/// BFS over live edges from `x`, labelling every vertex it reaches with
/// `id` in `comp` (kNone marks unvisited); returns the component's live
/// edge positions.
std::vector<uint32_t> Component(const RefGraph& g,
                                const std::vector<uint32_t>& ids,
                                const Peeled& p, uint32_t x, uint32_t id,
                                std::vector<uint32_t>* comp) {
  const uint32_t nu = g.num_upper;
  std::vector<uint32_t> edges;
  std::vector<uint32_t> stack{x};
  (*comp)[x] = id;
  while (!stack.empty()) {
    const uint32_t y = stack.back();
    stack.pop_back();
    for (uint32_t k = p.start[y]; k < p.start[y + 1]; ++k) {
      const uint32_t i = p.incident[k];
      if (!p.edge_live[i]) continue;
      const RefEdge& e = g.edges[ids[i]];
      if (y == e.u) edges.push_back(i);  // count each edge once
      const uint32_t z = (y == e.u) ? nu + e.v : e.u;
      if ((*comp)[z] == RefCores::kNone) {
        (*comp)[z] = id;
        stack.push_back(z);
      }
    }
  }
  return edges;
}

std::vector<uint32_t> AllIds(const RefGraph& g) {
  std::vector<uint32_t> ids(g.edges.size());
  for (uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
  return ids;
}

}  // namespace

RefCores RefCoreComponents(const RefGraph& g, uint32_t alpha, uint32_t beta) {
  const std::vector<uint32_t> ids = AllIds(g);
  const Peeled p = Peel(g, ids, alpha, beta);
  RefCores c;
  c.alpha = alpha;
  c.beta = beta;
  c.comp.assign(g.NumVertices(), RefCores::kNone);
  for (uint32_t x = 0; x < g.NumVertices(); ++x) {
    if (!p.alive[x] || c.comp[x] != RefCores::kNone) continue;
    const auto id = static_cast<uint32_t>(c.comp_edges.size());
    c.comp_edges.push_back(
        static_cast<uint32_t>(Component(g, ids, p, x, id, &c.comp).size()));
  }
  return c;
}

RefScs RefSignificant(const RefGraph& g, const RefCores& cores, uint32_t x) {
  RefScs r;
  if (cores.comp[x] == RefCores::kNone) return r;
  const uint32_t cid = cores.comp[x];
  std::vector<uint32_t> community;
  for (uint32_t i = 0; i < g.edges.size(); ++i) {
    const RefEdge& e = g.edges[i];
    if (cores.comp[e.u] == cid && cores.comp[g.num_upper + e.v] == cid) {
      community.push_back(i);
    }
  }
  std::vector<double> weights;
  for (const uint32_t i : community) weights.push_back(g.edges[i].w);
  std::sort(weights.begin(), weights.end(), std::greater<>());
  weights.erase(std::unique(weights.begin(), weights.end()), weights.end());

  auto above = [&](double w) {
    std::vector<uint32_t> ids;
    for (const uint32_t i : community) {
      if (g.edges[i].w >= w) ids.push_back(i);
    }
    return ids;
  };
  // x survives at the lowest threshold (all of C); find the highest one
  // where it still does. Survival is monotone in the threshold.
  std::size_t lo = 0;
  std::size_t hi = weights.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (Peel(g, above(weights[mid]), cores.alpha, cores.beta).alive[x]) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const std::vector<uint32_t> ids = above(weights[lo]);
  const Peeled p = Peel(g, ids, cores.alpha, cores.beta);
  if (!p.alive[x]) return r;  // unreachable for a vertex of the core
  std::vector<uint32_t> comp(g.NumVertices(), RefCores::kNone);
  const std::vector<uint32_t> result = Component(g, ids, p, x, 0, &comp);
  r.found = true;
  r.result_edges = static_cast<uint32_t>(result.size());
  r.significance = g.edges[ids[result.front()]].w;
  for (const uint32_t i : result) {
    r.significance = std::min(r.significance, g.edges[ids[i]].w);
  }
  return r;
}

int RefSelfCheck(std::vector<std::string>* failures) {
  // Component A: K_{2,2} on upper {0,1} × lower {0,1} with weights 5, 4,
  // 3, 2 and a pendant edge (upper 2, lower 0) of weight 9. Component B:
  // K_{2,3} on upper {3,4} × lower {2,3,4}, all weight 1 except
  // (upper 3, lower 2) = 7.
  RefGraph g;
  g.num_upper = 5;
  g.num_lower = 5;
  g.edges = {{0, 0, 5}, {0, 1, 4}, {1, 0, 3}, {1, 1, 2}, {2, 0, 9}};
  for (uint32_t u = 3; u <= 4; ++u) {
    for (uint32_t v = 2; v <= 4; ++v) {
      g.edges.push_back({u, v, (u == 3 && v == 2) ? 7.0 : 1.0});
    }
  }
  const uint32_t L = g.num_upper;  // lower vertex v is L + v
  int checks = 0;
  auto expect = [&](bool ok, const std::string& what) {
    ++checks;
    if (!ok) failures->push_back("reference self-check: " + what);
  };
  struct CoreCase {
    uint32_t alpha, beta, x, edges;
  };
  // (1,1): every vertex sits in its whole component. (2,2): the pendant
  // upper 2 peels off A. (2,3): no lower vertex keeps 3 neighbours. (3,2):
  // only B's uppers have degree 3.
  const CoreCase cores[] = {
      {1, 1, 0, 5},     {1, 1, L + 1, 5}, {1, 1, 3, 6}, {1, 1, L + 4, 6},
      {2, 2, 0, 4},     {2, 2, 2, 0},     {2, 2, 4, 6}, {2, 3, 0, 0},
      {2, 3, 3, 0},     {3, 2, 3, 6},     {3, 2, 0, 0},
  };
  for (const CoreCase& c : cores) {
    const RefCores rc = RefCoreComponents(g, c.alpha, c.beta);
    const uint32_t got = rc.CommunityEdges(c.x);
    expect(got == c.edges, "|C| of vertex " + std::to_string(c.x) + " at (" +
                               std::to_string(c.alpha) + "," +
                               std::to_string(c.beta) + ") is " +
                               std::to_string(got));
  }
  struct ScsCase {
    uint32_t alpha, beta, x;
    bool found;
    uint32_t result_edges;
    double significance;
  };
  // (2,2) from upper 0: only all of K_{2,2} is a (2,2)-core, so f = 2.
  // (1,1) from upper 0: weights ≥ 5 keep (0,0) and the pendant, f = 5.
  // (1,1) from upper 2: the pendant alone, f = 9. (3,2) from upper 3: all
  // of B, f = 1. (1,1) from lower 2: (3,2) alone, f = 7.
  const ScsCase scs[] = {
      {2, 2, 0, true, 4, 2.0},  {1, 1, 0, true, 2, 5.0},
      {1, 1, 2, true, 1, 9.0},  {3, 2, 3, true, 6, 1.0},
      {1, 1, L + 2, true, 1, 7.0}, {2, 2, 2, false, 0, 0.0},
  };
  for (const ScsCase& c : scs) {
    const RefScs r =
        RefSignificant(g, RefCoreComponents(g, c.alpha, c.beta), c.x);
    expect(r.found == c.found && r.result_edges == c.result_edges &&
               r.significance == c.significance,
           "SCS of vertex " + std::to_string(c.x) + " at (" +
               std::to_string(c.alpha) + "," + std::to_string(c.beta) +
               "): found=" + std::to_string(r.found) +
               " |R|=" + std::to_string(r.result_edges) +
               " f=" + std::to_string(r.significance));
  }
  return checks;
}

RefEdgeSet::RefEdgeSet(const RefGraph& g)
    : num_upper_(g.num_upper), num_lower_(g.num_lower), edges_(g.edges) {
  pos_.reserve(edges_.size() * 2);
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    pos_[Key(edges_[i].u, edges_[i].v)] = i;
  }
}

bool RefEdgeSet::Contains(uint32_t u, uint32_t v) const {
  return pos_.count(Key(u, v)) != 0;
}

bool RefEdgeSet::Insert(uint32_t u, uint32_t v, double w) {
  if (!pos_.emplace(Key(u, v), edges_.size()).second) return false;
  edges_.push_back({u, v, w});
  return true;
}

bool RefEdgeSet::Remove(uint32_t u, uint32_t v) {
  const auto it = pos_.find(Key(u, v));
  if (it == pos_.end()) return false;
  const std::size_t i = it->second;
  pos_.erase(it);
  if (i + 1 != edges_.size()) {
    edges_[i] = edges_.back();
    pos_[Key(edges_[i].u, edges_[i].v)] = i;
  }
  edges_.pop_back();
  return true;
}

bool RefEdgeSet::Reweight(uint32_t u, uint32_t v, double w) {
  const auto it = pos_.find(Key(u, v));
  if (it == pos_.end()) return false;
  edges_[it->second].w = w;
  return true;
}

RefGraph RefEdgeSet::Graph() const {
  RefGraph g;
  g.num_upper = num_upper_;
  g.num_lower = num_lower_;
  g.edges = edges_;
  return g;
}

}  // namespace perfbench
