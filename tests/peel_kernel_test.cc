// Pins the shared peeling kernel (abcore/peel_kernel.h) against brute-force
// definitional references on random graphs: the kernel is the single peel
// implementation under offsets, degeneracy, (α,β)-cores and the SCS peels,
// so definitional drift here would corrupt every index.

#include <gtest/gtest.h>

#include <algorithm>
#include <ranges>

#include "abcore/degeneracy.h"
#include "abcore/offsets.h"
#include "abcore/peel_kernel.h"
#include "abcore/peeling.h"
#include "test_util.h"

namespace abcs {
namespace {

/// O(n·m) reference: repeatedly rescan all vertices until no vertex is
/// below its threshold.
std::vector<uint8_t> NaiveCore(const BipartiteGraph& g, uint32_t alpha,
                               uint32_t beta) {
  const uint32_t n = g.NumVertices();
  std::vector<uint8_t> alive(n, 1);
  bool changed = true;
  while (changed) {
    changed = false;
    for (VertexId v = 0; v < n; ++v) {
      if (!alive[v]) continue;
      uint32_t d = 0;
      for (const Arc& a : g.Neighbors(v)) d += alive[a.to];
      if (d < (g.IsUpper(v) ? alpha : beta)) {
        alive[v] = 0;
        changed = true;
      }
    }
  }
  return alive;
}

/// Definitional offsets: s_a(v, α) = max β with v ∈ (α,β)-core.
std::vector<uint32_t> NaiveAlphaOffsets(const BipartiteGraph& g,
                                        uint32_t alpha) {
  const uint32_t n = g.NumVertices();
  std::vector<uint32_t> offset(n, 0);
  for (uint32_t beta = 1;; ++beta) {
    const std::vector<uint8_t> alive = NaiveCore(g, alpha, beta);
    bool any = false;
    for (VertexId v = 0; v < n; ++v) {
      if (alive[v]) {
        offset[v] = beta;
        any = true;
      }
    }
    if (!any) return offset;
  }
}

TEST(PeelKernelTest, ThresholdPeelMatchesNaiveCore) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const BipartiteGraph g = testing::RandomWeightedGraph(30, 40, 220, seed);
    for (uint32_t alpha = 1; alpha <= 4; ++alpha) {
      for (uint32_t beta = 1; beta <= 4; ++beta) {
        const CoreResult got = ComputeAlphaBetaCore(g, alpha, beta);
        EXPECT_EQ(got.alive, NaiveCore(g, alpha, beta))
            << "seed=" << seed << " alpha=" << alpha << " beta=" << beta;
      }
    }
  }
}

TEST(PeelKernelTest, LevelPeelerMatchesDefinitionalOffsets) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const BipartiteGraph g = testing::RandomWeightedGraph(25, 35, 180, seed);
    for (uint32_t alpha = 1; alpha <= 4; ++alpha) {
      EXPECT_EQ(ComputeAlphaOffsets(g, alpha), NaiveAlphaOffsets(g, alpha))
          << "seed=" << seed << " alpha=" << alpha;
    }
  }
}

TEST(PeelKernelTest, KCoreNumbersMatchSymmetricCoreMembership) {
  // core[v] ≥ τ ⇔ v ∈ (τ,τ)-core (degeneracy.h): the all-ranked kernel
  // run must agree with the threshold kernel at every τ.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const BipartiteGraph g = testing::RandomWeightedGraph(30, 30, 250, seed);
    const std::vector<uint32_t> core = KCoreNumbers(g);
    uint32_t delta = 0;
    for (uint32_t c : core) delta = std::max(delta, c);
    for (uint32_t tau = 1; tau <= delta + 1; ++tau) {
      const CoreResult r = ComputeAlphaBetaCore(g, tau, tau);
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        EXPECT_EQ(core[v] >= tau, r.alive[v] != 0)
            << "seed=" << seed << " tau=" << tau << " v=" << v;
      }
    }
  }
}

TEST(PeelKernelTest, ThresholdPeelOnRemoveSeesEveryRemoval) {
  const BipartiteGraph g = testing::RandomWeightedGraph(20, 20, 120, 7);
  const uint32_t n = g.NumVertices();
  std::vector<uint32_t> deg(n);
  for (VertexId v = 0; v < n; ++v) deg[v] = g.Degree(v);
  std::vector<uint8_t> alive(n, 1);
  std::vector<VertexId> removed;
  PeelInPlace(g, 3, 3, deg, alive, &removed);
  uint32_t dead = 0;
  for (VertexId v = 0; v < n; ++v) dead += alive[v] == 0;
  EXPECT_EQ(removed.size(), dead);
  // Each survivor really satisfies its threshold within the core.
  for (VertexId v = 0; v < n; ++v) {
    if (!alive[v]) continue;
    uint32_t d = 0;
    for (const Arc& a : g.Neighbors(v)) d += alive[a.to];
    EXPECT_EQ(d, deg[v]);
    EXPECT_GE(d, 3u);
  }
}

TEST(PeelKernelTest, LevelPeelerExternalDecrement) {
  // A 3-regular-ish toy: u0..u2 complete to v0..v2 (all degrees 3), plus a
  // pendant v3-u0. With fixed upper need 1, ranked (lower) levels equal
  // β-offsets at α=1; externally decrementing a lower vertex mid-run must
  // demote it at the current level.
  const BipartiteGraph g = testing::MakeGraph({
      {0, 0, 1.0}, {0, 1, 1.0}, {0, 2, 1.0},
      {1, 0, 1.0}, {1, 1, 1.0}, {1, 2, 1.0},
      {2, 0, 1.0}, {2, 1, 1.0}, {2, 2, 1.0},
      {0, 3, 1.0},
  });
  const uint32_t n = g.NumVertices();
  std::vector<uint32_t> deg(n);
  for (VertexId v = 0; v < n; ++v) deg[v] = g.Degree(v);
  std::vector<uint8_t> alive(n, 1);
  std::vector<uint32_t> level_of(n, 0);
  LevelPeeler peeler(
      deg, alive, /*fixed_need=*/1, /*max_level=*/4, GraphNeighbors(g),
      [&](VertexId v) { return g.IsUpper(v); },
      [&](VertexId v, uint32_t level) { level_of[v] = level; });
  peeler.Start(std::views::iota(VertexId{0}, n));
  peeler.RunLevel(1);
  // v0 (unified id 3) loses one support out of band at level 1: it now has
  // effective degree 2 > 1, so it survives with a lazy re-bucket …
  peeler.Decrement(3, 1);
  EXPECT_EQ(alive[3], 1);
  peeler.RunLevel(2);
  // … and dies at level 2 (deg 2 ≤ 2) instead of its undisturbed level 3.
  EXPECT_EQ(alive[3], 0);
  EXPECT_EQ(level_of[3], 2u);
  peeler.RunLevel(3);
  EXPECT_EQ(peeler.alive_count(), 0u);
}

}  // namespace
}  // namespace abcs
