#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "abcore/offsets.h"
#include "core/delta_index.h"
#include "core/maintenance.h"
#include "core/online_query.h"
#include "graph/generators.h"
#include "test_util.h"

namespace abcs {
namespace {

using ::abcs::testing::MakeGraph;
using ::abcs::testing::RandomWeightedGraph;

/// Checks the dynamic index's offset tables and δ against a full
/// recomputation on the exported snapshot.
void ExpectConsistentWithRebuild(const DynamicDeltaIndex& dyn,
                                 const std::string& context) {
  const BipartiteGraph snapshot = dyn.ExportGraph();
  const BicoreDecomposition ref = ComputeBicoreDecomposition(snapshot);
  ASSERT_EQ(dyn.delta(), ref.delta) << context;
  for (uint32_t tau = 1; tau <= ref.delta; ++tau) {
    for (VertexId v = 0; v < snapshot.NumVertices(); ++v) {
      ASSERT_EQ(dyn.OffsetAlpha(tau, v), ref.sa(tau, v))
          << context << " sa tau=" << tau << " v=" << v;
      ASSERT_EQ(dyn.OffsetBeta(tau, v), ref.sb(tau, v))
          << context << " sb tau=" << tau << " v=" << v;
    }
  }
}

TEST(MaintenanceTest, FreshIndexMatchesStaticDecomposition) {
  BipartiteGraph g = RandomWeightedGraph(20, 20, 150, 1);
  DynamicDeltaIndex dyn(g);
  ExpectConsistentWithRebuild(dyn, "fresh");
  EXPECT_EQ(dyn.NumAliveEdges(), g.NumEdges());
}

TEST(MaintenanceTest, InsertRejectsInvalidEndpoints) {
  BipartiteGraph g = MakeGraph({{0, 0, 1.0}, {1, 1, 1.0}});
  DynamicDeltaIndex dyn(g);
  // (lower, lower) and duplicate edges are rejected.
  EXPECT_FALSE(dyn.InsertEdge(2, 3, 1.0).ok());
  EXPECT_FALSE(dyn.InsertEdge(0, 2, 1.0).ok());  // already exists
  EXPECT_FALSE(dyn.InsertEdge(0, 99, 1.0).ok());
  EXPECT_FALSE(dyn.RemoveEdge(0, 3).ok());  // absent
  EXPECT_EQ(dyn.NumAliveEdges(), 2u);
}

TEST(MaintenanceTest, SingleInsertUpdatesOffsets) {
  // Start with a 2×2 biclique missing one edge; inserting it raises δ
  // from 1 to 2.
  BipartiteGraph g = MakeGraph({{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 1.0}});
  DynamicDeltaIndex dyn(g);
  EXPECT_EQ(dyn.delta(), 1u);
  ASSERT_TRUE(dyn.InsertEdge(1, g.LowerId(1), 1.0).ok());
  EXPECT_EQ(dyn.delta(), 2u);
  ExpectConsistentWithRebuild(dyn, "after insert");
}

TEST(MaintenanceTest, SingleRemoveUpdatesOffsetsAndDelta) {
  std::vector<std::tuple<uint32_t, uint32_t, Weight>> triples;
  for (uint32_t i = 0; i < 3; ++i) {
    for (uint32_t j = 0; j < 3; ++j) triples.push_back({i, j, 1.0});
  }
  BipartiteGraph g = MakeGraph(triples);  // K_{3,3}, δ = 3
  DynamicDeltaIndex dyn(g);
  EXPECT_EQ(dyn.delta(), 3u);
  ASSERT_TRUE(dyn.RemoveEdge(0, g.LowerId(0)).ok());
  EXPECT_EQ(dyn.delta(), 2u);
  ExpectConsistentWithRebuild(dyn, "after remove");
}

class MaintenanceStreamTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaintenanceStreamTest, RandomUpdateStreamStaysConsistent) {
  BipartiteGraph g = RandomWeightedGraph(14, 14, 70, GetParam());
  DynamicDeltaIndex dyn(g);
  Rng rng(GetParam() * 17 + 3);

  std::set<std::pair<VertexId, VertexId>> present;
  for (const Edge& e : g.Edges()) present.insert({e.u, e.v});

  for (int step = 0; step < 60; ++step) {
    const bool insert = present.empty() || rng.NextBounded(100) < 55;
    if (insert) {
      const VertexId u = static_cast<VertexId>(rng.NextBounded(14));
      const VertexId v =
          static_cast<VertexId>(14 + rng.NextBounded(14));
      if (present.count({u, v})) continue;
      ASSERT_TRUE(dyn.InsertEdge(u, v, 1.0 + rng.NextBounded(5)).ok());
      present.insert({u, v});
    } else {
      auto it = present.begin();
      std::advance(it, rng.NextBounded(present.size()));
      ASSERT_TRUE(dyn.RemoveEdge(it->first, it->second).ok());
      present.erase(it);
    }
    ExpectConsistentWithRebuild(dyn,
                                "step " + std::to_string(step) +
                                    (insert ? " (insert)" : " (remove)"));
  }
  EXPECT_EQ(dyn.NumAliveEdges(), present.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaintenanceStreamTest,
                         ::testing::Values(401, 402, 403, 404, 405));

TEST(MaintenanceTest, SkewedTopologyUpdateStream) {
  // Chung–Lu hubs give the fixed-side offsets room to jump several levels
  // per update — the regime that broke naive ±1 maintenance.
  BipartiteGraph topo;
  ASSERT_TRUE(GenChungLuBipartite(25, 25, 160, 1.9, 2.4, 7, &topo).ok());
  DynamicDeltaIndex dyn(topo);
  Rng rng(99);
  std::set<std::pair<VertexId, VertexId>> present;
  for (const Edge& e : topo.Edges()) present.insert({e.u, e.v});
  for (int step = 0; step < 40; ++step) {
    if (rng.NextBounded(2) == 0) {
      const VertexId u = static_cast<VertexId>(rng.NextBounded(25));
      const VertexId v = static_cast<VertexId>(25 + rng.NextBounded(25));
      if (present.count({u, v})) continue;
      ASSERT_TRUE(dyn.InsertEdge(u, v, 1.0).ok());
      present.insert({u, v});
    } else if (!present.empty()) {
      auto it = present.begin();
      std::advance(it, rng.NextBounded(present.size()));
      ASSERT_TRUE(dyn.RemoveEdge(it->first, it->second).ok());
      present.erase(it);
    }
    ExpectConsistentWithRebuild(dyn, "skewed step " + std::to_string(step));
  }
}

TEST(MaintenanceTest, QueryMatchesOnlineOnSnapshot) {
  BipartiteGraph g = RandomWeightedGraph(18, 18, 120, 11);
  DynamicDeltaIndex dyn(g);
  Rng rng(77);
  // Mutate a bit first.
  for (int i = 0; i < 15; ++i) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(18));
    const VertexId v = static_cast<VertexId>(18 + rng.NextBounded(18));
    (void)dyn.InsertEdge(u, v, 2.0);  // may fail if duplicate — fine
  }
  const BipartiteGraph snapshot = dyn.ExportGraph();
  for (int trial = 0; trial < 25; ++trial) {
    const VertexId q = static_cast<VertexId>(rng.NextBounded(36));
    const uint32_t alpha = 1 + static_cast<uint32_t>(rng.NextBounded(4));
    const uint32_t beta = 1 + static_cast<uint32_t>(rng.NextBounded(4));
    const Subgraph dyn_c = dyn.QueryCommunity(q, alpha, beta);
    const Subgraph ref_c = QueryCommunityOnline(snapshot, q, alpha, beta);
    // Edge ids differ between the dynamic table and the snapshot; compare
    // endpoint multisets.
    std::multiset<std::pair<VertexId, VertexId>> a, b;
    for (EdgeId e : dyn_c.edges) {
      a.insert({dyn.GetEdge(e).u, dyn.GetEdge(e).v});
    }
    for (EdgeId e : ref_c.edges) {
      b.insert({snapshot.GetEdge(e).u, snapshot.GetEdge(e).v});
    }
    EXPECT_EQ(a, b) << "q=" << q << " a=" << alpha << " b=" << beta;
  }
}

TEST(MaintenanceTest, InsertThenRemoveIsIdempotentOnOffsets) {
  BipartiteGraph g = RandomWeightedGraph(16, 16, 100, 13);
  DynamicDeltaIndex dyn(g);
  const BicoreDecomposition before = ComputeBicoreDecomposition(g);
  // Pick a non-edge.
  VertexId u = 0, v = 0;
  for (u = 0; u < 16 && v == 0; ++u) {
    for (uint32_t j = 0; j < 16; ++j) {
      bool exists = false;
      for (const Arc& a : g.Neighbors(u)) {
        if (a.to == g.LowerId(j)) exists = true;
      }
      if (!exists) {
        v = g.LowerId(j);
        break;
      }
    }
    if (v != 0) break;
  }
  ASSERT_NE(v, 0u);
  ASSERT_TRUE(dyn.InsertEdge(u, v, 3.0).ok());
  ASSERT_TRUE(dyn.RemoveEdge(u, v).ok());
  ASSERT_EQ(dyn.delta(), before.delta);
  for (uint32_t tau = 1; tau <= before.delta; ++tau) {
    for (VertexId x = 0; x < g.NumVertices(); ++x) {
      EXPECT_EQ(dyn.OffsetAlpha(tau, x), before.sa(tau, x));
      EXPECT_EQ(dyn.OffsetBeta(tau, x), before.sb(tau, x));
    }
  }
}

// The drained touched set is exactly the batch's endpoints plus every
// vertex whose offset at some level moved — a superset is what the memo
// and the index splice need, exactness is what keeps them selective.
TEST(MaintenanceTest, TouchedIsEndpointsPlusChangedOffsets) {
  BipartiteGraph topo;
  ASSERT_TRUE(GenChungLuBipartite(30, 30, 200, 1.9, 2.4, 5, &topo).ok());
  DynamicDeltaIndex dyn(topo);
  Rng rng(2026);
  std::set<std::pair<VertexId, VertexId>> present;
  for (const Edge& e : topo.Edges()) present.insert({e.u, e.v});
  BicoreDecomposition before = dyn.ExportDecomposition();
  uint32_t checked = 0;
  for (int step = 0; step < 60; ++step) {
    VertexId u = 0;
    VertexId v = 0;
    if (rng.NextBounded(2) == 0) {
      u = static_cast<VertexId>(rng.NextBounded(30));
      v = static_cast<VertexId>(30 + rng.NextBounded(30));
      if (present.count({u, v})) continue;
      ASSERT_TRUE(dyn.InsertEdge(u, v, 1.0).ok());
      present.insert({u, v});
    } else {
      auto it = present.begin();
      std::advance(it, rng.NextBounded(present.size()));
      u = it->first;
      v = it->second;
      ASSERT_TRUE(dyn.RemoveEdge(u, v).ok());
      present.erase(it);
    }
    const UpdateSummary summary = dyn.DrainSummary();
    const BicoreDecomposition after = dyn.ExportDecomposition();
    if (after.delta == before.delta) {
      std::set<VertexId> want{u, v};
      for (VertexId x = 0; x < topo.NumVertices(); ++x) {
        for (uint32_t tau = 1; tau <= after.delta; ++tau) {
          if (before.sa(tau, x) != after.sa(tau, x) ||
              before.sb(tau, x) != after.sb(tau, x)) {
            want.insert(x);
          }
        }
      }
      const std::set<VertexId> got(summary.touched.begin(),
                                   summary.touched.end());
      ASSERT_EQ(got.size(), summary.touched.size()) << "duplicates";
      EXPECT_EQ(got, want) << "step " << step;
      ++checked;
    }
    before = after;
  }
  EXPECT_GE(checked, 40u);
}

// DeltaIndex::Build with a base (the previous epoch's index, its
// decomposition and the batch's touched set) must be array-identical to
// a build without one, batch after batch, each spliced index serving as
// the next base.
class SpliceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpliceTest, SplicedIndexMatchesFreshBuild) {
  BipartiteGraph topo;
  ASSERT_TRUE(
      GenChungLuBipartite(40, 40, 320, 1.9, 2.4, GetParam(), &topo).ok());
  DynamicDeltaIndex dyn(topo);
  Rng rng(GetParam() * 31 + 1);
  std::set<std::pair<VertexId, VertexId>> present;
  for (const Edge& e : topo.Edges()) present.insert({e.u, e.v});

  auto graph = std::make_unique<BipartiteGraph>(dyn.ExportGraph());
  auto decomp =
      std::make_unique<BicoreDecomposition>(dyn.ExportDecomposition());
  auto index =
      std::make_unique<DeltaIndex>(DeltaIndex::Build(*graph, decomp.get()));
  uint32_t spliced = 0;
  for (int batch = 0; batch < 30; ++batch) {
    const uint32_t ops = 1 + static_cast<uint32_t>(rng.NextBounded(6));
    for (uint32_t i = 0; i < ops; ++i) {
      if (rng.NextBounded(2) == 0) {
        const VertexId u = static_cast<VertexId>(rng.NextBounded(40));
        const VertexId v = static_cast<VertexId>(40 + rng.NextBounded(40));
        if (present.count({u, v})) continue;
        ASSERT_TRUE(dyn.InsertEdge(u, v, 1.0).ok());
        present.insert({u, v});
      } else {
        auto it = present.begin();
        std::advance(it, rng.NextBounded(present.size()));
        ASSERT_TRUE(dyn.RemoveEdge(it->first, it->second).ok());
        present.erase(it);
      }
    }
    const UpdateSummary summary = dyn.DrainSummary();
    auto next_graph = std::make_unique<BipartiteGraph>(dyn.ExportGraph());
    auto next_decomp =
        std::make_unique<BicoreDecomposition>(dyn.ExportDecomposition());
    const DeltaIndex::Base base{index.get(), decomp.get(), summary.touched};
    auto next = std::make_unique<DeltaIndex>(
        DeltaIndex::Build(*next_graph, next_decomp.get(), 1, &base));
    ASSERT_TRUE(*next == DeltaIndex::Build(*next_graph, next_decomp.get()))
        << "batch " << batch;
    if (next_decomp->delta == decomp->delta) ++spliced;
    graph = std::move(next_graph);
    decomp = std::move(next_decomp);
    index = std::move(next);
  }
  EXPECT_GE(spliced, 20u);

  // A base over a different vertex set is ignored, not trusted.
  const BipartiteGraph other = RandomWeightedGraph(5, 5, 12, 3);
  const DeltaIndex other_index = DeltaIndex::Build(other);
  const BicoreDecomposition other_decomp = ComputeBicoreDecomposition(other);
  const std::vector<VertexId> all = {0, 1, 2};
  const DeltaIndex::Base foreign{&other_index, &other_decomp, all};
  EXPECT_TRUE(DeltaIndex::Build(*graph, decomp.get(), 1, &foreign) ==
              DeltaIndex::Build(*graph, decomp.get()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpliceTest,
                         ::testing::Values(11, 12, 13, 14));

}  // namespace
}  // namespace abcs
