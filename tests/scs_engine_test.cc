// The SCS engine suite: the weight-rank substrate, the incremental
// feasibility machinery and the planner must be indistinguishable from the
// brute-force oracle on every workload shape — continuous weights,
// duplicate-heavy weights, serial, pooled and threaded-batch execution —
// and the steady state must not allocate.

#include <gtest/gtest.h>

#include <vector>

#include "core/delta_index.h"
#include "core/query_engine.h"
#include "core/scs_auto.h"
#include "core/scs_baseline.h"
#include "core/scs_binary.h"
#include "core/scs_expand.h"
#include "core/scs_peel.h"
#include "graph/generators.h"
#include "graph/weights.h"
#include "alloc_counter.h"
#include "test_util.h"

namespace abcs {
namespace {

using ::abcs::testing::RandomWeightedGraph;

// One test instance: a topology × weight distribution pair. `max_weight`
// == 0 applies a continuous model; otherwise weights are integers in
// [1, max_weight] — small values make duplicate-heavy batches the norm.
struct WeightVariant {
  const char* name;
  WeightModel model;
  uint32_t max_weight;
};

constexpr WeightVariant kVariants[] = {
    {"uniform", WeightModel::kUniform, 0},
    {"skewnormal", WeightModel::kSkewNormal, 0},
    {"dup4", WeightModel::kUniform, 4},
    {"dup2", WeightModel::kUniform, 2},
};

BipartiteGraph MakeVariantGraph(const BipartiteGraph& topo,
                                const WeightVariant& variant, uint64_t seed) {
  if (variant.max_weight == 0) {
    return ApplyWeightModel(topo, variant.model, seed);
  }
  Rng rng(seed);
  std::vector<Weight> w(topo.NumEdges());
  for (auto& x : w) {
    x = 1.0 + static_cast<double>(rng.NextBounded(variant.max_weight));
  }
  return topo.WithWeights(w);
}

void ExpectSameResult(const ScsResult& got, const ScsResult& want,
                      const char* context) {
  ASSERT_EQ(got.found, want.found) << context;
  if (!want.found) return;
  EXPECT_DOUBLE_EQ(got.significance, want.significance) << context;
  EXPECT_TRUE(SameEdgeSet(got.community, want.community)) << context;
}

// ------------------------------------------------ oracle agreement -------

TEST(ScsEngineTest, AllKernelsMatchBruteForceAcrossWeightModels) {
  BipartiteGraph topo;
  ASSERT_TRUE(GenErdosRenyiBipartite(60, 60, 650, 41, &topo).ok());
  // Shared pooled state across every query and kernel: a stale-state bug
  // in the workspace or scratch reuse would surface as a mismatch here.
  QueryScratch scratch;
  ScsWorkspace ws;
  for (const WeightVariant& variant : kVariants) {
    const BipartiteGraph g = MakeVariantGraph(topo, variant, 1000);
    const DeltaIndex index = DeltaIndex::Build(g);
    Rng rng(7);
    int nontrivial = 0;
    for (int trial = 0; trial < 25; ++trial) {
      const VertexId q =
          static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
      const uint32_t alpha = 1 + static_cast<uint32_t>(rng.NextBounded(5));
      const uint32_t beta = 1 + static_cast<uint32_t>(rng.NextBounded(5));
      const Subgraph c = index.QueryCommunity(q, alpha, beta);
      const ScsResult ref = ScsBruteForce(g, q, alpha, beta);
      ASSERT_EQ(ref.found, !c.Empty()) << variant.name;
      for (const ScsAlgo algo : {ScsAlgo::kAuto, ScsAlgo::kPeel,
                                 ScsAlgo::kExpand, ScsAlgo::kBinary}) {
        const ScsResult got =
            ScsQuery(g, c, q, alpha, beta, algo, {}, nullptr, &scratch, &ws);
        ExpectSameResult(got, ref, variant.name);
      }
      ExpectSameResult(ScsBinaryFreshPeel(g, c, q, alpha, beta), ref,
                       variant.name);
      if (trial < 5) {
        ExpectSameResult(
            ScsBaseline(g, q, alpha, beta, {}, nullptr, &scratch, &ws), ref,
            variant.name);
      }
      if (ref.found) ++nontrivial;
    }
    EXPECT_GT(nontrivial, 5) << variant.name << ": instance too sparse";
  }
}

TEST(ScsEngineTest, KernelsAgreeOnChungLuTopology) {
  BipartiteGraph topo;
  ASSERT_TRUE(GenChungLuBipartite(250, 250, 3200, 2.1, 2.1, 17, &topo).ok());
  QueryScratch scratch;
  ScsWorkspace ws;
  for (const WeightVariant& variant : kVariants) {
    const BipartiteGraph g = MakeVariantGraph(topo, variant, 2000);
    const DeltaIndex index = DeltaIndex::Build(g);
    Rng rng(9);
    for (int trial = 0; trial < 15; ++trial) {
      const VertexId q =
          static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
      const uint32_t t = 2 + static_cast<uint32_t>(rng.NextBounded(4));
      const Subgraph c = index.QueryCommunity(q, t, t);
      const ScsResult peel =
          ScsQuery(g, c, q, t, t, ScsAlgo::kPeel, {}, nullptr, &scratch, &ws);
      for (const ScsAlgo algo :
           {ScsAlgo::kAuto, ScsAlgo::kExpand, ScsAlgo::kBinary}) {
        const ScsResult got =
            ScsQuery(g, c, q, t, t, algo, {}, nullptr, &scratch, &ws);
        ExpectSameResult(got, peel, variant.name);
      }
    }
  }
}

// ------------------------------------- incremental probe equivalence -----

TEST(ScsEngineTest, IncrementalProbesMatchFreshPeelFeasibility) {
  BipartiteGraph topo;
  ASSERT_TRUE(GenErdosRenyiBipartite(50, 50, 550, 43, &topo).ok());
  QueryScratch scratch;
  for (const WeightVariant& variant : kVariants) {
    const BipartiteGraph g = MakeVariantGraph(topo, variant, 3000);
    const DeltaIndex index = DeltaIndex::Build(g);
    Rng rng(11);
    int probes_checked = 0;
    for (int trial = 0; trial < 20; ++trial) {
      const VertexId q =
          static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
      const uint32_t t = 1 + static_cast<uint32_t>(rng.NextBounded(4));
      const Subgraph c = index.QueryCommunity(q, t, t);
      if (c.Empty()) continue;
      LocalGraph lg(g, c.edges);
      std::vector<ScsProbe> probes;
      ScsResult incremental;
      ScsBinaryOnLocal(lg, q, t, t, &incremental, nullptr, scratch, &probes);
      // Every journaled probe must answer exactly what a from-scratch peel
      // of the same rank prefix answers.
      for (const ScsProbe& p : probes) {
        EXPECT_EQ(ScsFeasibleFreshPeel(lg, q, t, t, p.prefix_end), p.feasible)
            << variant.name << " q=" << q << " t=" << t
            << " prefix=" << p.prefix_end;
        ++probes_checked;
      }
      ExpectSameResult(incremental, ScsBinaryFreshPeel(g, c, q, t, t),
                       variant.name);
    }
    EXPECT_GT(probes_checked, 0) << variant.name;
  }
}

// --------------------------------------------------- batched execution ---

std::vector<QueryRequest> MixedRequests(const BipartiteGraph& g,
                                        std::size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<QueryRequest> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    requests.push_back(QueryRequest{
        static_cast<VertexId>(rng.NextBounded(g.NumVertices())),
        1 + static_cast<uint32_t>(rng.NextBounded(6)),
        1 + static_cast<uint32_t>(rng.NextBounded(6))});
  }
  return requests;
}

TEST(ScsEngineTest, BatchesDeterministicAcrossThreadCountsAndMatchSerial) {
  const BipartiteGraph g = RandomWeightedGraph(80, 80, 1100, 23, 6);
  const DeltaIndex delta = DeltaIndex::Build(g);
  const QueryEngine engine(g, QueryMethod::kDelta, &delta);
  const std::vector<QueryRequest> requests = MixedRequests(g, 60, 3);

  for (const ScsAlgo algo : {ScsAlgo::kAuto, ScsAlgo::kPeel, ScsAlgo::kExpand,
                             ScsAlgo::kBinary}) {
    ScsBatchOptions options;
    options.algo = algo;
    options.keep_communities = true;
    options.num_threads = 1;
    const ScsBatchResult serial = engine.RunScsBatch(requests, options);
    ASSERT_EQ(serial.outcomes.size(), requests.size());

    // Serial batch == direct per-query calls.
    QueryScratch scratch;
    ScsWorkspace ws;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const QueryRequest& r = requests[i];
      const Subgraph c = delta.QueryCommunity(r.q, r.alpha, r.beta);
      ScsStats stats;
      const ScsResult direct = ScsQuery(g, c, r.q, r.alpha, r.beta, algo, {},
                                        &stats, &scratch, &ws);
      EXPECT_EQ(serial.outcomes[i].found, direct.found) << i;
      EXPECT_EQ(serial.outcomes[i].community_edges, c.edges.size()) << i;
      EXPECT_EQ(serial.outcomes[i].result_edges, direct.community.edges.size())
          << i;
      EXPECT_DOUBLE_EQ(serial.outcomes[i].significance, direct.significance)
          << i;
      EXPECT_EQ(serial.outcomes[i].algo_used, stats.algo_used) << i;
      // The worker's per-query extraction takes the same code path, so the
      // retained community is byte-identical, not merely set-equal.
      EXPECT_EQ(serial.communities[i].edges, direct.community.edges) << i;
    }

    for (const unsigned threads : {2u, 3u, 4u, 5u, 8u}) {
      options.num_threads = threads;
      const ScsBatchResult mt = engine.RunScsBatch(requests, options);
      ASSERT_EQ(mt.outcomes.size(), serial.outcomes.size());
      for (std::size_t i = 0; i < requests.size(); ++i) {
        EXPECT_EQ(mt.outcomes[i].found, serial.outcomes[i].found);
        EXPECT_EQ(mt.outcomes[i].result_edges, serial.outcomes[i].result_edges);
        EXPECT_DOUBLE_EQ(mt.outcomes[i].significance,
                         serial.outcomes[i].significance);
        EXPECT_EQ(mt.outcomes[i].algo_used, serial.outcomes[i].algo_used);
        EXPECT_EQ(mt.outcomes[i].validations, serial.outcomes[i].validations);
        EXPECT_EQ(mt.outcomes[i].incremental_probes,
                  serial.outcomes[i].incremental_probes);
        EXPECT_EQ(mt.outcomes[i].edges_processed,
                  serial.outcomes[i].edges_processed);
        EXPECT_EQ(mt.communities[i].edges, serial.communities[i].edges);
      }
      // Aggregates over identical outcomes are identical too.
      EXPECT_EQ(mt.stats.num_found, serial.stats.num_found);
      EXPECT_EQ(mt.stats.total_result_edges, serial.stats.total_result_edges);
      EXPECT_EQ(mt.stats.edges_processed, serial.stats.edges_processed);
    }
  }
}

// ----------------------------------------------- zero-allocation steady --

TEST(ScsEngineTest, ZeroAllocationsSteadyState) {
  const BipartiteGraph g = RandomWeightedGraph(60, 60, 700, 29, 5);
  const DeltaIndex delta = DeltaIndex::Build(g);
  const QueryEngine engine(g, QueryMethod::kDelta, &delta);
  const std::vector<QueryRequest> requests = MixedRequests(g, 150, 13);

  for (const ScsAlgo algo : {ScsAlgo::kAuto, ScsAlgo::kPeel, ScsAlgo::kExpand,
                             ScsAlgo::kBinary}) {
    QueryScratch scratch;
    ScsWorkspace ws;
    Subgraph community;
    ScsResult out;
    auto run_all = [&]() {
      for (const QueryRequest& r : requests) {
        engine.Query(r, scratch, &community);
        ScsQueryInto(g, community, r.q, r.alpha, r.beta, algo, {}, &out,
                     nullptr, &scratch, &ws);
      }
    };
    run_all();  // warm-up: grow every pooled buffer to its high-water mark
    const uint64_t allocs = ::abcs::testing::AllocCount();
    run_all();  // steady state
    EXPECT_EQ(::abcs::testing::AllocCount(), allocs)
        << "algo=" << ScsAlgoName(algo);
  }
}

// ------------------------------------------------------- planner shape ---

TEST(ScsEngineTest, PlannerRoutesPlantedTinyPrefixToExpand) {
  // A small high-weight block planted inside a big low-weight blob: q's
  // threshold-th strongest edge sits in the tiny top batch, so the
  // batch-aligned prefix proxy is far below the Expand threshold — the
  // regime where Expand touches O(ε·size(R)) edges while Peel and Binary
  // pay a full O(size(C)) stabilisation.
  GraphBuilder builder;
  Rng rng(77);
  const uint32_t kBlob = 300;
  for (uint32_t u = 0; u < kBlob; ++u) {
    for (int k = 0; k < 6; ++k) {
      builder.AddEdge(u, static_cast<uint32_t>(rng.NextBounded(kBlob)),
                      1.0 + rng.NextBounded(5));
    }
  }
  for (uint32_t i = 0; i < 4; ++i) {
    for (uint32_t j = 0; j < 4; ++j) builder.AddEdge(i, j, 100.0);
  }
  BipartiteGraph g;
  ASSERT_TRUE(builder.Build(&g).ok());
  const DeltaIndex index = DeltaIndex::Build(g);
  const Subgraph c = index.QueryCommunity(0, 3, 3);
  ASSERT_FALSE(c.Empty());
  LocalGraph lg(g, c.edges);
  ASSERT_GT(lg.NumEdges(), 512u);
  EXPECT_EQ(PlanScsAlgo(lg, 0, 3, 3), ScsAlgo::kExpand);
}

TEST(ScsEngineTest, PlannerDefaultsToPeelWhenPrefixIsNotThin) {
  // Uniform small-integer weights: q's threshold-th edge lands in a batch
  // covering a large share of C, so the cheap-constant Peel is the pick.
  const BipartiteGraph g = RandomWeightedGraph(80, 80, 1400, 31, 4);
  const DeltaIndex index = DeltaIndex::Build(g);
  Rng rng(8);
  int checked = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const VertexId q = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    const Subgraph c = index.QueryCommunity(q, 2, 2);
    if (c.Empty()) continue;
    LocalGraph lg(g, c.edges);
    if (lg.NumEdges() <= 512) continue;
    // With ≤ 4 distinct weights every batch holds ≳ m/4 edges, so the
    // batch-aligned prefix can never look thin.
    EXPECT_EQ(PlanScsAlgo(lg, q, 2, 2), ScsAlgo::kPeel);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(ScsEngineTest, PlannerFallsBackToPeelOnTinyCommunities) {
  const BipartiteGraph g = RandomWeightedGraph(20, 20, 150, 31, 4);
  const DeltaIndex index = DeltaIndex::Build(g);
  const Subgraph c = index.QueryCommunity(0, 2, 2);
  if (c.Empty()) GTEST_SKIP();
  LocalGraph lg(g, c.edges);
  ASSERT_LE(lg.NumEdges(), 512u);
  EXPECT_EQ(PlanScsAlgo(lg, 0, 2, 2), ScsAlgo::kPeel);
}

}  // namespace
}  // namespace abcs
