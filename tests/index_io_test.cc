// Pins the graph fingerprints the bundle header stores: the topology
// checksum ignores weights, the weight digest sees every weight bit.

#include <gtest/gtest.h>

#include <vector>

#include "core/index_io.h"
#include "test_util.h"

namespace abcs {
namespace {

using ::abcs::testing::RandomWeightedGraph;

TEST(TopologyChecksumTest, SensitiveToTopologyNotWeights) {
  BipartiteGraph g = RandomWeightedGraph(20, 20, 150, 10);
  const uint64_t base = GraphTopologyChecksum(g);
  // Same topology, different weights: checksum unchanged (I_δ stores no
  // weights, so a reweighted graph may reuse the index).
  std::vector<Weight> w(g.NumEdges(), 42.0);
  EXPECT_EQ(GraphTopologyChecksum(g.WithWeights(w)), base);
  // Different topology: checksum changes.
  BipartiteGraph g2 = RandomWeightedGraph(20, 20, 150, 11);
  EXPECT_NE(GraphTopologyChecksum(g2), base);
}

TEST(WeightChecksumTest, SensitiveToWeightsExactly) {
  BipartiteGraph g = RandomWeightedGraph(20, 20, 150, 12);
  const uint64_t base = GraphWeightChecksum(g);
  // Deterministic rebuild of the same weights: digest unchanged.
  std::vector<Weight> same(g.Edges().size());
  for (EdgeId e = 0; e < g.NumEdges(); ++e) same[e] = g.GetWeight(e);
  EXPECT_EQ(GraphWeightChecksum(g.WithWeights(same)), base);
  // One edge re-scored: digest changes — the topology checksum's blind
  // spot that the bundle header closes.
  same[0] += 0.5;
  EXPECT_NE(GraphWeightChecksum(g.WithWeights(same)), base);
  EXPECT_EQ(GraphTopologyChecksum(g.WithWeights(same)),
            GraphTopologyChecksum(g));
}

}  // namespace
}  // namespace abcs
