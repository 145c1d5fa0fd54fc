#ifndef ABCS_CORE_INDEX_IO_H_
#define ABCS_CORE_INDEX_IO_H_

#include <cstdint>

#include "graph/bipartite_graph.h"

namespace abcs {

// Graph fingerprints that tie a persisted index to the graph it was built
// from. The `ABCSPAK2` bundle header (io/index_bundle.h) stores both, and
// `VerifyBundleMatchesGraph` compares them against a supplied edge list so
// a stale index fails loudly instead of serving wrong communities.

/// Topology checksum used for index/graph matching (FNV-1a over the edge
/// list; weights are excluded because I_δ stores none).
uint64_t GraphTopologyChecksum(const BipartiteGraph& g);

/// Weight digest: FNV-1a over the bit patterns of the edge weights, in
/// EdgeId order. Complements GraphTopologyChecksum — the bundle header
/// stores both, so a bundle whose graph kept its topology but changed its
/// significances (re-scored ratings, fresh RWR run) is rejected instead of
/// silently serving wrong BicoreIndex/SCS answers.
uint64_t GraphWeightChecksum(const BipartiteGraph& g);

}  // namespace abcs

#endif  // ABCS_CORE_INDEX_IO_H_
