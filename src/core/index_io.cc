#include "core/index_io.h"

#include <bit>

#include "common/fnv.h"

namespace abcs {

uint64_t GraphTopologyChecksum(const BipartiteGraph& g) {
  Fnv1a64 fnv;
  fnv.Mix(g.NumUpper());
  fnv.Mix(g.NumLower());
  fnv.Mix(g.NumEdges());
  for (const Edge& e : g.Edges()) {
    fnv.Mix((static_cast<uint64_t>(e.u) << 32) | e.v);
  }
  return fnv.h;
}

uint64_t GraphWeightChecksum(const BipartiteGraph& g) {
  Fnv1a64 fnv;
  fnv.Mix(g.NumEdges());
  // Bit-exact digest: any change a weight model can make (including sign
  // of zero or NaN payloads) changes the digest.
  for (const Edge& e : g.Edges()) fnv.Mix(std::bit_cast<uint64_t>(e.w));
  return fnv.h;
}

}  // namespace abcs
