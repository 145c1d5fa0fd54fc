// The three workloads and the seeded generator of their inputs. The
// program under test receives only what MakeInputs returns.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "reference.h"
#include "serve/protocol.h"

namespace perfbench {

struct MethodShare {
  abcs::serve::WireMethod method;
  uint32_t permille;
};

struct WorkloadSpec {
  const char* name;
  const char* dataset;  ///< registry dataset the graph is generated from
  /// The (α,β) grid; query vertices come from each pair's core.
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  std::vector<MethodShare> mix;  ///< sums to 1000
  /// Zipf exponent over each pair's shuffled core vertices; 0 = uniform.
  double zipf_s;
  /// Send every distinct read once before the closed loop, so the
  /// measured phases run against a warm memo.
  bool warm_memo;

  unsigned workers;             ///< server worker threads
  unsigned closed_connections;  ///< closed-loop phase
  unsigned pipeline_depth;      ///< outstanding requests per connection
  double closed_share;          ///< share of --seconds in the closed loop
  std::size_t closed_stream;    ///< generated closed-loop requests (cycled)
  double open_rate_qps;         ///< open-loop offered rate, fixed spacing

  uint32_t reweight_ops;   ///< ops in a reweight-only batch
  uint32_t churn_inserts;  ///< inserts in an insert/remove batch
  uint32_t churn_removes;  ///< removes in an insert/remove batch
  /// Live workload: the writer runs beside both read phases, one batch per
  /// interval. Otherwise `commit_rounds` reweight + churn rounds run after
  /// the read phases.
  bool writer_beside_reads;
  double batch_interval_s;
  uint32_t commit_rounds;
  uint32_t probe_every;  ///< commits between probe sets (the last always)

  int setup_reps;          ///< set-ups per run; setup_s is their median
  uint32_t scs_sample;     ///< SCS answers checked by the threshold search
  uint32_t replay_retrieve;  ///< traced replay: retrievals timed
  uint32_t replay_scs;       ///< traced replay: SCS batch size
  uint32_t replay_batches;   ///< traced replay: update batches replayed
};

/// Null for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// One writer batch: mutations in order, then a commit.
struct Batch {
  bool churn = false;  ///< inserts/removes; otherwise reweights only
  std::vector<abcs::serve::WireRequest> ops;
};

struct Inputs {
  /// Distinct reads of `closed` and `open` in first-seen order; empty
  /// unless the spec warms the memo.
  std::vector<abcs::serve::WireRequest> warmup;
  std::vector<abcs::serve::WireRequest> closed;
  std::vector<abcs::serve::WireRequest> open;
  std::vector<Batch> batches;
  /// Sent by the writer after sampled commits and after the last one.
  std::vector<abcs::serve::WireRequest> probes;
  uint64_t digest = 0;
};

/// Unified vertex id of a request's query vertex.
inline uint32_t UnifiedVertex(const abcs::serve::WireRequest& r,
                              uint32_t num_upper) {
  return r.lower_side ? num_upper + r.q : r.q;
}

/// Builds every stream of a run from `seed`. `cores[i]` holds the
/// reference components of `spec.pairs[i]` on the initial graph.
Inputs MakeInputs(const WorkloadSpec& spec, const RefGraph& graph,
                  const std::vector<RefCores>& cores, uint64_t seed,
                  double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
