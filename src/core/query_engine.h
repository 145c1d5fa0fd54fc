#ifndef ABCS_CORE_QUERY_ENGINE_H_
#define ABCS_CORE_QUERY_ENGINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/bicore_index.h"
#include "core/delta_index.h"
#include "core/online_query.h"
#include "core/query_scratch.h"
#include "core/query_stats.h"
#include "core/scs_common.h"
#include "core/subgraph.h"
#include "graph/bipartite_graph.h"

namespace abcs {

/// Which retrieval algorithm serves a query: the index-free baseline `Qo`,
/// the bicore-index `Qv`, or the degeneracy-bounded `Qopt`.
enum class QueryMethod { kOnline, kBicore, kDelta };

/// Returns "online" / "bicore" / "delta".
const char* QueryMethodName(QueryMethod method);

/// One community retrieval request.
struct QueryRequest {
  VertexId q = 0;
  uint32_t alpha = 1;
  uint32_t beta = 1;
};

/// Deterministic per-query outcome (latency excluded from determinism).
struct QueryOutcome {
  uint32_t num_edges = 0;      ///< size(C_{α,β}(q))
  uint64_t touched_arcs = 0;   ///< work counter (see QueryStats)
  double seconds = 0.0;        ///< per-query latency
  /// The per-query deadline fired mid-execution: the query unwound
  /// cooperatively and answered empty. Always false when
  /// `BatchOptions::deadline_ms` is 0 (the default), so undeadlined
  /// batches stay bit-identical to the pre-cancellation engine.
  bool deadline_exceeded = false;
};

/// Aggregates over one batch.
struct BatchStats {
  uint64_t num_queries = 0;
  uint64_t num_nonempty = 0;
  uint64_t total_edges = 0;    ///< Σ size(C)
  uint64_t touched_arcs = 0;   ///< Σ per-query touched arcs
  double total_seconds = 0.0;  ///< Σ per-query latencies (CPU-side)
  double p50_seconds = 0.0;    ///< median per-query latency
  double p99_seconds = 0.0;    ///< 99th-percentile per-query latency
};

/// Options for `QueryEngine::RunBatch`.
struct BatchOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = serial (default).
  unsigned num_threads = 1;
  /// Retain every community's edge set in `BatchResult::communities`
  /// (costs one allocation per non-empty result; off for throughput runs).
  bool keep_communities = false;
  /// Per-query execution budget in milliseconds, enforced cooperatively
  /// inside the kernels (`CancelToken` through `QueryScratch`). 0 (the
  /// default) disarms the token entirely — one relaxed load per edge-op,
  /// bit-identical results. An overrunning query stops, answers empty and
  /// sets `QueryOutcome::deadline_exceeded`.
  uint32_t deadline_ms = 0;
};

/// Result of a batch run. `outcomes[i]` corresponds to `requests[i]`
/// regardless of the thread count, so everything except latencies is
/// deterministic.
struct BatchResult {
  std::vector<QueryOutcome> outcomes;
  std::vector<Subgraph> communities;  ///< filled iff keep_communities
  BatchStats stats;
  double wall_seconds = 0.0;
  unsigned num_threads_used = 0;  ///< resolved worker count

  double QueriesPerSecond() const {
    return wall_seconds > 0.0
               ? static_cast<double>(stats.num_queries) / wall_seconds
               : 0.0;
  }
};

/// Options for `QueryEngine::RunScsBatch`.
struct ScsBatchOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = serial (default).
  unsigned num_threads = 1;
  /// Kernel selection; kAuto lets the planner decide per query.
  ScsAlgo algo = ScsAlgo::kAuto;
  ScsOptions scs;
  /// Retain every R edge set in `ScsBatchResult::communities`.
  bool keep_communities = false;
  /// Per-query budget over retrieval + SCS together (see
  /// `BatchOptions::deadline_ms`). 0 = disarmed.
  uint32_t deadline_ms = 0;
};

/// Deterministic per-query SCS outcome (latency excluded from determinism).
struct ScsOutcome {
  bool found = false;
  uint32_t community_edges = 0;  ///< size(C_{α,β}(q)), the SCS input
  uint32_t result_edges = 0;     ///< size(R)
  Weight significance = 0;       ///< f(R)
  ScsAlgo algo_used = ScsAlgo::kPeel;  ///< planner decision (deterministic)
  uint32_t validations = 0;
  uint32_t incremental_probes = 0;
  uint64_t edges_processed = 0;
  double seconds = 0.0;           ///< retrieval + SCS latency
  double retrieve_seconds = 0.0;  ///< retrieval share of `seconds`
  /// The per-query deadline fired mid-execution (see QueryOutcome).
  bool deadline_exceeded = false;
};

/// Aggregates over one SCS batch.
struct ScsBatchStats {
  uint64_t num_queries = 0;
  uint64_t num_found = 0;
  uint64_t total_community_edges = 0;  ///< Σ size(C)
  uint64_t total_result_edges = 0;     ///< Σ size(R)
  uint64_t validations = 0;
  uint64_t incremental_probes = 0;
  uint64_t edges_processed = 0;
  /// Resolved-kernel histogram, indexed by ScsAlgo (kAuto slot unused).
  uint64_t algo_counts[4] = {0, 0, 0, 0};
  double total_seconds = 0.0;
  double retrieve_seconds = 0.0;  ///< Σ retrieval latencies
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
};

/// Result of an SCS batch. `outcomes[i]` matches `requests[i]` for every
/// thread count; only latencies vary.
struct ScsBatchResult {
  std::vector<ScsOutcome> outcomes;
  std::vector<Subgraph> communities;  ///< R per request iff keep_communities
  ScsBatchStats stats;
  double wall_seconds = 0.0;
  unsigned num_threads_used = 0;

  double QueriesPerSecond() const {
    return wall_seconds > 0.0
               ? static_cast<double>(stats.num_queries) / wall_seconds
               : 0.0;
  }
};

/// \brief Batched, multithreaded community-query driver.
///
/// Wraps the three retrieval paths behind one submission API: requests are
/// distributed over `num_threads` workers through a shared work-stealing
/// partition (core/work_steal.h: workers start with contiguous chunks and
/// steal half of the largest remaining chunk when theirs drains, so one
/// slow query does not stall the requests queued behind it), each
/// worker owns a `QueryScratch` and a reusable output `Subgraph`, so the
/// steady state of a batch performs zero heap allocations per query (the
/// paper's output-sensitive bound with no hidden O(n) clearing). The
/// indexes are immutable after construction, so concurrent queries need no
/// locking, and `outcomes[i]` is written by exactly one worker regardless
/// of who executes it — results are bit-identical for every thread count.
class QueryEngine {
 public:
  /// The engine borrows `g` and the indexes; they must outlive it. The
  /// index matching `method` must be non-null (`kOnline` needs neither).
  QueryEngine(const BipartiteGraph& g, QueryMethod method,
              const DeltaIndex* delta = nullptr,
              const BicoreIndex* bicore = nullptr)
      : graph_(&g), method_(method), delta_(delta), bicore_(bicore) {}

  QueryMethod method() const { return method_; }

  /// Runs one query through the configured path into caller-owned scratch
  /// and output (zero allocations after warm-up).
  void Query(const QueryRequest& request, QueryScratch& scratch,
             Subgraph* out, QueryStats* stats = nullptr) const;

  /// Runs `requests` over the configured worker count.
  BatchResult RunBatch(std::span<const QueryRequest> requests,
                       const BatchOptions& options = {}) const;

  /// Runs the full two-step paradigm per request — retrieve C_{α,β}(q)
  /// through the configured path, then extract the significant community
  /// with the selected SCS kernel (kAuto = per-query planner). Each worker
  /// owns one `QueryScratch` + `ScsWorkspace` + output buffers, so the
  /// steady state of a batch allocates nothing and results are
  /// bit-identical for every thread count.
  ScsBatchResult RunScsBatch(std::span<const QueryRequest> requests,
                             const ScsBatchOptions& options = {}) const;

 private:
  const BipartiteGraph* graph_;
  QueryMethod method_;
  const DeltaIndex* delta_;
  const BicoreIndex* bicore_;
};

}  // namespace abcs

#endif  // ABCS_CORE_QUERY_ENGINE_H_
