#include "core/query_engine.h"

#include <algorithm>
#include <thread>

#include "common/timer.h"
#include "core/scs_auto.h"
#include "core/work_steal.h"

namespace {

// Nearest-rank percentile over the (sorted in-place) latency vector.
void FillPercentiles(std::vector<double>& latencies, double* p50, double* p99) {
  if (latencies.empty()) return;
  std::sort(latencies.begin(), latencies.end());
  const std::size_t k = latencies.size();
  *p50 = latencies[(k * 50 + 99) / 100 - 1];
  *p99 = latencies[(k * 99 + 99) / 100 - 1];
}

// Runs `body(t, i)` for every i in [0, n), exactly once each, across
// `num_threads` work-stealing workers, which redistribute the indices
// queued behind a slow query. Which worker executes an index never affects
// the result — `body` writes only slot i — so batches are bit-identical
// for every thread count.
template <typename Body>
void DispatchLoop(std::size_t n, unsigned num_threads, Body&& body) {
  if (num_threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(0u, i);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  // Declared before the thread spawns so it outlives them through the
  // join below. The packed ranges hold 32-bit bounds; a batch large
  // enough to overflow them (> 4G requests) cannot be materialised anyway.
  abcs::WorkStealingRanges ranges(n, num_threads);
  for (unsigned t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = ranges.Next(t);
           i != abcs::WorkStealingRanges::kDone; i = ranges.Next(t)) {
        body(t, i);
      }
    });
  }
  for (std::thread& th : threads) th.join();
}

}  // namespace

namespace abcs {

const char* QueryMethodName(QueryMethod method) {
  switch (method) {
    case QueryMethod::kOnline:
      return "online";
    case QueryMethod::kBicore:
      return "bicore";
    case QueryMethod::kDelta:
      return "delta";
  }
  return "unknown";
}

void QueryEngine::Query(const QueryRequest& request, QueryScratch& scratch,
                        Subgraph* out, QueryStats* stats) const {
  switch (method_) {
    case QueryMethod::kOnline:
      QueryCommunityOnline(*graph_, request.q, request.alpha, request.beta,
                           scratch, out, stats);
      break;
    case QueryMethod::kBicore:
      bicore_->QueryCommunity(request.q, request.alpha, request.beta, scratch,
                              out, stats);
      break;
    case QueryMethod::kDelta:
      delta_->QueryCommunity(request.q, request.alpha, request.beta, scratch,
                             out, stats);
      break;
  }
}

BatchResult QueryEngine::RunBatch(std::span<const QueryRequest> requests,
                                  const BatchOptions& options) const {
  BatchResult result;
  result.outcomes.resize(requests.size());
  if (options.keep_communities) result.communities.resize(requests.size());

  unsigned num_threads =
      options.num_threads ? options.num_threads
                          : std::max(1u, std::thread::hardware_concurrency());
  result.num_threads_used = num_threads;
  if (requests.empty()) return result;
  num_threads = static_cast<unsigned>(
      std::min<std::size_t>(num_threads, requests.size()));
  result.num_threads_used = num_threads;

  // Each executed index writes only its own outcome slot, so no
  // synchronisation is needed and `outcomes[i]` always matches
  // `requests[i]` — results are bit-identical for every thread count.
  // Worker-local scratch lives in `states[t]`; a slot is only ever touched
  // by thread t.
  struct WorkerState {
    QueryScratch scratch;
    Subgraph out;
    CancelToken token;  ///< deadline budget; disarmed when deadline_ms = 0
  };
  std::vector<WorkerState> states(num_threads);
  auto body = [&](unsigned t, std::size_t i) {
    WorkerState& ws = states[t];
    const bool budgeted = options.deadline_ms > 0;
    if (budgeted) {
      ws.scratch.set_cancel_token(&ws.token);
      ws.token.Arm(options.deadline_ms);
    }
    QueryStats stats;
    Timer timer;
    Query(requests[i], ws.scratch, &ws.out, &stats);
    QueryOutcome& outcome = result.outcomes[i];
    outcome.seconds = timer.Seconds();
    outcome.num_edges = static_cast<uint32_t>(ws.out.edges.size());
    outcome.touched_arcs = stats.touched_arcs;
    if (budgeted) {
      outcome.deadline_exceeded = ws.token.Stopped();
      ws.token.Finish();
      ws.scratch.set_cancel_token(nullptr);
    }
    if (options.keep_communities) result.communities[i] = ws.out;
  };

  Timer wall;
  DispatchLoop(requests.size(), num_threads, body);
  result.wall_seconds = wall.Seconds();

  BatchStats& stats = result.stats;
  stats.num_queries = requests.size();
  std::vector<double> latencies;
  latencies.reserve(result.outcomes.size());
  for (const QueryOutcome& o : result.outcomes) {
    if (o.num_edges > 0) ++stats.num_nonempty;
    stats.total_edges += o.num_edges;
    stats.touched_arcs += o.touched_arcs;
    stats.total_seconds += o.seconds;
    latencies.push_back(o.seconds);
  }
  FillPercentiles(latencies, &stats.p50_seconds, &stats.p99_seconds);
  return result;
}

ScsBatchResult QueryEngine::RunScsBatch(std::span<const QueryRequest> requests,
                                        const ScsBatchOptions& options) const {
  ScsBatchResult result;
  result.outcomes.resize(requests.size());
  if (options.keep_communities) result.communities.resize(requests.size());

  unsigned num_threads =
      options.num_threads ? options.num_threads
                          : std::max(1u, std::thread::hardware_concurrency());
  if (requests.empty()) {
    result.num_threads_used = num_threads;
    return result;
  }
  num_threads = static_cast<unsigned>(
      std::min<std::size_t>(num_threads, requests.size()));
  result.num_threads_used = num_threads;

  // Same slot ownership as RunBatch; additionally each worker pools one
  // ScsWorkspace (LocalGraph + expand state) and one ScsResult, so after
  // warm-up a worker's queries run allocation-free end to end: retrieval
  // scratch, rank sort buffers, peel state and the R edge vector all
  // reuse capacity.
  struct WorkerState {
    QueryScratch scratch;
    ScsWorkspace workspace;
    Subgraph community;
    ScsResult scs;
    CancelToken token;  ///< deadline budget; disarmed when deadline_ms = 0
  };
  std::vector<WorkerState> states(num_threads);
  auto body = [&](unsigned t, std::size_t i) {
    WorkerState& ws = states[t];
    const QueryRequest& r = requests[i];
    const bool budgeted = options.deadline_ms > 0;
    if (budgeted) {
      ws.scratch.set_cancel_token(&ws.token);
      ws.token.Arm(options.deadline_ms);
    }
    Timer timer;
    Query(r, ws.scratch, &ws.community, nullptr);
    const double retrieve_s = timer.Seconds();
    ScsStats stats;
    ScsQueryInto(*graph_, ws.community, r.q, r.alpha, r.beta, options.algo,
                 options.scs, &ws.scs, &stats, &ws.scratch, &ws.workspace);
    ScsOutcome& o = result.outcomes[i];
    o.seconds = timer.Seconds();
    o.retrieve_seconds = retrieve_s;
    if (budgeted) {
      o.deadline_exceeded = ws.token.Stopped();
      ws.token.Finish();
      ws.scratch.set_cancel_token(nullptr);
      if (o.deadline_exceeded) {
        // "Stopped" is authoritative even when a kernel had already
        // committed a result (the deadline can fire between the final
        // extraction and the outer loop's guard): a budget-blown query
        // always answers empty, so callers never see a possibly
        // suboptimal R from an abandoned probe sequence.
        ws.scs.found = false;
        ws.scs.community.edges.clear();
        ws.scs.significance = 0;
      }
    }
    o.found = ws.scs.found;
    o.community_edges = static_cast<uint32_t>(ws.community.edges.size());
    o.result_edges = static_cast<uint32_t>(ws.scs.community.edges.size());
    o.significance = ws.scs.significance;
    o.algo_used = stats.algo_used;
    o.validations = stats.validations;
    o.incremental_probes = stats.incremental_probes;
    o.edges_processed = stats.edges_processed;
    if (options.keep_communities) result.communities[i] = ws.scs.community;
  };

  Timer wall;
  DispatchLoop(requests.size(), num_threads, body);
  result.wall_seconds = wall.Seconds();

  ScsBatchStats& stats = result.stats;
  stats.num_queries = requests.size();
  std::vector<double> latencies;
  latencies.reserve(result.outcomes.size());
  for (const ScsOutcome& o : result.outcomes) {
    if (o.found) ++stats.num_found;
    stats.total_community_edges += o.community_edges;
    stats.total_result_edges += o.result_edges;
    stats.validations += o.validations;
    stats.incremental_probes += o.incremental_probes;
    stats.edges_processed += o.edges_processed;
    // Empty retrievals never enter a kernel — keep them out of the
    // planner-decision histogram.
    if (o.community_edges > 0) {
      ++stats.algo_counts[static_cast<std::size_t>(o.algo_used)];
    }
    stats.total_seconds += o.seconds;
    stats.retrieve_seconds += o.retrieve_seconds;
    latencies.push_back(o.seconds);
  }
  FillPercentiles(latencies, &stats.p50_seconds, &stats.p99_seconds);
  return result;
}

}  // namespace abcs
