#include "replay.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "abcore/offsets.h"
#include "core/bicore_index.h"
#include "core/delta_index.h"
#include "core/maintenance.h"
#include "core/query_engine.h"
#include "serve/memo.h"
#include "serve/scheduler.h"

namespace perfbench {

using abcs::serve::UpdateOp;
using abcs::serve::WireRequest;
using abcs::serve::WireResponse;

namespace {

/// Requests of the memo replays: the open loop's first 512.
std::vector<WireRequest> MemoRequests(const Inputs& in) {
  const std::size_t n = std::min<std::size_t>(512, in.open.size());
  return {in.open.begin(), in.open.begin() + static_cast<std::ptrdiff_t>(n)};
}

abcs::QueryRequest ToQuery(const WireRequest& r, uint32_t num_upper) {
  return {UnifiedVertex(r, num_upper), r.alpha, r.beta};
}

/// Fills `memo` at `epoch` with the answers to `reqs` on (g, delta), as a
/// server would after serving them.
void WarmMemo(abcs::serve::QueryMemo* memo, const abcs::BipartiteGraph& g,
              const abcs::DeltaIndex& delta, const std::vector<WireRequest>& reqs,
              uint64_t epoch) {
  const abcs::QueryEngine engine(g, abcs::QueryMethod::kDelta, &delta);
  abcs::QueryScratch scratch;
  abcs::Subgraph community;
  memo->SetEpoch(epoch);
  for (const WireRequest& r : reqs) {
    const abcs::QueryRequest q = ToQuery(r, g.NumUpper());
    engine.Query(q, scratch, &community);
    abcs::serve::MemoValue v;
    v.found = !community.Empty();
    v.num_edges = static_cast<uint32_t>(community.edges.size());
    memo->Insert(r.method, r.alpha, r.beta, q.q, g, community, v, epoch);
  }
}

void ReplayRetrieval(const WorkloadSpec& spec, const Inputs& in,
                     const abcs::IndexBundle& bundle, SpanLog* log,
                     Metrics* out) {
  const abcs::BipartiteGraph& g = bundle.graph();
  const abcs::QueryEngine engine(g, abcs::QueryMethod::kDelta,
                                 &bundle.delta_index());
  abcs::QueryScratch scratch;
  abcs::Subgraph community;
  const std::size_t n = std::min<std::size_t>(spec.replay_retrieve, in.open.size());
  std::vector<double> us;
  uint64_t edges = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const abcs::QueryRequest q = ToQuery(in.open[i], g.NumUpper());
    const Clock::time_point t0 = Clock::now();
    engine.Query(q, scratch, &community);
    const Clock::time_point t1 = Clock::now();
    log->Add("core.retrieve", t0, t1, RequestId(Phase::kOpen, i));
    us.push_back(Seconds(t0, t1) * 1e6);
    edges += community.edges.size();
  }
  out->push_back({"core.retrieve_us_p50", Quantile(us, 0.5), "us"});
  out->push_back({"core.retrieve_us_p99", Quantile(us, 0.99), "us"});
  out->push_back({"core.retrieve_edges", static_cast<double>(edges), "edges"});
}

void ReplayScs(const WorkloadSpec& spec, const Inputs& in,
               const abcs::IndexBundle& bundle, SpanLog* log, Metrics* out) {
  const abcs::BipartiteGraph& g = bundle.graph();
  const abcs::QueryEngine engine(g, abcs::QueryMethod::kDelta,
                                 &bundle.delta_index());
  std::vector<abcs::QueryRequest> reqs;
  for (std::size_t i = 0; i < std::min<std::size_t>(spec.replay_scs, in.open.size()); ++i) {
    reqs.push_back(ToQuery(in.open[i], g.NumUpper()));
  }
  abcs::ScsBatchOptions opts;
  opts.algo = abcs::ScsAlgo::kAuto;
  opts.num_threads = 1;
  Clock::time_point t0 = Clock::now();
  const abcs::ScsBatchResult serial = engine.RunScsBatch(reqs, opts);
  log->Add("core.scs_batch_serial", t0, Clock::now(), RequestId(Phase::kReplay, 1));
  std::vector<double> us;
  for (const abcs::ScsOutcome& o : serial.outcomes) {
    us.push_back((o.seconds - o.retrieve_seconds) * 1e6);
  }
  opts.num_threads = spec.workers;
  t0 = Clock::now();
  const abcs::ScsBatchResult parallel = engine.RunScsBatch(reqs, opts);
  log->Add("core.scs_batch_parallel", t0, Clock::now(), RequestId(Phase::kReplay, 2));
  out->push_back({"core.scs_us_p50", Quantile(us, 0.5), "us"});
  out->push_back({"core.scs_us_p99", Quantile(us, 0.99), "us"});
  out->push_back({"core.scs_edges_processed",
                  static_cast<double>(serial.stats.edges_processed), "count"});
  out->push_back({"core.scs_validations",
                  static_cast<double>(serial.stats.validations), "count"});
  out->push_back({"core.scs_incremental_probes",
                  static_cast<double>(serial.stats.incremental_probes), "count"});
  out->push_back({"core.batch_qps", parallel.QueriesPerSecond(), "queries/s"});
}

/// The commit path as `SnapshotManager` runs it, one timed call at a
/// time: apply each op, export the graph, export the decomposition when
/// the server would, rebuild I_δ and I_v, then invalidate a memo holding
/// the workload's answers at the previous epoch.
void ReplayCommits(const WorkloadSpec& spec, const Inputs& in,
                   const abcs::IndexBundle& bundle, SpanLog* log,
                   Accounting* acct, Metrics* out) {
  const abcs::BipartiteGraph& g0 = bundle.graph();
  const uint32_t nu = g0.NumUpper();
  abcs::DynamicDeltaIndex dyn(g0, &bundle.decomposition());
  const std::vector<WireRequest> warm = MemoRequests(in);

  std::shared_ptr<const abcs::BipartiteGraph> graph;  // null: the bundle's
  std::shared_ptr<const abcs::DeltaIndex> delta;
  std::shared_ptr<const abcs::BicoreDecomposition> decomp;
  std::vector<double> apply_us, export_graph_ms, export_decomp_ms, delta_ms,
      bicore_ms, invalidate_us;
  const std::size_t nb = std::min<std::size_t>(spec.replay_batches, in.batches.size());
  for (std::size_t b = 0; b < nb; ++b) {
    const uint64_t id = RequestId(Phase::kReplay, (uint64_t{1} << 40) | b);
    for (const WireRequest& op : in.batches[b].ops) {
      const Clock::time_point t0 = Clock::now();
      abcs::Status st;
      switch (op.op) {
        case UpdateOp::kInsertEdge:
          st = dyn.InsertEdge(op.u, nu + op.v, op.weight);
          break;
        case UpdateOp::kRemoveEdge:
          st = dyn.RemoveEdge(op.u, nu + op.v);
          break;
        default:
          st = dyn.UpdateWeight(op.u, nu + op.v, op.weight);
          break;
      }
      const Clock::time_point t1 = Clock::now();
      log->Add("core.apply", t0, t1, id);
      apply_us.push_back(Seconds(t0, t1) * 1e6);
      acct->Add(OpKind::kUpdate, st.ok());
      if (!st.ok()) ReportFailure("replayed update: " + st.ToString());
    }
    const abcs::UpdateSummary summary = dyn.DrainSummary();
    Clock::time_point t0 = Clock::now();
    auto next_graph =
        std::make_shared<const abcs::BipartiteGraph>(dyn.ExportGraph());
    Clock::time_point t1 = Clock::now();
    log->Add("core.export_graph", t0, t1, id);
    export_graph_ms.push_back(Seconds(t0, t1) * 1e3);
    // SnapshotManager::Publish re-exports the decomposition on its first
    // publish and on every topology change.
    if (summary.topology_changed || summary.delta_changed || !decomp) {
      t0 = Clock::now();
      decomp = std::make_shared<const abcs::BicoreDecomposition>(
          dyn.ExportDecomposition());
      t1 = Clock::now();
      log->Add("core.export_decomp", t0, t1, id);
      export_decomp_ms.push_back(Seconds(t0, t1) * 1e3);
    }
    t0 = Clock::now();
    auto next_delta = std::make_shared<const abcs::DeltaIndex>(
        abcs::DeltaIndex::Build(*next_graph, decomp.get(), 1));
    t1 = Clock::now();
    log->Add("core.publish_delta_build", t0, t1, id);
    delta_ms.push_back(Seconds(t0, t1) * 1e3);
    t0 = Clock::now();
    const abcs::BicoreIndex bicore =
        abcs::BicoreIndex::Build(*next_graph, decomp.get(), 1);
    t1 = Clock::now();
    log->Add("core.publish_bicore_build", t0, t1, id);
    bicore_ms.push_back(Seconds(t0, t1) * 1e3);

    // The memo as the server's would hold it: the workload's answers at
    // the previous epoch. Touched vertices get the one-hop expansion in
    // the new graph, as Publish does.
    abcs::serve::QueryMemo memo;
    const uint64_t epoch = b + 1;
    WarmMemo(&memo, graph ? *graph : g0, delta ? *delta : bundle.delta_index(),
             warm, epoch);
    std::vector<uint8_t> touched(next_graph->NumVertices(), 0);
    for (const abcs::VertexId x : summary.touched) {
      if (x < touched.size()) touched[x] = 1;
    }
    for (const abcs::VertexId x : summary.touched) {
      if (x >= next_graph->NumVertices()) continue;
      for (const abcs::Arc& a : next_graph->Neighbors(x)) touched[a.to] = 1;
    }
    t0 = Clock::now();
    memo.AdvanceEpoch(epoch + 1, summary.topology_changed,
                      summary.delta_changed, touched);
    t1 = Clock::now();
    log->Add("serve.memo_invalidate", t0, t1, id);
    invalidate_us.push_back(Seconds(t0, t1) * 1e6);
    graph = std::move(next_graph);
    delta = std::move(next_delta);
  }
  out->push_back({"core.apply_us_p50", Median(apply_us), "us"});
  out->push_back({"core.export_graph_ms", Median(export_graph_ms), "ms"});
  out->push_back({"core.export_decomp_ms", Median(export_decomp_ms), "ms"});
  out->push_back({"core.publish_delta_build_ms", Median(delta_ms), "ms"});
  out->push_back({"core.publish_bicore_build_ms", Median(bicore_ms), "ms"});
  out->push_back({"serve.memo_invalidate_us", Median(invalidate_us), "us"});
}

void ReplayCodec(const Inputs& in, const std::vector<WireResponse>& responses,
                 SpanLog* log, Metrics* out) {
  const std::size_t n = std::min(in.open.size(), responses.size());
  std::vector<std::byte> req_bytes;
  std::vector<std::byte> resp_bytes;
  WireRequest req;
  WireResponse resp;
  uint64_t rounds = 0;
  uint64_t bad = 0;
  const Clock::time_point t0 = Clock::now();
  while (n > 0 && rounds < 200000) {
    for (std::size_t i = 0; i < n; ++i, ++rounds) {
      req_bytes.clear();
      abcs::serve::EncodeRequest(in.open[i], &req_bytes);
      bad += !abcs::serve::DecodeRequest(req_bytes, &req).ok();
      resp_bytes.clear();
      abcs::serve::EncodeResponse(responses[i], &resp_bytes);
      bad += !abcs::serve::DecodeResponse(resp_bytes, &resp).ok();
    }
  }
  const Clock::time_point t1 = Clock::now();
  log->Add("serve.codec", t0, t1, RequestId(Phase::kReplay, 3));
  if (bad != 0) ReportFailure("codec round trip rejected its own bytes");
  out->push_back({"serve.codec_ns",
                  rounds == 0 ? 0.0 : Seconds(t0, t1) * 1e9 / static_cast<double>(rounds),
                  "ns"});
}

/// Push → Pop handoff latency at the server's worker count: one task in
/// flight at a time, so the figure is the wake-up, not queueing.
void ReplayScheduler(const WorkloadSpec& spec, SpanLog* log, Metrics* out) {
  struct Task {
    Clock::time_point pushed;
  };
  constexpr int kHandoffs = 20000;
  abcs::serve::TaskScheduler<Task> sched(spec.workers, 1024);
  std::atomic<int> consumed{0};
  std::vector<std::vector<double>> ns(spec.workers);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < spec.workers; ++t) {
    workers.emplace_back([&, t] {
      Task task;
      while (sched.Pop(t, &task)) {
        ns[t].push_back(Seconds(task.pushed, Clock::now()) * 1e9);
        consumed.fetch_add(1, std::memory_order_release);
      }
    });
  }
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kHandoffs; ++i) {
    sched.Push(Task{Clock::now()}, static_cast<unsigned>(i));
    while (consumed.load(std::memory_order_acquire) <= i) {
      std::this_thread::yield();
    }
  }
  sched.Close();
  for (std::thread& w : workers) w.join();
  log->Add("serve.scheduler_handoffs", t0, Clock::now(), RequestId(Phase::kReplay, 4));
  std::vector<double> all;
  for (const auto& v : ns) all.insert(all.end(), v.begin(), v.end());
  out->push_back({"serve.scheduler_ns", Median(all), "ns"});
}

void ReplayMemoLookup(const Inputs& in, const abcs::IndexBundle& bundle,
                      SpanLog* log, Metrics* out) {
  const std::vector<WireRequest> reqs = MemoRequests(in);
  abcs::serve::QueryMemo memo;
  WarmMemo(&memo, bundle.graph(), bundle.delta_index(), reqs, 1);
  const uint32_t nu = bundle.graph().NumUpper();
  abcs::serve::MemoValue v;
  uint64_t lookups = 0;
  uint64_t hits = 0;
  const Clock::time_point t0 = Clock::now();
  while (!reqs.empty() && lookups < 200000) {
    for (const WireRequest& r : reqs) {
      hits += memo.Lookup(r.method, r.alpha, r.beta, UnifiedVertex(r, nu), &v, 1);
      ++lookups;
    }
  }
  const Clock::time_point t1 = Clock::now();
  log->Add("serve.memo_lookups", t0, t1, RequestId(Phase::kReplay, 5));
  if (hits != lookups) ReportFailure("warm memo missed a warmed key");
  out->push_back({"serve.memo_lookup_ns",
                  lookups == 0 ? 0.0 : Seconds(t0, t1) * 1e9 / static_cast<double>(lookups),
                  "ns"});
}

}  // namespace

void ReplayLayers(const WorkloadSpec& spec, const Inputs& inputs,
                  const abcs::IndexBundle& bundle,
                  const std::vector<WireResponse>& responses, SpanLog* log,
                  Accounting* acct, Metrics* out) {
  ReplayRetrieval(spec, inputs, bundle, log, out);
  ReplayScs(spec, inputs, bundle, log, out);
  ReplayCommits(spec, inputs, bundle, log, acct, out);
  ReplayCodec(inputs, responses, log, out);
  ReplayScheduler(spec, log, out);
  ReplayMemoLookup(inputs, bundle, log, out);
}

}  // namespace perfbench
