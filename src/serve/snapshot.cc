#include "serve/snapshot.h"

#include <cstdio>
#include <utility>

#include "io/index_bundle.h"

namespace abcs::serve {

namespace {

/// A non-owning pointer, for state whose owner outlives every pin by
/// contract (the manager's seed).
template <typename T>
std::shared_ptr<const T> Borrow(const T* p) {
  return std::shared_ptr<const T>(std::shared_ptr<const T>(), p);
}

/// `prev` with each of `reweights` applied: topology and edge ids are
/// untouched, so indexes built on `prev`'s topology stay exact.
BipartiteGraph Reweighted(const BipartiteGraph& prev,
                          const std::vector<Edge>& reweights) {
  std::vector<Weight> weights(prev.NumEdges());
  for (EdgeId e = 0; e < prev.NumEdges(); ++e) weights[e] = prev.GetWeight(e);
  for (const Edge& r : reweights) {
    for (const Arc& a : prev.Neighbors(r.u)) {
      if (a.to == r.v) {
        weights[a.eid] = r.w;
        break;
      }
    }
  }
  return prev.WithWeights(weights);
}

}  // namespace

Snapshot::Snapshot(uint64_t epoch, std::shared_ptr<const BipartiteGraph> graph,
                   std::shared_ptr<const BipartiteGraph> index_graph,
                   std::shared_ptr<const BicoreDecomposition> decomp,
                   std::shared_ptr<const DeltaIndex> delta,
                   std::shared_ptr<const BicoreIndex> bicore)
    : epoch_(epoch),
      graph_(std::move(graph)),
      index_graph_(std::move(index_graph)),
      decomp_(std::move(decomp)),
      delta_(std::move(delta)),
      bicore_(std::move(bicore)),
      online_engine_(*graph_, QueryMethod::kOnline),
      bicore_engine_(*graph_, QueryMethod::kBicore, nullptr, bicore_.get()),
      delta_engine_(*graph_, QueryMethod::kDelta, delta_.get()) {}

SnapshotManager::SnapshotManager(const BipartiteGraph& g,
                                 const DeltaIndex* delta,
                                 const BicoreIndex* bicore,
                                 const BicoreDecomposition* decomp,
                                 SnapshotManagerOptions options)
    : options_(std::move(options)),
      last_graph_(Borrow(&g)),
      index_graph_(last_graph_),
      last_decomp_(Borrow(decomp)),
      last_delta_(Borrow(delta)),
      last_bicore_(Borrow(bicore)) {
  current_ = std::make_shared<const Snapshot>(1, last_graph_, index_graph_,
                                              nullptr, last_delta_,
                                              last_bicore_);
}

SnapshotManager::~SnapshotManager() { Drain(); }

void SnapshotManager::set_publish_hook(PublishHook hook) {
  publish_hook_ = std::move(hook);
}

Status SnapshotManager::Start() {
  if (started_) return Status::InvalidArgument("manager already started");
  // The one O(n·δ + m) fork of the served state into the writer's mutable
  // copy; with a decomposition in hand (the bundle restart path) this is
  // copies only, no peels.
  dyn_ = std::make_unique<DynamicDeltaIndex>(*last_graph_, last_decomp_.get());
  // A seed without a decomposition gets the writer's, so every publish
  // (the first topology commit's splice included) has one to build from.
  if (!last_decomp_) {
    last_decomp_ = std::make_shared<const BicoreDecomposition>(
        dyn_->ExportDecomposition());
  }
  started_ = true;
  writer_ = std::thread(&SnapshotManager::WriterLoop, this);
  return Status::OK();
}

void SnapshotManager::Drain() {
  if (!started_ || joined_) return;
  draining_.store(true, std::memory_order_release);
  queue_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  joined_ = true;
}

std::shared_ptr<const Snapshot> SnapshotManager::Current() const {
  std::lock_guard<std::mutex> lock(current_mu_);
  return current_;
}

bool SnapshotManager::Enqueue(UpdateOp op, uint32_t u_upper, uint32_t v_lower,
                              double weight, DoneFn done) {
  WireStatus reject = WireStatus::kOk;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (draining_.load(std::memory_order_acquire) || !started_) {
      reject = WireStatus::kShuttingDown;
    } else if (queue_.size() >= options_.update_queue) {
      counters_.overflows.fetch_add(1, std::memory_order_relaxed);
      reject = WireStatus::kOverloaded;
    } else {
      queue_.push_back(
          PendingOp{op, u_upper, v_lower, weight, std::move(done)});
    }
  }
  if (reject != WireStatus::kOk) {
    if (done) done(reject, Epoch());
    return false;
  }
  queue_cv_.notify_one();
  return true;
}

uint64_t SnapshotManager::PublishRecovery(std::shared_ptr<const void> keepalive,
                                          const BipartiteGraph& g,
                                          const DeltaIndex* delta,
                                          const BicoreIndex* bicore) {
  const uint64_t epoch = Epoch() + 1;
  auto graph = std::shared_ptr<const BipartiteGraph>(keepalive, &g);
  Install(std::make_shared<const Snapshot>(
              epoch, graph, graph, nullptr,
              std::shared_ptr<const DeltaIndex>(keepalive, delta),
              std::shared_ptr<const BicoreIndex>(keepalive, bicore)),
          epoch);
  return epoch;
}

void SnapshotManager::Install(std::shared_ptr<const Snapshot> snap,
                              uint64_t epoch) {
  {
    std::lock_guard<std::mutex> lock(current_mu_);
    current_.swap(snap);
  }
  epoch_.store(epoch, std::memory_order_release);
  // `snap` now holds the replaced epoch: if no reader pins it, its arrays
  // free here, with admissions already running against the successor.
  snap.reset();
}

UpdateStats SnapshotManager::Stats() const {
  UpdateStats s;
  s.applied = counters_.applied.load(std::memory_order_relaxed);
  s.conflicts = counters_.conflicts.load(std::memory_order_relaxed);
  s.commits = counters_.commits.load(std::memory_order_relaxed);
  s.compactions = counters_.compactions.load(std::memory_order_relaxed);
  s.overflows = counters_.overflows.load(std::memory_order_relaxed);
  return s;
}

void SnapshotManager::WriterLoop() {
  for (;;) {
    PendingOp op;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] {
        return !queue_.empty() || draining_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) break;  // draining and fully applied
      op = std::move(queue_.front());
      queue_.pop_front();
    }
    Apply(op);
  }
  // SIGTERM guarantee: everything admitted above was applied; publish the
  // uncommitted tail so it is never silently lost, then persist.
  if (ops_since_publish_ > 0) Publish();
  MaybeCompact(/*at_drain=*/true);
}

void SnapshotManager::Apply(PendingOp& op) {
  WireStatus ws = WireStatus::kOk;
  uint64_t epoch = Epoch();
  const uint32_t num_upper = dyn_->NumUpper();
  const uint32_t num_lower = dyn_->NumVertices() - num_upper;
  if (op.op != UpdateOp::kCommit &&
      (op.u >= num_upper || op.v >= num_lower)) {
    ws = WireStatus::kInvalidVertex;
  } else {
    switch (op.op) {
      case UpdateOp::kInsertEdge: {
        const Status st = dyn_->InsertEdge(op.u, num_upper + op.v, op.weight);
        ws = st.ok() ? WireStatus::kOk : WireStatus::kConflict;
        break;
      }
      case UpdateOp::kRemoveEdge: {
        const Status st = dyn_->RemoveEdge(op.u, num_upper + op.v);
        ws = st.ok() ? WireStatus::kOk : WireStatus::kConflict;
        break;
      }
      case UpdateOp::kReweightEdge: {
        const Status st = dyn_->UpdateWeight(op.u, num_upper + op.v, op.weight);
        ws = st.ok() ? WireStatus::kOk : WireStatus::kConflict;
        break;
      }
      case UpdateOp::kCommit: {
        if (ops_since_publish_ > 0) {
          epoch = Publish();
        }
        // An empty commit is a cheap no-op answering the current epoch.
        break;
      }
    }
    if (op.op != UpdateOp::kCommit) {
      if (ws == WireStatus::kOk) {
        ++ops_since_publish_;
        counters_.applied.fetch_add(1, std::memory_order_relaxed);
      } else if (ws == WireStatus::kConflict) {
        counters_.conflicts.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (op.done) op.done(ws, epoch);
}

uint64_t SnapshotManager::Publish() {
  UpdateSummary summary = dyn_->DrainSummary();
  if (summary.topology_changed || summary.delta_changed) {
    // Topology batch: a fresh graph and decomposition. I_δ is spliced
    // from the previous one — only rows whose inputs changed are rebuilt
    // — unless δ moved, which re-bins whole levels; I_v is rebuilt.
    // `base_graph` keeps the base index's graph alive through the splice.
    const std::shared_ptr<const BipartiteGraph> base_graph = index_graph_;
    const std::shared_ptr<const BicoreDecomposition> base_decomp =
        std::move(last_decomp_);
    const std::shared_ptr<const DeltaIndex> base_delta =
        std::move(last_delta_);
    last_graph_ = std::make_shared<const BipartiteGraph>(dyn_->ExportGraph());
    index_graph_ = last_graph_;
    last_decomp_ = std::make_shared<const BicoreDecomposition>(
        dyn_->ExportDecomposition());
    const DeltaIndex::Base base{base_delta.get(), base_decomp.get(),
                                summary.touched};
    last_delta_ = std::make_shared<const DeltaIndex>(DeltaIndex::Build(
        *index_graph_, last_decomp_.get(), /*num_threads=*/1,
        summary.delta_changed ? nullptr : &base));
    last_bicore_.reset();
  } else {
    // Weights-only batch: the predecessor's topology with the batch's
    // reweights patched in; decomposition and indexes are shared.
    last_graph_ = std::make_shared<const BipartiteGraph>(
        Reweighted(*last_graph_, summary.reweights));
  }
  // Built after a topology batch (I_v), and on the first weights-only
  // batch over a seed that came without indexes (offsets are
  // topology-only, so the maintained ones match `index_graph_` either
  // way).
  if (!last_delta_) {
    last_delta_ = std::make_shared<const DeltaIndex>(
        DeltaIndex::Build(*index_graph_, last_decomp_.get()));
  }
  if (!last_bicore_) {
    last_bicore_ = std::make_shared<const BicoreIndex>(
        BicoreIndex::Build(*index_graph_, last_decomp_.get()));
  }

  const uint64_t epoch = Epoch() + 1;
  auto snap = std::make_shared<const Snapshot>(epoch, last_graph_,
                                               index_graph_, last_decomp_,
                                               last_delta_, last_bicore_);

  // One-hop expansion in the NEW graph: a vertex can join a community
  // whose members' own offsets never changed; the member it attaches to
  // is a neighbour of a touched vertex.
  const BipartiteGraph& g = snap->graph();
  std::vector<uint8_t> touched(g.NumVertices(), 0);
  for (const VertexId x : summary.touched) {
    if (x < touched.size()) touched[x] = 1;
  }
  for (const VertexId x : summary.touched) {
    if (x >= g.NumVertices()) continue;
    for (const Arc& a : g.Neighbors(x)) touched[a.to] = 1;
  }

  // Memo invalidation runs before the swap; epoch-gated lookups make
  // either order safe, this one just minimises the stale-miss window.
  if (publish_hook_) publish_hook_(*snap, summary, touched);
  Install(std::move(snap), epoch);
  counters_.commits.fetch_add(1, std::memory_order_relaxed);
  ops_since_publish_ = 0;
  dirty_since_compact_ = true;
  ++commits_since_compact_;
  if (options_.compact_every != 0 &&
      commits_since_compact_ >= options_.compact_every) {
    MaybeCompact(/*at_drain=*/false);
  }
  return epoch;
}

void SnapshotManager::MaybeCompact(bool at_drain) {
  (void)at_drain;
  if (options_.compact_path.empty() || !dirty_since_compact_) return;
  const std::shared_ptr<const Snapshot> snap = Current();
  if (snap->decomposition() == nullptr) return;  // still the borrowed seed
  SaveBundleOptions save_opts;
  save_opts.keep_previous = true;
  const Status st = SaveIndexBundle(snap->graph(), *snap->decomposition(),
                                    *snap->delta_index(),
                                    *snap->bicore_index(),
                                    options_.compact_path, save_opts);
  if (st.ok()) {
    counters_.compactions.fetch_add(1, std::memory_order_relaxed);
    dirty_since_compact_ = false;
    commits_since_compact_ = 0;
  } else {
    // Compaction is best-effort durability, never availability: log and
    // keep serving; the next commit retries.
    std::fprintf(stderr, "# compaction failed: %s\n", st.ToString().c_str());
  }
}

}  // namespace abcs::serve
