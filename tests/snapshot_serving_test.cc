// Snapshot-versioned live serving: RCU epoch pinning, the single-writer
// update queue, selective memo invalidation across publishes, and the
// mixed read/write stress where every reader response must be consistent
// with exactly the committed prefix its epoch names. The whole suite is
// tsan-able — readers, writer and publisher race by design.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "abcore/offsets.h"
#include "core/bicore_index.h"
#include "core/delta_index.h"
#include "core/maintenance.h"
#include "core/scs_auto.h"
#include "io/index_bundle.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "test_util.h"

namespace abcs::serve {
namespace {

using ::abcs::testing::MakeGraph;
using ::abcs::testing::RandomWeightedGraph;

// K_{3,3} (upper 0-2 x lower 0-2) plus `spares` two-vertex components
// u_{3+k} — v_{3+k}. Inserting (u_{3+k}, v_0) merges spare k into the big
// component, growing C_{1,1}(u_0) by exactly 2 edges per merge — the
// arithmetic every stress reader checks against its response epoch.
BipartiteGraph StressGraph(uint32_t spares) {
  std::vector<std::tuple<uint32_t, uint32_t, Weight>> triples;
  for (uint32_t u = 0; u < 3; ++u) {
    for (uint32_t v = 0; v < 3; ++v) triples.emplace_back(u, v, 1.0);
  }
  for (uint32_t k = 0; k < spares; ++k) {
    triples.emplace_back(3 + k, 3 + k, 1.0);
  }
  return MakeGraph(triples);
}

// Blocking op: returns the wire status the writer answered.
WireStatus ApplyOp(SnapshotManager& manager, UpdateOp op, uint32_t u,
                   uint32_t v, double w, uint64_t* epoch = nullptr) {
  std::promise<std::pair<WireStatus, uint64_t>> done;
  auto fut = done.get_future();
  manager.Enqueue(op, u, v, w, [&done](WireStatus ws, uint64_t e) {
    done.set_value({ws, e});
  });
  const auto [ws, e] = fut.get();
  if (epoch != nullptr) *epoch = e;
  return ws;
}

struct ManagerHarness {
  BipartiteGraph graph;
  DeltaIndex delta;
  BicoreIndex bicore;
  std::unique_ptr<SnapshotManager> manager;

  explicit ManagerHarness(const BipartiteGraph& g,
                          SnapshotManagerOptions options = {})
      : graph(g),
        delta(DeltaIndex::Build(graph)),
        bicore(BicoreIndex::Build(graph)) {
    manager = std::make_unique<SnapshotManager>(graph, &delta, &bicore,
                                                nullptr, options);
  }

  WireStatus Apply(UpdateOp op, uint32_t u, uint32_t v, double w,
                   uint64_t* epoch = nullptr) {
    return ApplyOp(*manager, op, u, v, w, epoch);
  }
};

// The edges `eids` of `g` as sorted (u, v, w) triples: comparable across
// graphs whose edge ids differ.
std::vector<Edge> Canonical(const BipartiteGraph& g,
                            const std::vector<EdgeId>& eids) {
  std::vector<Edge> out;
  out.reserve(eids.size());
  for (const EdgeId e : eids) out.push_back(g.GetEdge(e));
  std::sort(out.begin(), out.end(), [](const Edge& a, const Edge& b) {
    return std::tie(a.u, a.v, a.w) < std::tie(b.u, b.v, b.w);
  });
  return out;
}

std::vector<Edge> Canonical(const BipartiteGraph& g) {
  std::vector<EdgeId> all(g.NumEdges());
  for (EdgeId e = 0; e < g.NumEdges(); ++e) all[e] = e;
  return Canonical(g, all);
}

// The served decomposition and indexes must be array-identical to fresh
// builds over the served graph, whether they were spliced, rebuilt or
// shared.
void ExpectFreshIndexes(const Snapshot& snap, const std::string& context) {
  const BicoreDecomposition decomp = ComputeBicoreDecomposition(snap.graph());
  ASSERT_NE(snap.decomposition(), nullptr) << context;
  EXPECT_EQ(*snap.decomposition(), decomp) << context;
  EXPECT_TRUE(*snap.delta_index() == DeltaIndex::Build(snap.graph(), &decomp))
      << context;
  EXPECT_TRUE(*snap.bicore_index() ==
              BicoreIndex::Build(snap.graph(), &decomp))
      << context;
}

// Two K_{3,3} blocks, A = u{0,1,2} x v{0,1,2} and B = u{3,4,5} x
// v{3,4,5}, plus `extra` edges.
BipartiteGraph TwoBlocks(
    std::vector<std::tuple<uint32_t, uint32_t, Weight>> extra = {}) {
  for (uint32_t base : {0u, 3u}) {
    for (uint32_t u = base; u < base + 3; ++u) {
      for (uint32_t v = base; v < base + 3; ++v) extra.emplace_back(u, v, 1.0);
    }
  }
  return MakeGraph(extra);
}

uint32_t CommunityEdges(const Snapshot& snap, VertexId q, uint32_t alpha,
                        uint32_t beta) {
  QueryScratch scratch;
  Subgraph community;
  snap.delta_engine().Query(QueryRequest{q, alpha, beta}, scratch,
                            &community);
  return static_cast<uint32_t>(community.edges.size());
}

TEST(SnapshotManagerTest, CommitPublishesAndPinsRetireSafely) {
  ManagerHarness h(StressGraph(4));
  ASSERT_TRUE(h.manager->Start().ok());
  ASSERT_EQ(h.manager->Epoch(), 1u);

  // Pin epoch 1 before any update exists.
  std::shared_ptr<const Snapshot> pinned = h.manager->Current();
  ASSERT_EQ(pinned->epoch(), 1u);
  const uint32_t before = pinned->graph().NumEdges();

  EXPECT_EQ(h.Apply(UpdateOp::kInsertEdge, 3, 0, 1.0), WireStatus::kOk);
  uint64_t epoch = 0;
  EXPECT_EQ(h.Apply(UpdateOp::kCommit, 0, 0, 0.0, &epoch), WireStatus::kOk);
  EXPECT_EQ(epoch, 2u);
  EXPECT_EQ(h.manager->Epoch(), 2u);

  // The published snapshot sees the new edge; the pinned one never does —
  // and stays fully usable after further publishes retire its successors.
  std::shared_ptr<const Snapshot> fresh = h.manager->Current();
  EXPECT_EQ(fresh->graph().NumEdges(), before + 1);
  for (uint32_t k = 1; k < 4; ++k) {
    ASSERT_EQ(h.Apply(UpdateOp::kInsertEdge, 3 + k, 0, 1.0), WireStatus::kOk);
    ASSERT_EQ(h.Apply(UpdateOp::kCommit, 0, 0, 0.0), WireStatus::kOk);
  }
  // ASan proves the pinned arenas were not freed under us.
  EXPECT_EQ(pinned->graph().NumEdges(), before);
  QueryScratch scratch;
  Subgraph community;
  pinned->delta_engine().Query(QueryRequest{0, 1, 1}, scratch, &community);
  EXPECT_EQ(community.edges.size(), 9u);
  fresh = h.manager->Current();
  fresh->delta_engine().Query(QueryRequest{0, 1, 1}, scratch, &community);
  EXPECT_EQ(community.edges.size(), 9u + 2 * 4);
}

TEST(SnapshotManagerTest, ConflictsAndEmptyCommitsAreCheap) {
  ManagerHarness h(StressGraph(2));
  ASSERT_TRUE(h.manager->Start().ok());

  // Duplicate insert and missing-edge remove answer kConflict and do not
  // dirty the batch: the following commit is an empty no-op.
  EXPECT_EQ(h.Apply(UpdateOp::kInsertEdge, 0, 0, 1.0), WireStatus::kConflict);
  EXPECT_EQ(h.Apply(UpdateOp::kRemoveEdge, 3, 0, 0.0), WireStatus::kConflict);
  EXPECT_EQ(h.Apply(UpdateOp::kReweightEdge, 3, 0, 9.0),
            WireStatus::kConflict);
  uint64_t epoch = 0;
  EXPECT_EQ(h.Apply(UpdateOp::kCommit, 0, 0, 0.0, &epoch), WireStatus::kOk);
  EXPECT_EQ(epoch, 1u) << "empty commit must not publish";

  const UpdateStats stats = h.manager->Stats();
  EXPECT_EQ(stats.applied, 0u);
  EXPECT_EQ(stats.conflicts, 3u);
  EXPECT_EQ(stats.commits, 0u);
}

TEST(SnapshotManagerTest, WeightsOnlyPublishSharesDecomposition) {
  ManagerHarness h(StressGraph(2));
  ASSERT_TRUE(h.manager->Start().ok());

  // The first weights-only publish shares the seed indexes; the seed came
  // without a decomposition, so it is exported once.
  ASSERT_EQ(h.Apply(UpdateOp::kReweightEdge, 0, 0, 7.5), WireStatus::kOk);
  ASSERT_EQ(h.Apply(UpdateOp::kCommit, 0, 0, 0.0), WireStatus::kOk);
  const std::shared_ptr<const Snapshot> snap2 = h.manager->Current();
  ASSERT_NE(snap2->decomposition(), nullptr);
  EXPECT_EQ(snap2->delta_index(), &h.delta);
  EXPECT_EQ(snap2->bicore_index(), &h.bicore);
  EXPECT_NE(&snap2->graph(), &h.graph);

  // A weights-only batch must reuse the predecessor's decomposition and
  // index objects — structural sharing, not a rebuild.
  ASSERT_EQ(h.Apply(UpdateOp::kReweightEdge, 0, 1, 3.25), WireStatus::kOk);
  ASSERT_EQ(h.Apply(UpdateOp::kCommit, 0, 0, 0.0), WireStatus::kOk);
  const std::shared_ptr<const Snapshot> snap3 = h.manager->Current();
  EXPECT_EQ(snap3->decomposition(), snap2->decomposition());
  EXPECT_EQ(snap3->delta_index(), snap2->delta_index());
  EXPECT_EQ(snap3->bicore_index(), snap2->bicore_index());
  EXPECT_NE(&snap3->graph(), &snap2->graph());
  // Only the weight column moved; both reweights are visible.
  EXPECT_EQ(snap3->graph().NumEdges(), h.graph.NumEdges());
  double w00 = 0, w01 = 0;
  for (const Arc& a : snap3->graph().Neighbors(0)) {
    if (a.to == h.graph.LowerId(0)) w00 = snap3->graph().GetWeight(a.eid);
    if (a.to == h.graph.LowerId(1)) w01 = snap3->graph().GetWeight(a.eid);
  }
  EXPECT_EQ(w00, 7.5);
  EXPECT_EQ(w01, 3.25);

  // A topological batch gets fresh ones, equal to from-scratch builds.
  ASSERT_EQ(h.Apply(UpdateOp::kInsertEdge, 3, 0, 1.0), WireStatus::kOk);
  ASSERT_EQ(h.Apply(UpdateOp::kCommit, 0, 0, 0.0), WireStatus::kOk);
  const std::shared_ptr<const Snapshot> snap4 = h.manager->Current();
  EXPECT_NE(snap4->decomposition(), snap3->decomposition());
  EXPECT_NE(snap4->delta_index(), snap3->delta_index());
  EXPECT_NE(snap4->bicore_index(), snap3->bicore_index());
  EXPECT_EQ(*snap4->decomposition(),
            ComputeBicoreDecomposition(snap4->graph()));

  // ...which the next weights-only batch shares in turn.
  ASSERT_EQ(h.Apply(UpdateOp::kReweightEdge, 3, 0, 2.0), WireStatus::kOk);
  ASSERT_EQ(h.Apply(UpdateOp::kCommit, 0, 0, 0.0), WireStatus::kOk);
  const std::shared_ptr<const Snapshot> snap5 = h.manager->Current();
  EXPECT_EQ(snap5->decomposition(), snap4->decomposition());
  EXPECT_EQ(snap5->delta_index(), snap4->delta_index());
  EXPECT_EQ(snap5->bicore_index(), snap4->bicore_index());
}

// Differential chain: random reweight batches interleaved with
// insert/remove batches. After every commit the served answers — all
// three retrieval paths and every SCS kernel — must equal a fresh build
// over the exported graph, so a snapshot that reads stale weights (or a
// shared index that drifted from its graph) fails here.
TEST(SnapshotManagerTest, CommitChainMatchesFreshRebuild) {
  constexpr uint32_t kUpper = 30;
  constexpr uint32_t kLower = 30;
  ManagerHarness h(RandomWeightedGraph(kUpper, kLower, 220, /*seed=*/7));
  ASSERT_TRUE(h.manager->Start().ok());
  DynamicDeltaIndex ref(h.graph);  // the oracle's independent writer
  Rng rng(20261019);

  const auto apply_both = [&](UpdateOp op, uint32_t u, uint32_t v, double w) {
    Status st;
    const VertexId lower = kUpper + v;
    switch (op) {
      case UpdateOp::kInsertEdge:
        st = ref.InsertEdge(u, lower, w);
        break;
      case UpdateOp::kRemoveEdge:
        st = ref.RemoveEdge(u, lower);
        break;
      default:
        st = ref.UpdateWeight(u, lower, w);
        break;
    }
    EXPECT_EQ(h.Apply(op, u, v, w),
              st.ok() ? WireStatus::kOk : WireStatus::kConflict);
  };

  QueryScratch scratch;
  Subgraph got;
  uint64_t reweight_commits = 0;
  for (uint32_t commit = 0; commit < 24; ++commit) {
    const BipartiteGraph before = ref.ExportGraph();
    const bool topology = commit % 3 == 2;
    const uint32_t ops = 1 + static_cast<uint32_t>(rng.NextBounded(6));
    for (uint32_t i = 0; i < ops; ++i) {
      const Edge& e = before.GetEdge(
          static_cast<EdgeId>(rng.NextBounded(before.NumEdges())));
      const uint32_t u = e.u;
      const uint32_t v = e.v - kUpper;
      const double w = 1.0 + static_cast<double>(rng.NextBounded(8));
      if (!topology) {
        apply_both(UpdateOp::kReweightEdge, u, v, w);
        // Re-reweighting an edge within a batch: the last write wins.
        if (i == 0) apply_both(UpdateOp::kReweightEdge, u, v, w + 0.5);
      } else if (rng.NextBounded(2) == 0) {
        apply_both(UpdateOp::kRemoveEdge, u, v, 0.0);
      } else {
        apply_both(UpdateOp::kInsertEdge,
                   static_cast<uint32_t>(rng.NextBounded(kUpper)),
                   static_cast<uint32_t>(rng.NextBounded(kLower)), w);
      }
    }
    const std::shared_ptr<const Snapshot> prev = h.manager->Current();
    ASSERT_EQ(h.Apply(UpdateOp::kCommit, 0, 0, 0.0), WireStatus::kOk);
    const std::shared_ptr<const Snapshot> snap = h.manager->Current();
    if (snap->epoch() == prev->epoch()) continue;  // every op conflicted
    if (snap->delta_index() == prev->delta_index()) ++reweight_commits;

    const BipartiteGraph ref_g = ref.ExportGraph();
    const BicoreDecomposition ref_decomp = ref.ExportDecomposition();
    const DeltaIndex ref_delta = DeltaIndex::Build(ref_g, &ref_decomp);
    ASSERT_EQ(Canonical(snap->graph()), Canonical(ref_g))
        << "commit " << commit;
    // Spliced, rebuilt or shared, the published arrays are the fresh ones.
    ASSERT_TRUE(*snap->delta_index() == ref_delta) << "commit " << commit;
    ASSERT_TRUE(*snap->bicore_index() == BicoreIndex::Build(ref_g, &ref_decomp))
        << "commit " << commit;
    for (uint32_t sample = 0; sample < 25; ++sample) {
      const VertexId q =
          static_cast<VertexId>(rng.NextBounded(ref_g.NumVertices()));
      const uint32_t alpha = 1 + static_cast<uint32_t>(rng.NextBounded(4));
      const uint32_t beta = 1 + static_cast<uint32_t>(rng.NextBounded(4));
      const Subgraph want = ref_delta.QueryCommunity(q, alpha, beta);
      const std::vector<Edge> want_edges = Canonical(ref_g, want.edges);
      for (const QueryEngine* engine :
           {&snap->delta_engine(), &snap->bicore_engine(),
            &snap->online_engine()}) {
        engine->Query(QueryRequest{q, alpha, beta}, scratch, &got);
        ASSERT_EQ(Canonical(snap->graph(), got.edges), want_edges)
            << "commit " << commit << " q=" << q << " (" << alpha << ","
            << beta << ")";
      }
      snap->delta_engine().Query(QueryRequest{q, alpha, beta}, scratch, &got);
      for (const ScsAlgo algo : {ScsAlgo::kAuto, ScsAlgo::kPeel,
                                 ScsAlgo::kExpand, ScsAlgo::kBinary}) {
        const ScsResult fresh = ScsQuery(ref_g, want, q, alpha, beta, algo);
        const ScsResult served =
            ScsQuery(snap->graph(), got, q, alpha, beta, algo);
        ASSERT_EQ(served.found, fresh.found) << ScsAlgoName(algo);
        ASSERT_EQ(served.community.Size(), fresh.community.Size())
            << ScsAlgoName(algo) << " commit " << commit << " q=" << q;
        ASSERT_EQ(served.significance, fresh.significance)
            << ScsAlgoName(algo) << " commit " << commit << " q=" << q;
      }
    }
  }
  EXPECT_GE(reweight_commits, 10u) << "the chain must exercise sharing";
}

// Constructed topology commits, each checked array-for-array against
// fresh builds: an insert that merges two communities, the removal that
// splits them again, a hub whose rows are patched because one neighbour's
// offsets moved, and δ growing and shrinking (the full-build fallback).
TEST(SnapshotManagerTest, SplicedTopologyCommitsMatchFreshBuilds) {
  // Hub u6 sees A's lower vertices and four pendants v6..v9.
  std::vector<std::tuple<uint32_t, uint32_t, Weight>> hub;
  for (const uint32_t v : {0u, 1u, 2u, 6u, 7u, 8u, 9u}) {
    hub.emplace_back(6, v, 1.0);
  }
  ManagerHarness h(TwoBlocks(hub));
  ASSERT_TRUE(h.manager->Start().ok());
  const auto commit = [&](const std::string& context) {
    ASSERT_EQ(h.Apply(UpdateOp::kCommit, 0, 0, 0.0), WireStatus::kOk);
    ExpectFreshIndexes(*h.manager->Current(), context);
  };
  std::shared_ptr<const Snapshot> snap = h.manager->Current();
  ASSERT_EQ(snap->delta_index()->delta(), 3u);
  // At (2,2) the blocks are separate communities: A with the hub's three
  // arcs into it, and B.
  ASSERT_EQ(CommunityEdges(*snap, 0, 2, 2), 12u);
  ASSERT_EQ(CommunityEdges(*snap, 3, 2, 2), 9u);

  // Merge: one edge joins them.
  ASSERT_EQ(h.Apply(UpdateOp::kInsertEdge, 0, 3, 1.0), WireStatus::kOk);
  commit("merge");
  snap = h.manager->Current();
  EXPECT_EQ(CommunityEdges(*snap, 3, 2, 2), 22u);

  // Split: removing it separates them again.
  ASSERT_EQ(h.Apply(UpdateOp::kRemoveEdge, 0, 3, 0.0), WireStatus::kOk);
  commit("split");
  snap = h.manager->Current();
  EXPECT_EQ(CommunityEdges(*snap, 0, 2, 2), 12u);
  EXPECT_EQ(CommunityEdges(*snap, 3, 2, 2), 9u);

  // Hub patch: dropping (u1, v1) moves v1's offsets; the hub keeps its
  // arcs, so its rows are patched rather than re-emitted.
  ASSERT_EQ(h.Apply(UpdateOp::kRemoveEdge, 1, 1, 0.0), WireStatus::kOk);
  commit("hub patch");
  snap = h.manager->Current();
  EXPECT_EQ(snap->graph().Degree(6), 7u);
  EXPECT_EQ(CommunityEdges(*snap, 6, 3, 3), 9u);  // u{0,2,6} x v{0,1,2}

  // δ grows (u0..u3 x v0..v3 fills in to a K_{4,4}) and shrinks back.
  std::vector<std::pair<uint32_t, uint32_t>> added;
  for (uint32_t u = 0; u < 4; ++u) {
    for (uint32_t v = 0; v < 4; ++v) {
      if (h.Apply(UpdateOp::kInsertEdge, u, v, 1.0) == WireStatus::kOk) {
        added.emplace_back(u, v);
      }
    }
  }
  commit("delta grows");
  EXPECT_EQ(h.manager->Current()->delta_index()->delta(), 4u);
  for (const auto& [u, v] : added) {
    ASSERT_EQ(h.Apply(UpdateOp::kRemoveEdge, u, v, 0.0), WireStatus::kOk);
  }
  commit("delta shrinks");
  EXPECT_EQ(h.manager->Current()->delta_index()->delta(), 3u);
}

// Sharing never chains epochs: an unpinned snapshot retires at the next
// publish even when its successor shares its indexes, while a pinned one
// survives any number of later commits.
TEST(SnapshotManagerTest, WeightsOnlyCommitsRetireUnpinnedEpochs) {
  ManagerHarness h(StressGraph(2));
  ASSERT_TRUE(h.manager->Start().ok());
  ASSERT_EQ(h.Apply(UpdateOp::kReweightEdge, 0, 0, 2.0), WireStatus::kOk);
  ASSERT_EQ(h.Apply(UpdateOp::kCommit, 0, 0, 0.0), WireStatus::kOk);
  const std::weak_ptr<const Snapshot> early = h.manager->Current();
  std::shared_ptr<const Snapshot> pinned;
  for (uint32_t k = 0; k < 4; ++k) {
    ASSERT_EQ(h.Apply(UpdateOp::kReweightEdge, 0, 1, 3.0 + k),
              WireStatus::kOk);
    ASSERT_EQ(h.Apply(UpdateOp::kCommit, 0, 0, 0.0), WireStatus::kOk);
    EXPECT_TRUE(early.expired()) << "after commit " << k;
    if (k == 0) pinned = h.manager->Current();
  }
  ASSERT_EQ(pinned->epoch(), 3u);
  ASSERT_EQ(h.manager->Epoch(), 6u);
  for (const Arc& a : pinned->graph().Neighbors(0)) {
    if (a.to == h.graph.LowerId(1)) {
      EXPECT_EQ(pinned->graph().GetWeight(a.eid), 3.0);
    }
  }
  QueryScratch scratch;
  Subgraph community;
  pinned->delta_engine().Query(QueryRequest{0, 1, 1}, scratch, &community);
  EXPECT_EQ(community.edges.size(), 9u);
}

// The restart path: a manager seeded from an opened bundle shares the
// bundle's mapped indexes and decomposition on its first weights-only
// commit, never writes through the mapping, and compacts a bundle that
// reopens with bit-identical answers.
TEST(SnapshotManagerTest, BundleSeededWeightsOnlyCommitSharesSeed) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "abcs_snapshot_seeded_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string bundle_path = (dir / "serve.abcs").string();
  {
    const BipartiteGraph g = RandomWeightedGraph(25, 25, 160, /*seed=*/3);
    const BicoreDecomposition decomp = ComputeBicoreDecomposition(g);
    ASSERT_TRUE(SaveIndexBundle(g, decomp, DeltaIndex::Build(g, &decomp),
                                BicoreIndex::Build(g, &decomp), bundle_path)
                    .ok());
  }
  std::unique_ptr<IndexBundle> seed;
  ASSERT_TRUE(OpenIndexBundle(bundle_path, &seed).ok());
  const BipartiteGraph& g = seed->graph();

  SnapshotManagerOptions options;
  options.compact_path = bundle_path;
  options.compact_every = 1;
  SnapshotManager manager(g, &seed->delta_index(), &seed->bicore_index(),
                          &seed->decomposition(), options);
  ASSERT_TRUE(manager.Start().ok());

  const Edge target = g.GetEdge(0);
  const Weight old_weight = target.w;
  const uint32_t v = target.v - g.NumUpper();
  ASSERT_EQ(ApplyOp(manager, UpdateOp::kReweightEdge, target.u, v, 99.0),
            WireStatus::kOk);
  uint64_t epoch = 0;
  ASSERT_EQ(ApplyOp(manager, UpdateOp::kCommit, 0, 0, 0.0, &epoch),
            WireStatus::kOk);
  ASSERT_EQ(epoch, 2u);
  EXPECT_EQ(manager.Stats().compactions, 1u);

  const std::shared_ptr<const Snapshot> snap = manager.Current();
  EXPECT_EQ(snap->delta_index(), &seed->delta_index());
  EXPECT_EQ(snap->bicore_index(), &seed->bicore_index());
  EXPECT_EQ(snap->decomposition(), &seed->decomposition());
  EXPECT_EQ(snap->graph().GetWeight(0), 99.0);
  EXPECT_EQ(g.GetWeight(0), old_weight) << "wrote through the mapping";

  std::unique_ptr<IndexBundle> reopened;
  ASSERT_TRUE(OpenIndexBundle(bundle_path, &reopened).ok());
  ASSERT_TRUE(VerifyBundleMatchesGraph(*reopened, snap->graph()).ok());
  EXPECT_TRUE(reopened->graph().Edges() == snap->graph().Edges());
  EXPECT_EQ(reopened->decomposition(), seed->decomposition());
  const QueryEngine from_disk(reopened->graph(), QueryMethod::kDelta,
                              &reopened->delta_index());
  QueryScratch scratch;
  Subgraph served, restored;
  for (VertexId q = 0; q < g.NumVertices(); q += 3) {
    for (const uint32_t ab : {1u, 2u, 3u}) {
      snap->delta_engine().Query(QueryRequest{q, ab, ab}, scratch, &served);
      from_disk.Query(QueryRequest{q, ab, ab}, scratch, &restored);
      ASSERT_EQ(restored.edges, served.edges) << "q=" << q;
      const ScsResult a = ScsQuery(snap->graph(), served, q, ab, ab);
      const ScsResult b = ScsQuery(reopened->graph(), restored, q, ab, ab);
      ASSERT_EQ(b.found, a.found);
      ASSERT_EQ(b.community.edges, a.community.edges);
      ASSERT_EQ(b.significance, a.significance);
    }
  }
  manager.Drain();
  std::filesystem::remove_all(dir);
}

// The restart path's first topology commit splices from the bundle's
// mapped I_δ and decomposition, without writing through the mapping.
TEST(SnapshotManagerTest, BundleSeededTopologyCommitSplicesFromMapping) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "abcs_snapshot_splice_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string bundle_path = (dir / "serve.abcs").string();
  {
    const BipartiteGraph g = RandomWeightedGraph(25, 25, 160, /*seed=*/5);
    const BicoreDecomposition decomp = ComputeBicoreDecomposition(g);
    ASSERT_TRUE(SaveIndexBundle(g, decomp, DeltaIndex::Build(g, &decomp),
                                BicoreIndex::Build(g, &decomp), bundle_path)
                    .ok());
  }
  std::unique_ptr<IndexBundle> seed;
  ASSERT_TRUE(OpenIndexBundle(bundle_path, &seed).ok());
  ASSERT_TRUE(seed->ZeroCopy());
  const BipartiteGraph& g = seed->graph();
  const DeltaIndex seed_delta = DeltaIndex::Build(g);

  SnapshotManager manager(g, &seed->delta_index(), &seed->bicore_index(),
                          &seed->decomposition(), {});
  ASSERT_TRUE(manager.Start().ok());
  const Edge removed = g.GetEdge(7);
  const uint32_t num_upper = g.NumUpper();
  ASSERT_EQ(ApplyOp(manager, UpdateOp::kRemoveEdge, removed.u,
                    removed.v - num_upper, 0.0),
            WireStatus::kOk);
  uint32_t inserted = 0;
  for (uint32_t u = 0; u < 25 && inserted < 2; ++u) {
    if (ApplyOp(manager, UpdateOp::kInsertEdge, u, (u * 7) % 25, 2.0) ==
        WireStatus::kOk) {
      ++inserted;
    }
  }
  ASSERT_EQ(inserted, 2u);
  ASSERT_EQ(ApplyOp(manager, UpdateOp::kCommit, 0, 0, 0.0), WireStatus::kOk);
  const std::shared_ptr<const Snapshot> snap = manager.Current();
  EXPECT_EQ(snap->graph().NumEdges(), g.NumEdges() + 1);
  ExpectFreshIndexes(*snap, "first topology commit");
  EXPECT_TRUE(seed->ZeroCopy());
  EXPECT_TRUE(seed->delta_index() == seed_delta) << "wrote through the mapping";
  EXPECT_EQ(seed->decomposition(), ComputeBicoreDecomposition(g));

  // And the chain keeps splicing from its own (owned) arrays.
  ASSERT_EQ(ApplyOp(manager, UpdateOp::kInsertEdge, removed.u,
                    removed.v - num_upper, 1.0),
            WireStatus::kOk);
  ASSERT_EQ(ApplyOp(manager, UpdateOp::kCommit, 0, 0, 0.0), WireStatus::kOk);
  ExpectFreshIndexes(*manager.Current(), "second topology commit");
  manager.Drain();
  std::filesystem::remove_all(dir);
}

TEST(SnapshotManagerTest, DrainPublishesUncommittedTail) {
  ManagerHarness h(StressGraph(3));
  ASSERT_TRUE(h.manager->Start().ok());
  for (uint32_t k = 0; k < 3; ++k) {
    ASSERT_EQ(h.Apply(UpdateOp::kInsertEdge, 3 + k, 0, 1.0), WireStatus::kOk);
  }
  // No commit — SIGTERM semantics: Drain applies and publishes the tail.
  h.manager->Drain();
  const std::shared_ptr<const Snapshot> snap = h.manager->Current();
  EXPECT_EQ(snap->epoch(), 2u);
  EXPECT_EQ(snap->graph().NumEdges(), h.graph.NumEdges() + 3);
  // Late ops are cleanly rejected, never silently dropped.
  std::atomic<int> status{-1};
  EXPECT_FALSE(h.manager->Enqueue(
      UpdateOp::kInsertEdge, 0, 0, 1.0,
      [&](WireStatus ws, uint64_t) { status = static_cast<int>(ws); }));
  EXPECT_EQ(status.load(), static_cast<int>(WireStatus::kShuttingDown));
}

TEST(SnapshotManagerTest, FullQueueAnswersOverloaded) {
  SnapshotManagerOptions options;
  options.update_queue = 2;
  ManagerHarness h(StressGraph(2), options);
  ASSERT_TRUE(h.manager->Start().ok());

  // Park the writer inside the first op's completion callback so the
  // queue depth is under test control.
  std::promise<void> writer_busy;
  std::promise<void> release_writer;
  std::shared_future<void> release = release_writer.get_future().share();
  ASSERT_TRUE(h.manager->Enqueue(UpdateOp::kReweightEdge, 0, 0, 2.0,
                                 [&, release](WireStatus, uint64_t) {
                                   writer_busy.set_value();
                                   release.wait();
                                 }));
  writer_busy.get_future().wait();

  // Queue capacity 2 while the writer is parked: two admits, then reject.
  ASSERT_TRUE(
      h.manager->Enqueue(UpdateOp::kReweightEdge, 0, 1, 2.0, nullptr));
  ASSERT_TRUE(
      h.manager->Enqueue(UpdateOp::kReweightEdge, 0, 2, 2.0, nullptr));
  std::atomic<int> status{-1};
  EXPECT_FALSE(h.manager->Enqueue(
      UpdateOp::kReweightEdge, 1, 0, 2.0,
      [&](WireStatus ws, uint64_t) { status = static_cast<int>(ws); }));
  EXPECT_EQ(status.load(), static_cast<int>(WireStatus::kOverloaded));

  release_writer.set_value();
  h.manager->Drain();
  EXPECT_EQ(h.manager->Stats().overflows, 1u);
  EXPECT_EQ(h.manager->Stats().applied, 3u);
}

TEST(SnapshotManagerTest, CompactionWritesVerifiableBundle) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "abcs_snapshot_compact_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string bundle_path = (dir / "serve.abcs").string();

  SnapshotManagerOptions options;
  options.compact_path = bundle_path;
  options.compact_every = 1;  // compact at every publish
  ManagerHarness h(StressGraph(2), options);
  ASSERT_TRUE(h.manager->Start().ok());
  ASSERT_EQ(h.Apply(UpdateOp::kInsertEdge, 3, 0, 1.0), WireStatus::kOk);
  ASSERT_EQ(h.Apply(UpdateOp::kCommit, 0, 0, 0.0), WireStatus::kOk);
  h.manager->Drain();
  EXPECT_GE(h.manager->Stats().compactions, 1u);

  // The bundle on disk opens, verifies and matches the served graph.
  std::unique_ptr<IndexBundle> bundle;
  ASSERT_TRUE(OpenIndexBundle(bundle_path, &bundle).ok());
  const std::shared_ptr<const Snapshot> snap = h.manager->Current();
  ASSERT_TRUE(VerifyBundleMatchesGraph(*bundle, snap->graph()).ok());
  EXPECT_EQ(bundle->graph().NumEdges(), snap->graph().NumEdges());
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------------- server level --

struct ServeHarness {
  BipartiteGraph graph;
  DeltaIndex delta;
  BicoreIndex bicore;
  std::unique_ptr<Server> server;

  explicit ServeHarness(const BipartiteGraph& g, ServerOptions options = {})
      : graph(g),
        delta(DeltaIndex::Build(graph)),
        bicore(BicoreIndex::Build(graph)) {
    options.enable_updates = true;
    server = std::make_unique<Server>(graph, &delta, &bicore, options);
    const Status st = server->Start();
    if (!st.ok()) ADD_FAILURE() << "server start failed: " << st.ToString();
  }

  ~ServeHarness() {
    if (server != nullptr) server->Shutdown();
  }

  Client Connect() {
    Client client;
    const Status st = client.Connect("127.0.0.1", server->port());
    if (!st.ok()) ADD_FAILURE() << "connect failed: " << st.ToString();
    return client;
  }
};

WireRequest Query(uint32_t q, uint32_t alpha, uint32_t beta,
                  WireMethod method = WireMethod::kDelta) {
  WireRequest req;
  req.method = method;
  req.q = q;
  req.alpha = alpha;
  req.beta = beta;
  return req;
}

TEST(SnapshotServingTest, UpdatesDisabledServerRejectsButStillServes) {
  BipartiteGraph g = StressGraph(1);
  DeltaIndex delta = DeltaIndex::Build(g);
  BicoreIndex bicore = BicoreIndex::Build(g);
  Server server(g, &delta, &bicore, ServerOptions{});  // updates off
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  WireResponse resp;
  ASSERT_TRUE(
      client.Update(UpdateOp::kInsertEdge, 3, 0, 1.0, &resp).ok());
  EXPECT_EQ(resp.status, WireStatus::kUpdatesDisabled);
  ASSERT_TRUE(client.Call(Query(0, 1, 1), &resp).ok());
  EXPECT_EQ(resp.status, WireStatus::kOk);
  EXPECT_EQ(resp.epoch, 1u);
  EXPECT_EQ(resp.num_edges, 9u);
  server.Shutdown();
}

TEST(SnapshotServingTest, CommittedUpdatesChangeAnswersAndEpochs) {
  ServeHarness h(StressGraph(2));
  Client client = h.Connect();

  WireResponse resp;
  ASSERT_TRUE(client.Call(Query(0, 1, 1), &resp).ok());
  ASSERT_EQ(resp.status, WireStatus::kOk);
  EXPECT_EQ(resp.epoch, 1u);
  EXPECT_EQ(resp.num_edges, 9u);

  // Insert + commit through the wire; the publish is visible by the time
  // the commit response lands (the writer publishes before answering).
  ASSERT_TRUE(
      client.Update(UpdateOp::kInsertEdge, 3, 0, 1.0, &resp).ok());
  ASSERT_EQ(resp.status, WireStatus::kOk);
  EXPECT_EQ(resp.epoch, 1u) << "mutation answers the visible epoch";
  uint64_t epoch = 0;
  ASSERT_TRUE(client.Commit(&epoch).ok());
  EXPECT_EQ(epoch, 2u);

  ASSERT_TRUE(client.Call(Query(0, 1, 1), &resp).ok());
  ASSERT_EQ(resp.status, WireStatus::kOk);
  EXPECT_EQ(resp.epoch, 2u);
  EXPECT_EQ(resp.num_edges, 11u);  // merged the spare component

  // Bad updates answer per-op statuses without killing the stream.
  ASSERT_TRUE(
      client.Update(UpdateOp::kInsertEdge, 3, 0, 1.0, &resp).ok());
  EXPECT_EQ(resp.status, WireStatus::kConflict);
  ASSERT_TRUE(
      client.Update(UpdateOp::kRemoveEdge, 99, 0, 0.0, &resp).ok());
  EXPECT_EQ(resp.status, WireStatus::kInvalidVertex);
  ASSERT_TRUE(client.Ping(&epoch).ok());
  EXPECT_EQ(epoch, 2u);
}

// The satellite regression: a publish that touches one component leaves
// the other component's memo entries warm — observable as memo_hit=true
// across the epoch boundary.
TEST(SnapshotServingTest, PublishKeepsUntouchedComponentMemoWarm) {
  // Components A = u{0,1} x v{0,1}, B = u{2,3} x v{2,3}, spare u4—v4.
  std::vector<std::tuple<uint32_t, uint32_t, Weight>> triples;
  for (uint32_t u : {0u, 1u}) {
    for (uint32_t v : {0u, 1u}) triples.emplace_back(u, v, 1.0);
  }
  for (uint32_t u : {2u, 3u}) {
    for (uint32_t v : {2u, 3u}) triples.emplace_back(u, v, 1.0);
  }
  triples.emplace_back(4, 4, 1.0);
  ServerOptions options;
  options.num_threads = 1;  // deterministic memo fill
  ServeHarness h(MakeGraph(triples), options);
  Client client = h.Connect();

  // Warm both components.
  WireResponse resp;
  for (const uint32_t q : {0u, 2u}) {
    ASSERT_TRUE(client.Call(Query(q, 2, 2), &resp).ok());
    ASSERT_EQ(resp.status, WireStatus::kOk);
    EXPECT_FALSE(resp.memo_hit);
    EXPECT_EQ(resp.num_edges, 4u);
    ASSERT_TRUE(client.Call(Query(q, 2, 2), &resp).ok());
    EXPECT_TRUE(resp.memo_hit) << "q=" << q;
  }

  // Touch component A only: u4—v0 attaches near A, then commit.
  ASSERT_TRUE(
      client.Update(UpdateOp::kInsertEdge, 4, 0, 1.0, &resp).ok());
  ASSERT_EQ(resp.status, WireStatus::kOk);
  ASSERT_TRUE(client.Commit(nullptr).ok());

  // B stays warm across the publish; A was dropped and recomputes.
  ASSERT_TRUE(client.Call(Query(2, 2, 2), &resp).ok());
  EXPECT_TRUE(resp.memo_hit) << "untouched component must survive publish";
  EXPECT_EQ(resp.epoch, 2u);
  ASSERT_TRUE(client.Call(Query(0, 2, 2), &resp).ok());
  EXPECT_FALSE(resp.memo_hit) << "touched component must be invalidated";
  EXPECT_EQ(resp.num_edges, 4u);  // u4/v4 still fail the (2,2) degree bar
}

// A churn commit invalidates only what it changed: removing an edge inside
// block A re-peels offsets across the whole connected graph (A and B are
// joined through w = v6), but no vertex of B ends with a different offset,
// so B's warm (3,3) entry survives the publish.
TEST(SnapshotServingTest, ChurnCommitKeepsOtherCommunityMemoWarm) {
  ServerOptions options;
  options.num_threads = 1;  // deterministic memo fill
  ServeHarness h(TwoBlocks({{0, 6, 1.0}, {3, 6, 1.0}}), options);
  Client client = h.Connect();

  WireResponse resp;
  for (const uint32_t q : {0u, 3u}) {
    ASSERT_TRUE(client.Call(Query(q, 3, 3), &resp).ok());
    ASSERT_EQ(resp.status, WireStatus::kOk);
    EXPECT_EQ(resp.num_edges, 9u) << "q=" << q;
    ASSERT_TRUE(client.Call(Query(q, 3, 3), &resp).ok());
    EXPECT_TRUE(resp.memo_hit) << "q=" << q;
  }

  ASSERT_TRUE(client.Update(UpdateOp::kRemoveEdge, 1, 1, 0.0, &resp).ok());
  ASSERT_EQ(resp.status, WireStatus::kOk);
  ASSERT_TRUE(client.Commit(nullptr).ok());

  ASSERT_TRUE(client.Call(Query(3, 3, 3), &resp).ok());
  EXPECT_EQ(resp.epoch, 2u);
  EXPECT_TRUE(resp.memo_hit) << "B's offsets did not move";
  EXPECT_EQ(resp.num_edges, 9u);
  ASSERT_TRUE(client.Call(Query(0, 3, 3), &resp).ok());
  EXPECT_FALSE(resp.memo_hit) << "A lost an edge";
  EXPECT_EQ(resp.num_edges, 0u);  // u1, v1 fall out; A unravels
}

// Mixed read/write stress: concurrent readers + one committing writer.
// Every response pins an epoch, and |C_{1,1}(u0)| at epoch e is exactly
// 9 + 2(e-1) — any torn or cross-epoch read breaks the equation.
TEST(SnapshotServingTest, StressReadersObservePrefixConsistentEpochs) {
  constexpr uint32_t kSpares = 24;
  ServerOptions options;
  options.num_threads = 4;
  ServeHarness h(StressGraph(kSpares), options);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      Client client;
      if (!client.Connect("127.0.0.1", h.server->port()).ok()) {
        ADD_FAILURE() << "reader connect failed";
        return;
      }
      WireResponse resp;
      while (!stop.load(std::memory_order_relaxed)) {
        if (!client.Call(Query(0, 1, 1), &resp).ok()) {
          ADD_FAILURE() << "reader transport error";
          return;
        }
        if (resp.status != WireStatus::kOk) continue;  // shutdown race
        ASSERT_GE(resp.epoch, 1u);
        ASSERT_LE(resp.epoch, 1u + kSpares);
        ASSERT_EQ(resp.num_edges, 9u + 2 * (resp.epoch - 1))
            << "epoch " << resp.epoch << " answered a torn state";
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Client updater = h.Connect();
  for (uint32_t k = 0; k < kSpares; ++k) {
    WireResponse resp;
    ASSERT_TRUE(
        updater.Update(UpdateOp::kInsertEdge, 3 + k, 0, 1.0, &resp).ok());
    ASSERT_EQ(resp.status, WireStatus::kOk) << "insert " << k;
    uint64_t epoch = 0;
    ASSERT_TRUE(updater.Commit(&epoch).ok());
    ASSERT_EQ(epoch, 2u + k);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(reads.load(), 0u);

  // Final state sanity through a fresh connection.
  Client client = h.Connect();
  WireResponse resp;
  ASSERT_TRUE(client.Call(Query(0, 1, 1), &resp).ok());
  EXPECT_EQ(resp.epoch, 1u + kSpares);
  EXPECT_EQ(resp.num_edges, 9u + 2 * kSpares);
  const ServeStats stats = h.server->Stats();
  EXPECT_EQ(stats.updates_applied, kSpares);
  EXPECT_EQ(stats.epochs_published, kSpares);
  EXPECT_EQ(stats.update_conflicts, 0u);
}

// ----------------------------------------------------- dynamic index ----

TEST(DynamicDeltaIndexTest, EpochAndSummaryTrackMutations) {
  const BipartiteGraph g = StressGraph(2);
  DynamicDeltaIndex dyn(g);
  EXPECT_EQ(dyn.Epoch(), 0u);

  ASSERT_TRUE(dyn.InsertEdge(3, g.NumUpper() + 0, 1.0).ok());
  EXPECT_EQ(dyn.Epoch(), 1u);
  ASSERT_TRUE(dyn.UpdateWeight(0, g.NumUpper() + 0, 4.5).ok());
  EXPECT_EQ(dyn.Epoch(), 2u);
  EXPECT_FALSE(dyn.UpdateWeight(4, g.NumUpper() + 0, 1.0).ok())
      << "reweighting an absent edge must fail";

  UpdateSummary summary = dyn.DrainSummary();
  EXPECT_EQ(summary.epoch, 2u);
  EXPECT_TRUE(summary.topology_changed);
  EXPECT_TRUE(summary.weights_changed);
  // Both endpoints of the inserted edge are in the touched set.
  std::vector<uint8_t> touched(g.NumVertices(), 0);
  for (const VertexId x : summary.touched) touched[x] = 1;
  EXPECT_TRUE(touched[3]);
  EXPECT_TRUE(touched[g.NumUpper() + 0]);
  EXPECT_EQ(summary.reweights,
            (std::vector<Edge>{Edge{0, g.NumUpper() + 0, 4.5}}));

  // Drained: the next summary starts clean.
  summary = dyn.DrainSummary();
  EXPECT_FALSE(summary.topology_changed);
  EXPECT_FALSE(summary.weights_changed);
  EXPECT_TRUE(summary.touched.empty());
  EXPECT_TRUE(summary.reweights.empty());

  // Weights-only mutation reports weights_changed but not topology, and
  // lists each reweighted edge once with its last weight.
  ASSERT_TRUE(dyn.UpdateWeight(0, g.NumUpper() + 1, 2.25).ok());
  ASSERT_TRUE(dyn.UpdateWeight(1, g.NumUpper() + 1, 6.0).ok());
  ASSERT_TRUE(dyn.UpdateWeight(0, g.NumUpper() + 1, 3.0).ok());
  summary = dyn.DrainSummary();
  EXPECT_FALSE(summary.topology_changed);
  EXPECT_TRUE(summary.weights_changed);
  EXPECT_EQ(summary.reweights,
            (std::vector<Edge>{Edge{0, g.NumUpper() + 1, 3.0},
                               Edge{1, g.NumUpper() + 1, 6.0}}));
  ASSERT_TRUE(dyn.UpdateWeight(0, g.NumUpper() + 1, 2.25).ok());
  EXPECT_EQ(dyn.DrainSummary().reweights.size(), 1u)
      << "a drained edge must be listed again";

  // The exported graph carries the reweights.
  const BipartiteGraph out = dyn.ExportGraph();
  bool found = false;
  for (const Arc& a : out.Neighbors(0)) {
    if (a.to == out.NumUpper() + 0) {
      EXPECT_EQ(out.GetEdge(a.eid).w, 4.5);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(DynamicDeltaIndexTest, ExportDecompositionMatchesFreshPeel) {
  const BipartiteGraph g = StressGraph(3);
  DynamicDeltaIndex dyn(g);
  ASSERT_TRUE(dyn.InsertEdge(3, g.NumUpper() + 0, 1.0).ok());
  ASSERT_TRUE(dyn.InsertEdge(4, g.NumUpper() + 1, 1.0).ok());
  ASSERT_TRUE(dyn.RemoveEdge(5, g.NumUpper() + 5).ok());
  const BipartiteGraph out = dyn.ExportGraph();
  EXPECT_EQ(dyn.ExportDecomposition(), ComputeBicoreDecomposition(out));
}

}  // namespace
}  // namespace abcs::serve
