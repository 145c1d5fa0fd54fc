#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <unordered_set>

#include "common.h"

namespace perfbench {

using abcs::serve::MessageType;
using abcs::serve::UpdateOp;
using abcs::serve::WireMethod;
using abcs::serve::WireRequest;

namespace {

std::vector<std::pair<uint32_t, uint32_t>> Grid(
    std::initializer_list<uint32_t> values) {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (const uint32_t a : values) {
    for (const uint32_t b : values) pairs.emplace_back(a, b);
  }
  return pairs;
}

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {
          "scs_uniform", "DTI",
          // δ = 47: below, at and above 0.7δ ≈ 33. Twenty-five cores hold
          // enough vertices that a run's draws never repeat a key.
          Grid({20, 26, 33, 40, 47}),
          {{WireMethod::kScsAuto, 720},
           {WireMethod::kScsPeel, 60},
           {WireMethod::kScsExpand, 60},
           {WireMethod::kScsBinary, 60},
           {WireMethod::kDelta, 40},
           {WireMethod::kBicore, 40},
           {WireMethod::kOnline, 20}},
          /*zipf_s=*/0.0, /*warm_memo=*/false,
          /*workers=*/2, /*closed_connections=*/2, /*pipeline_depth=*/4,
          /*closed_share=*/1.0 / 3.0, /*closed_stream=*/20000,
          /*open_rate_qps=*/100.0,
          /*reweight_ops=*/8, /*churn_inserts=*/1, /*churn_removes=*/1,
          /*writer_beside_reads=*/false, /*batch_interval_s=*/0.0,
          /*commit_rounds=*/5, /*probe_every=*/2,
          /*setup_reps=*/3, /*scs_sample=*/16,
          /*replay_retrieve=*/1000, /*replay_scs=*/200, /*replay_batches=*/2,
      },
      {
          "retrieval_zipf", "DTI",
          // (6,250) has a 3581-edge community, under the memo's 4096-edge
          // registration bound; the other three are 7.5k to 41k edges.
          {{6, 250}, {47, 47}, {20, 33}, {33, 20}},
          {{WireMethod::kDelta, 1000}},
          /*zipf_s=*/1.1, /*warm_memo=*/true,
          /*workers=*/1, /*closed_connections=*/1, /*pipeline_depth=*/1024,
          /*closed_share=*/1.0 / 3.0, /*closed_stream=*/400000,
          /*open_rate_qps=*/4000.0,
          /*reweight_ops=*/8, /*churn_inserts=*/1, /*churn_removes=*/1,
          /*writer_beside_reads=*/false, /*batch_interval_s=*/0.0,
          /*commit_rounds=*/5, /*probe_every=*/2,
          /*setup_reps=*/3, /*scs_sample=*/0,
          /*replay_retrieve=*/2000, /*replay_scs=*/200, /*replay_batches=*/2,
      },
      {
          "live_updates", "BS",
          // δ = 13: below, at and above 0.7δ ≈ 9.
          Grid({6, 9, 13}),
          {{WireMethod::kScsAuto, 700}, {WireMethod::kDelta, 300}},
          /*zipf_s=*/0.0, /*warm_memo=*/false,
          /*workers=*/1, /*closed_connections=*/1, /*pipeline_depth=*/32,
          /*closed_share=*/1.0 / 3.0, /*closed_stream=*/100000,
          /*open_rate_qps=*/200.0,
          /*reweight_ops=*/8, /*churn_inserts=*/2, /*churn_removes=*/2,
          /*writer_beside_reads=*/true, /*batch_interval_s=*/0.5,
          /*commit_rounds=*/0, /*probe_every=*/8,
          /*setup_reps=*/11, /*scs_sample=*/16,
          /*replay_retrieve=*/2000, /*replay_scs=*/400, /*replay_batches=*/16,
      },
  };
  return specs;
}

/// Draws (α,β) pairs, methods and query vertices. Pairs and methods are
/// dealt from shuffled decks: every round of |pairs| requests holds each
/// pair once, and every round of the mix's smallest whole deck holds each
/// method at its exact share, so a run's mix does not wander with the seed.
class QuerySampler {
 public:
  QuerySampler(const WorkloadSpec& spec, const RefGraph& graph,
               const std::vector<RefCores>& cores, SplitMix* rng)
      : spec_(spec), num_upper_(graph.num_upper), rng_(rng) {
    uint32_t unit = 1000;
    for (const MethodShare& m : spec.mix) unit = std::gcd(unit, m.permille);
    for (const MethodShare& m : spec.mix) {
      method_cards_.insert(method_cards_.end(), m.permille / unit, m.method);
    }
    for (std::size_t p = 0; p < spec.pairs.size(); ++p) pair_cards_.push_back(p);
    for (const RefCores& c : cores) {
      std::vector<uint32_t> members;
      for (uint32_t x = 0; x < graph.NumVertices(); ++x) {
        if (c.comp[x] != RefCores::kNone) members.push_back(x);
      }
      if (members.empty()) {
        std::fprintf(stderr, "empty (%u,%u)-core: no query vertices\n",
                     c.alpha, c.beta);
        std::exit(2);
      }
      // The shuffled order is the Zipf rank order.
      for (std::size_t i = members.size(); i > 1; --i) {
        std::swap(members[i - 1], members[rng_->Below(i)]);
      }
      std::vector<double> cdf;
      if (spec.zipf_s > 0) {
        double total = 0;
        for (std::size_t r = 1; r <= members.size(); ++r) {
          total += std::pow(static_cast<double>(r), -spec.zipf_s);
          cdf.push_back(total);
        }
      }
      members_.push_back(std::move(members));
      next_.push_back(0);
      cdf_.push_back(std::move(cdf));
    }
  }

  WireRequest Next() {
    WireRequest r;
    const std::size_t p = Deal(&pair_cards_, &next_pair_);
    r.alpha = spec_.pairs[p].first;
    r.beta = spec_.pairs[p].second;
    r.method = Deal(&method_cards_, &next_method_);
    SetVertex(&r, Vertex(p));
    return r;
  }

  /// A uniform core vertex of pair p (probe queries).
  uint32_t Uniform(std::size_t p) {
    return members_[p][rng_->Below(members_[p].size())];
  }

  void SetVertex(WireRequest* r, uint32_t x) const {
    r->lower_side = x >= num_upper_;
    r->q = r->lower_side ? x - num_upper_ : x;
  }

 private:
  /// The next card of `deck`, reshuffled whenever a round is dealt.
  template <typename T>
  T Deal(std::vector<T>* deck, std::size_t* next) {
    if (*next == 0) {
      for (std::size_t i = deck->size(); i > 1; --i) {
        std::swap((*deck)[i - 1], (*deck)[rng_->Below(i)]);
      }
    }
    const T card = (*deck)[*next];
    *next = (*next + 1) % deck->size();
    return card;
  }

  /// Uniform draws walk the pair's shuffled core without replacement, so
  /// a vertex repeats only once the whole core has been drawn.
  uint32_t Vertex(std::size_t p) {
    const std::vector<uint32_t>& m = members_[p];
    if (cdf_[p].empty()) return m[next_[p]++ % m.size()];
    const double u = rng_->Unit() * cdf_[p].back();
    const auto it = std::upper_bound(cdf_[p].begin(), cdf_[p].end(), u);
    return m[std::min<std::size_t>(it - cdf_[p].begin(), m.size() - 1)];
  }

  const WorkloadSpec& spec_;
  uint32_t num_upper_;
  SplitMix* rng_;
  std::vector<std::vector<uint32_t>> members_;
  std::vector<std::vector<double>> cdf_;
  std::vector<std::size_t> next_;  ///< per pair: uniform draws so far
  std::vector<std::size_t> pair_cards_;
  std::vector<WireMethod> method_cards_;
  std::size_t next_pair_ = 0;
  std::size_t next_method_ = 0;
};

WireRequest UpdateRequest(UpdateOp op, uint32_t u, uint32_t v, double w) {
  WireRequest r;
  r.type = MessageType::kUpdate;
  r.op = op;
  r.u = u;
  r.v = v;
  r.weight = w;
  return r;
}

/// Batches that never conflict: the generator tracks the edge set, so an
/// insert names an absent edge and a remove or reweight a present one.
std::vector<Batch> MakeBatches(const WorkloadSpec& spec, const RefGraph& graph,
                               std::size_t count, SplitMix* rng) {
  RefEdgeSet edges(graph);
  auto weight = [&] { return 1.0 + 99.0 * rng->Unit(); };
  std::vector<Batch> batches;
  for (std::size_t b = 0; b < count; ++b) {
    Batch batch;
    batch.churn = (b % 2) == 1;
    if (!batch.churn) {
      for (uint32_t i = 0; i < spec.reweight_ops; ++i) {
        const RefEdge e = edges.at(rng->Below(edges.size()));
        const double w = weight();
        edges.Reweight(e.u, e.v, w);
        batch.ops.push_back(UpdateRequest(UpdateOp::kReweightEdge, e.u, e.v, w));
      }
    } else {
      std::unordered_set<uint64_t> inserted;
      const uint32_t n = std::max(spec.churn_inserts, spec.churn_removes);
      for (uint32_t i = 0; i < n; ++i) {
        if (i < spec.churn_inserts) {
          uint32_t u = 0;
          uint32_t v = 0;
          do {
            u = static_cast<uint32_t>(rng->Below(graph.num_upper));
            v = static_cast<uint32_t>(rng->Below(graph.num_lower));
          } while (edges.Contains(u, v));
          const double w = weight();
          edges.Insert(u, v, w);
          inserted.insert((static_cast<uint64_t>(u) << 32) | v);
          batch.ops.push_back(UpdateRequest(UpdateOp::kInsertEdge, u, v, w));
        }
        if (i < spec.churn_removes) {
          RefEdge e;
          do {
            e = edges.at(rng->Below(edges.size()));
          } while (inserted.count((static_cast<uint64_t>(e.u) << 32) | e.v));
          edges.Remove(e.u, e.v);
          batch.ops.push_back(UpdateRequest(UpdateOp::kRemoveEdge, e.u, e.v, 0));
        }
      }
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

void DigestRequest(const WireRequest& r, Digest* d) {
  d->U32(static_cast<uint32_t>(r.type));
  if (r.type == MessageType::kUpdate) {
    d->U32(static_cast<uint32_t>(r.op));
    d->U32(r.u);
    d->U32(r.v);
    d->F64(r.weight);
  } else {
    d->U32(static_cast<uint32_t>(r.method));
    d->U32(r.lower_side ? 1 : 0);
    d->U32(r.q);
    d->U32(r.alpha);
    d->U32(r.beta);
  }
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : Specs()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

Inputs MakeInputs(const WorkloadSpec& spec, const RefGraph& graph,
                  const std::vector<RefCores>& cores, uint64_t seed,
                  double seconds) {
  SplitMix rng(seed);
  QuerySampler sampler(spec, graph, cores, &rng);
  Inputs in;
  // The open loop's fixed count is drawn first: the closed loop uses only
  // a speed-dependent prefix of its stream, which must not wrap the
  // uniform draws into the open loop's keys.
  const double open_seconds = seconds * (1.0 - spec.closed_share);
  const auto open_count =
      static_cast<std::size_t>(std::llround(spec.open_rate_qps * open_seconds));
  for (std::size_t i = 0; i < open_count; ++i) {
    in.open.push_back(sampler.Next());
  }
  for (std::size_t i = 0; i < spec.closed_stream; ++i) {
    in.closed.push_back(sampler.Next());
  }
  if (spec.warm_memo) {
    std::unordered_set<uint64_t> seen;
    for (const auto* stream : {&in.closed, &in.open}) {
      for (const WireRequest& r : *stream) {
        const uint64_t key = (uint64_t{static_cast<uint8_t>(r.method)} << 56) ^
                             (uint64_t{r.alpha} << 40) ^ (uint64_t{r.beta} << 24) ^
                             (uint64_t{r.lower_side} << 23) ^ r.q;
        if (seen.insert(key).second) in.warmup.push_back(r);
      }
    }
  }
  const std::size_t num_batches =
      spec.writer_beside_reads
          ? static_cast<std::size_t>(std::ceil(seconds / spec.batch_interval_s)) + 1
          : 2 * static_cast<std::size_t>(spec.commit_rounds);
  in.batches = MakeBatches(spec, graph, num_batches, &rng);
  // Probes: a retrieval and an SCS query on each of the first two pairs.
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t p = (i / 2) % spec.pairs.size();
    WireRequest r;
    r.alpha = spec.pairs[p].first;
    r.beta = spec.pairs[p].second;
    r.method = (i % 2 == 0) ? WireMethod::kDelta : WireMethod::kScsAuto;
    sampler.SetVertex(&r, sampler.Uniform(p));
    in.probes.push_back(r);
  }

  Digest d;
  for (const auto* stream : {&in.warmup, &in.closed, &in.open, &in.probes}) {
    d.U64(stream->size());
    for (const WireRequest& r : *stream) DigestRequest(r, &d);
  }
  d.U64(in.batches.size());
  for (const Batch& b : in.batches) {
    d.U32(b.churn ? 1 : 0);
    d.U64(b.ops.size());
    for (const WireRequest& r : b.ops) DigestRequest(r, &d);
  }
  in.digest = d.value();
  return in;
}

}  // namespace perfbench
