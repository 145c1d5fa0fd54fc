#include "check.h"

#include <algorithm>
#include <map>
#include <string>

namespace perfbench {

using abcs::serve::IsScsMethod;
using abcs::serve::UpdateOp;
using abcs::serve::WireMethod;
using abcs::serve::WireRequest;
using abcs::serve::WireResponse;
using abcs::serve::WireStatus;

namespace {

struct Item {
  uint64_t epoch;
  const WireRequest* req;
  const WireResponse* resp;
  bool full;   ///< also compare with the threshold search
  bool probe;  ///< must answer at `expected_epoch`
  uint64_t expected_epoch;
};

/// The ScsAlgo byte an explicit SCS method must report; 0 for scs-auto.
uint8_t KernelOf(WireMethod m) {
  switch (m) {
    case WireMethod::kScsPeel:
      return 1;
    case WireMethod::kScsExpand:
      return 2;
    case WireMethod::kScsBinary:
      return 3;
    default:
      return 0;
  }
}

std::string Describe(const WireRequest& q, const WireResponse& r) {
  return std::string(abcs::serve::WireMethodName(q.method)) + " q=" +
         std::to_string(q.q) + (q.lower_side ? "l" : "u") + " (" +
         std::to_string(q.alpha) + "," + std::to_string(q.beta) +
         ") epoch=" + std::to_string(r.epoch) + ": status=" +
         abcs::serve::WireStatusName(r.status) +
         " |C|=" + std::to_string(r.num_edges) +
         " |R|=" + std::to_string(r.result_edges) +
         " f=" + std::to_string(r.significance) +
         " found=" + std::to_string(r.found) +
         " kernel=" + std::to_string(r.kernel);
}

bool CheckOne(const Item& it, const RefGraph& g, const RefCores& cores,
              std::string* why) {
  const WireRequest& q = *it.req;
  const WireResponse& r = *it.resp;
  const uint32_t x = UnifiedVertex(q, g.num_upper);
  const uint32_t c = cores.CommunityEdges(x);
  const bool in_core = c > 0;
  auto fail = [&](const std::string& what) {
    *why = what + " (reference |C|=" + std::to_string(c) + "); " +
           Describe(q, r);
    return false;
  };
  if (r.status != WireStatus::kOk) return fail("not ok");
  if (r.num_edges != c) return fail("|C| differs");
  if (r.found != in_core) return fail("found differs from |C| > 0");
  if (!IsScsMethod(q.method)) {
    if (r.result_edges != 0) return fail("retrieval with |R|");
  } else if (r.found) {
    if (r.result_edges == 0 || r.result_edges > c) return fail("|R| out of range");
    const uint8_t want = KernelOf(q.method);
    if (want != 0 ? r.kernel != want : (r.kernel < 1 || r.kernel > 3)) {
      return fail("wrong kernel");
    }
  }
  if (it.full) {
    const RefScs ref = RefSignificant(g, cores, x);
    if (r.found != ref.found || r.result_edges != ref.result_edges ||
        r.significance != ref.significance) {
      return fail("threshold search gives |R|=" +
                  std::to_string(ref.result_edges) +
                  " f=" + std::to_string(ref.significance));
    }
  }
  if (it.probe && r.epoch != it.expected_epoch) {
    return fail("probe answered at another epoch than " +
                std::to_string(it.expected_epoch));
  }
  return true;
}

bool ApplyBatch(const Batch& batch, RefEdgeSet* edges) {
  bool ok = true;
  for (const WireRequest& op : batch.ops) {
    switch (op.op) {
      case UpdateOp::kInsertEdge:
        ok &= edges->Insert(op.u, op.v, op.weight);
        break;
      case UpdateOp::kRemoveEdge:
        ok &= edges->Remove(op.u, op.v);
        break;
      case UpdateOp::kReweightEdge:
        ok &= edges->Reweight(op.u, op.v, op.weight);
        break;
      case UpdateOp::kCommit:
        break;
    }
  }
  return ok;
}

}  // namespace

void CheckAnswers(const WorkloadSpec& spec, const RefGraph& initial,
                  const std::vector<RefCores>& initial_cores,
                  const Inputs& inputs, const std::vector<const ReadLog*>& reads,
                  const ReadLog& open, const WriterLog& writer,
                  Accounting* acct) {
  std::vector<Item> items;
  uint32_t sampled = 0;
  for (const ReadLog* log : reads) {
    if (!log->error.empty()) ReportFailure("transport: " + log->error);
    for (uint64_t i = log->answers.size(); i < log->planned; ++i) {
      acct->Add(OpKind::kQuery, false);
    }
    for (const ReadAnswer& a : log->answers) {
      const WireRequest& req = (*log->stream)[a.index];
      bool full = false;
      if (log == &open && IsScsMethod(req.method) && sampled < spec.scs_sample) {
        full = true;
        ++sampled;
      }
      items.push_back({a.resp.epoch, &req, &a.resp, full, false, 0});
    }
  }
  for (const ProbeAnswer& p : writer.probes) {
    if (!p.answered) {
      acct->Add(OpKind::kCheck, false);
      ReportFailure("probe not answered");
      continue;
    }
    items.push_back({p.resp.epoch, &p.req, &p.resp, IsScsMethod(p.req.method),
                     true, p.expected_epoch});
  }
  std::stable_sort(items.begin(), items.end(),
                   [](const Item& a, const Item& b) { return a.epoch < b.epoch; });

  RefEdgeSet state(initial);
  std::size_t applied = 0;
  for (std::size_t i = 0; i < items.size();) {
    const uint64_t epoch = items[i].epoch;
    std::size_t j = i;
    while (j < items.size() && items[j].epoch == epoch) ++j;
    // Batches applied at this epoch: 0 at the seed epoch 1, b + 1 at the
    // epoch batch b's commit published.
    std::size_t k = SIZE_MAX;
    if (epoch == 1) k = 0;
    for (std::size_t b = 0; b < writer.commit_epochs.size(); ++b) {
      if (writer.commit_epochs[b] == epoch) k = b + 1;
    }
    bool known = k != SIZE_MAX && k >= applied;
    while (known && applied < k) {
      known = ApplyBatch(inputs.batches[applied++], &state);
    }
    RefGraph current;
    if (known && k > 0) current = state.Graph();
    const RefGraph& g = k == 0 ? initial : current;
    std::map<std::pair<uint32_t, uint32_t>, RefCores> cores;
    for (; i < j; ++i) {
      const Item& it = items[i];
      std::string why;
      bool ok = false;
      if (!known) {
        why = "answer at unknown epoch " + std::to_string(epoch) + "; " +
              Describe(*it.req, *it.resp);
      } else {
        const std::pair<uint32_t, uint32_t> key{it.req->alpha, it.req->beta};
        const RefCores* rc = nullptr;
        if (k == 0) {
          for (std::size_t p = 0; p < spec.pairs.size(); ++p) {
            if (spec.pairs[p] == key) rc = &initial_cores[p];
          }
        }
        if (rc == nullptr) {
          auto found = cores.find(key);
          if (found == cores.end()) {
            found = cores.emplace(key, RefCoreComponents(g, key.first,
                                                         key.second))
                        .first;
          }
          rc = &found->second;
        }
        ok = CheckOne(it, g, *rc, &why);
      }
      if (!it.probe) acct->Add(OpKind::kQuery, ok);
      acct->Add(OpKind::kCheck, ok);
      if (!ok) ReportFailure(why);
    }
  }
}

}  // namespace perfbench
