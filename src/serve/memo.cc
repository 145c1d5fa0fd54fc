#include "serve/memo.h"

#include <algorithm>
#include <mutex>
#include <unordered_set>

namespace abcs::serve {

bool QueryMemo::Lookup(WireMethod method, uint32_t alpha, uint32_t beta,
                       VertexId q, MemoValue* out, uint64_t epoch) const {
  const Key vkey{static_cast<uint8_t>(method), alpha, beta, q};
  {
    std::shared_lock lock(mu_);
    if (epoch == aligned_epoch_) {
      const auto root_it = roots_.find(vkey);
      if (root_it != roots_.end()) {
        const Key rkey{static_cast<uint8_t>(method), alpha, beta,
                       root_it->second};
        const auto it = results_.find(rkey);
        if (it != results_.end()) {
          *out = it->second.value;
          hits_.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void QueryMemo::Insert(WireMethod method, uint32_t alpha, uint32_t beta,
                       VertexId q, const BipartiteGraph& g,
                       const Subgraph& community, const MemoValue& value,
                       uint64_t epoch) {
  // Sharing across the component is only sound for retrieval answers;
  // SCS answers depend on q (see the class comment), and oversized
  // communities are capped to bound insert cost.
  EntryKind kind;
  if (IsScsMethod(method)) {
    kind = EntryKind::kScs;
  } else if (community.Empty()) {
    kind = EntryKind::kEmpty;
  } else if (community.edges.size() > kMaxRegisterEdges) {
    kind = EntryKind::kOversized;
  } else {
    kind = EntryKind::kShared;
  }
  const bool share = kind == EntryKind::kShared;
  uint32_t root = q;
  if (share) {
    // Canonical root: the smallest vertex id in C. Upper ids precede
    // lower ids in the unified space, so the minimum over upper
    // endpoints suffices.
    root = g.GetEdge(community.edges[0]).u;
    for (const EdgeId e : community.edges) {
      root = std::min(root, g.GetEdge(e).u);
    }
  }

  std::unique_lock lock(mu_);
  // A worker that computed against an already-retired snapshot must not
  // poison the published epoch's table; its (still correct) answer was
  // flushed to the wire, only the cache write is dropped.
  if (epoch != aligned_epoch_) return;
  if (roots_.size() >= max_entries_) {
    // Flush-on-pressure: a warm cache earns no complexity budget for an
    // eviction policy; steady traffic re-fills it within seconds.
    roots_.clear();
    results_.clear();
    scs_keys_.clear();
  }
  const Key rkey{static_cast<uint8_t>(method), alpha, beta, root};
  if (results_.insert_or_assign(rkey, Entry{value, kind}).second &&
      kind == EntryKind::kScs) {
    scs_keys_.push_back(rkey);
  }
  if (share) {
    for (const EdgeId e : community.edges) {
      const Edge& ed = g.GetEdge(e);
      roots_[{static_cast<uint8_t>(method), alpha, beta, ed.u}] = root;
      roots_[{static_cast<uint8_t>(method), alpha, beta, ed.v}] = root;
    }
  } else {
    roots_[{static_cast<uint8_t>(method), alpha, beta, q}] = root;
  }
}

void QueryMemo::Invalidate() {
  std::unique_lock lock(mu_);
  roots_.clear();
  results_.clear();
  scs_keys_.clear();
  epoch_.fetch_add(1, std::memory_order_relaxed);
}

void QueryMemo::SetEpoch(uint64_t epoch) {
  std::unique_lock lock(mu_);
  aligned_epoch_ = epoch;
}

void QueryMemo::AdvanceEpoch(uint64_t new_epoch, bool topology_changed,
                             bool flush_all,
                             const std::vector<uint8_t>& touched) {
  std::unique_lock lock(mu_);
  aligned_epoch_ = new_epoch;
  epoch_.fetch_add(1, std::memory_order_relaxed);
  if (flush_all) {
    roots_.clear();
    results_.clear();
    scs_keys_.clear();
    return;
  }
  if (!topology_changed) {
    // Weights-only: exactly the SCS entries go, each registered under its
    // own key — no scan of the (much larger) retrieval registrations.
    for (const Key& key : scs_keys_) {
      results_.erase(key);
      roots_.erase(key);
    }
    scs_keys_.clear();
    return;
  }
  scs_keys_.clear();  // the sweep below drops every SCS entry

  // A touched registered member witnesses every way a shared answer can
  // go stale (membership changes, component merges/splits, edges between
  // surviving members): `touched` already includes the one-hop expansion
  // covering vertices that *join* a community of untouched members.
  std::unordered_set<Key, KeyHash> dropped;
  for (const auto& [vkey, root] : roots_) {
    if (vkey.vertex < touched.size() && touched[vkey.vertex]) {
      dropped.insert(Key{vkey.method, vkey.alpha, vkey.beta, root});
    }
  }
  for (auto it = results_.begin(); it != results_.end();) {
    const EntryKind kind = it->second.kind;
    const bool drop =
        kind == EntryKind::kScs ||        // reads weights and q's arcs
        kind == EntryKind::kOversized ||  // members unknown, unverifiable
        dropped.count(it->first) != 0;
    it = drop ? results_.erase(it) : ++it;
  }
  // Sweep root registrations whose result is gone so they cannot revive a
  // dropped answer through a future insert under the same root.
  for (auto it = roots_.begin(); it != roots_.end();) {
    const Key rkey{it->first.method, it->first.alpha, it->first.beta,
                   it->second};
    it = results_.count(rkey) == 0 ? roots_.erase(it) : ++it;
  }
}

}  // namespace abcs::serve
