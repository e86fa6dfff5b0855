#include "match/refine.h"

#include <algorithm>
#include <memory>

#include "common/packed_bits.h"
#include "graph/snapshot.h"
#include "match/bipartite.h"

namespace graphql::match {

namespace {

/// Unique undirected neighbor list of pattern node u (parallel edges
/// collapsed; for directed graphs, in- and out-neighbors are merged — this
/// weakens but never unsounds the pruning). The data side reads the same
/// lists from GraphSnapshot::unique_neighbors.
std::vector<NodeId> PatternNeighbors(const algebra::GraphPattern& pattern,
                                     NodeId u) {
  const Graph& p = pattern.graph();
  std::vector<NodeId> out;
  out.reserve(p.Degree(u));
  for (const Graph::Adj& a : p.neighbors(u)) out.push_back(a.node);
  if (p.directed()) {
    for (const Graph::Adj& a : p.in_neighbors(u)) out.push_back(a.node);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// The state of Algorithm 4.2: pattern neighbor lists, the k x n candidate
/// and marked-pair bitmaps (governed), the bipartite test, removal with
/// re-marking, and the write-back.
class RefineState {
 public:
  RefineState(const algebra::GraphPattern& pattern, const GraphSnapshot& snap,
              const std::vector<std::vector<NodeId>>& candidates,
              ResourceGovernor* governor)
      : snap_(snap),
        in_cand_(candidates.size(), snap.num_nodes()),
        marked_(candidates.size(), snap.num_nodes()),
        mem_(governor, in_cand_.bytes() + marked_.bytes(),
             GovernPoint::kRefine) {
    const size_t k = candidates.size();
    pnbr_.resize(k);
    for (size_t u = 0; u < k; ++u) {
      pnbr_[u] = PatternNeighbors(pattern, static_cast<NodeId>(u));
      for (NodeId v : candidates[u]) {
        in_cand_.Set(u, v);
        marked_.Set(u, v);
      }
    }
  }

  size_t k() const { return pnbr_.size(); }
  const PackedBits& in_cand() const { return in_cand_; }
  const PackedBits& marked() const { return marked_; }

  /// Level-l test of (u, v): B(u, v) between N(u) and N(v), with an edge
  /// (u', v') iff v' is currently in Phi(u'), must have a semi-perfect
  /// matching. An isolated pattern node is trivially matchable.
  bool Feasible(NodeId u, NodeId v, std::vector<std::vector<int>>* adj,
                uint64_t* bipartite_checks) const {
    const std::vector<NodeId>& nu = pnbr_[u];
    if (nu.empty()) return true;
    std::span<const NodeId> nv = snap_.unique_neighbors(v);
    adj->assign(nu.size(), {});
    for (size_t i = 0; i < nu.size(); ++i) {
      for (size_t j = 0; j < nv.size(); ++j) {
        if (in_cand_.Test(nu[i], nv[j])) {
          (*adj)[i].push_back(static_cast<int>(j));
        }
      }
    }
    ++*bipartite_checks;
    return HasSemiPerfectMatching(static_cast<int>(nu.size()),
                                  static_cast<int>(nv.size()), *adj);
  }

  void ClearMark(size_t u, size_t v) { marked_.Clear(u, v); }

  /// Removes v from Phi(u) and marks every surviving neighbor pair whose
  /// bipartite test the removal can change.
  void Remove(NodeId u, NodeId v) {
    in_cand_.Clear(u, v);
    ClearMark(u, v);
    for (NodeId u2 : pnbr_[u]) {
      for (NodeId v2 : snap_.unique_neighbors(v)) {
        if (in_cand_.Test(u2, v2)) marked_.Set(u2, v2);
      }
    }
  }

  /// Writes the surviving candidates back, preserving order.
  void WriteBack(std::vector<std::vector<NodeId>>* candidates) const {
    for (size_t u = 0; u < k(); ++u) {
      std::vector<NodeId>& list = (*candidates)[u];
      list.erase(std::remove_if(list.begin(), list.end(),
                                [&](NodeId v) { return !in_cand_.Test(u, v); }),
                 list.end());
    }
  }

 private:
  const GraphSnapshot& snap_;
  std::vector<std::vector<NodeId>> pnbr_;
  PackedBits in_cand_;
  PackedBits marked_;
  ScopedReserve mem_;
};

}  // namespace

void RefineSearchSpace(const algebra::GraphPattern& pattern, const Graph& data,
                       int level, std::vector<std::vector<NodeId>>* candidates,
                       RefineStats* stats, bool use_marking,
                       obs::MetricsRegistry* metrics,
                       ResourceGovernor* governor, const GraphSnapshot* snap) {
  RefineSearchSpaceParallel(pattern, data, level, candidates, stats,
                            use_marking, metrics, governor, 0, nullptr,
                            nullptr, snap);
}

void RefineSearchSpaceParallel(const algebra::GraphPattern& pattern,
                               const Graph& data, int level,
                               std::vector<std::vector<NodeId>>* candidates,
                               RefineStats* stats, bool use_marking,
                               obs::MetricsRegistry* metrics,
                               ResourceGovernor* governor, int /*num_threads*/,
                               ThreadPool* /*pool*/,
                               ParallelRefineStats* pstats,
                               const GraphSnapshot* snap) {
  if (pstats != nullptr) *pstats = ParallelRefineStats{};
  const size_t k = pattern.graph().NumNodes();
  if (k == 0 || level <= 0) return;
  std::shared_ptr<const GraphSnapshot> holder;
  if (snap == nullptr) {
    holder = data.snapshot();
    snap = holder.get();
  }
  RefineState st(pattern, *snap, *candidates, governor);
  PackedBits todo(k, st.in_cand().cols());  // Level-start copy.
  ScopedReserve todo_mem(governor, todo.bytes(), GovernPoint::kRefine);
  RefineStats local;
  std::vector<std::vector<int>> adj;  // Reused bipartite adjacency buffer.

  // Gauss-Seidel in ascending (u, v): each pair charges one step, and a
  // removal is visible to the later pairs of its level.
  for (int l = 0; l < level; ++l) {
    local.levels_run = l + 1;
    bool changed = false;
    todo.CopyFrom(use_marking ? st.marked() : st.in_cand());
    for (size_t u = 0; u < k && !local.aborted; ++u) {
      const NodeId pu = static_cast<NodeId>(u);
      todo.ForEachInRow(u, [&](size_t v) {
        ++local.pairs_charged;
        if (!GovCharge(governor, 1, GovernPoint::kRefine)) {
          local.aborted = true;
          return false;
        }
        const NodeId pv = static_cast<NodeId>(v);
        if (st.Feasible(pu, pv, &adj, &local.bipartite_checks)) {
          st.ClearMark(pu, pv);
          return true;
        }
        st.Remove(pu, pv);
        changed = true;
        ++local.removed;
        return true;
      });
    }
    if (local.aborted || !changed) break;
  }

  st.WriteBack(candidates);
  if (stats != nullptr) {
    stats->bipartite_checks += local.bipartite_checks;
    stats->removed += local.removed;
    stats->levels_run = local.levels_run;
    stats->pairs_charged += local.pairs_charged;
    stats->aborted |= local.aborted;
  }
  if (metrics != nullptr) {
    metrics->GetCounter("match.refine.bipartite_checks")
        ->Increment(local.bipartite_checks);
    metrics->GetCounter("match.refine.removed")->Increment(local.removed);
    metrics->GetCounter("match.refine.levels")
        ->Increment(static_cast<uint64_t>(local.levels_run));
  }
}

}  // namespace graphql::match
