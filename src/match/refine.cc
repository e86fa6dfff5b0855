#include "match/refine.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/packed_bits.h"
#include "graph/snapshot.h"
#include "match/bipartite.h"

namespace graphql::match {

namespace {

uint64_t PairKey(NodeId u, NodeId v) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(u)) << 32) |
         static_cast<uint32_t>(v);
}

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

/// The state both Algorithm 4.2 loops share: pattern neighbor lists, the
/// k x n candidate and marked-pair bitmaps (governed), the bipartite test,
/// removal with re-marking, and the write-back. The serial and parallel
/// refinements differ only in how a level's pairs are scheduled.
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
        Mark(u, v);
      }
    }
  }

  size_t k() const { return pnbr_.size(); }
  size_t marked_count() const { return marked_count_; }
  const PackedBits& in_cand() const { return in_cand_; }
  const PackedBits& marked() const { return marked_; }
  bool InCand(NodeId u, NodeId v) const { return in_cand_.Test(u, v); }

  /// Level-l test of (u, v): B(u, v) between N(u) and N(v), with an edge
  /// (u', v') iff v' is currently in Phi(u'), must have a semi-perfect
  /// matching. An isolated pattern node is trivially matchable. Reads the
  /// bitmaps only, so concurrent callers are safe between barriers.
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

  void ClearMark(size_t u, size_t v) {
    if (marked_.Test(u, v)) {
      marked_.Clear(u, v);
      --marked_count_;
    }
  }

  /// Removes v from Phi(u) and marks every surviving neighbor pair whose
  /// bipartite test the removal can change.
  void Remove(NodeId u, NodeId v) {
    in_cand_.Clear(u, v);
    ClearMark(u, v);
    for (NodeId u2 : pnbr_[u]) {
      for (NodeId v2 : snap_.unique_neighbors(v)) {
        if (in_cand_.Test(u2, v2)) Mark(u2, v2);
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
  void Mark(size_t u, size_t v) {
    if (!marked_.Test(u, v)) {
      marked_.Set(u, v);
      ++marked_count_;
    }
  }

  const GraphSnapshot& snap_;
  std::vector<std::vector<NodeId>> pnbr_;
  PackedBits in_cand_;
  PackedBits marked_;
  size_t marked_count_ = 0;
  ScopedReserve mem_;
};

void FlushRefineStats(const RefineStats& local, RefineStats* stats,
                      obs::MetricsRegistry* metrics) {
  if (stats != nullptr) {
    stats->bipartite_checks += local.bipartite_checks;
    stats->removed += local.removed;
    stats->dirty_skips += local.dirty_skips;
    stats->levels_run = local.levels_run;
    stats->pairs_charged += local.pairs_charged;
    stats->aborted |= local.aborted;
  }
  if (metrics != nullptr) {
    metrics->GetCounter("match.refine.bipartite_checks")
        ->Increment(local.bipartite_checks);
    metrics->GetCounter("match.refine.removed")->Increment(local.removed);
    metrics->GetCounter("match.refine.dirty_skips")
        ->Increment(local.dirty_skips);
    metrics->GetCounter("match.refine.levels")
        ->Increment(static_cast<uint64_t>(local.levels_run));
  }
}

/// Returns `snap` or, when null, the data graph's cached snapshot (compiled
/// on first use), held in `holder`. Runs on the calling thread, before any
/// fan-out.
const GraphSnapshot& SnapshotOf(const Graph& data, const GraphSnapshot* snap,
                                std::shared_ptr<const GraphSnapshot>* holder) {
  if (snap != nullptr) return *snap;
  *holder = data.snapshot();
  return **holder;
}

}  // namespace

void RefineSearchSpace(const algebra::GraphPattern& pattern, const Graph& data,
                       int level, std::vector<std::vector<NodeId>>* candidates,
                       RefineStats* stats, bool use_marking,
                       obs::MetricsRegistry* metrics,
                       ResourceGovernor* governor, const GraphSnapshot* snap) {
  const size_t k = pattern.graph().NumNodes();
  if (k == 0 || level <= 0) return;
  std::shared_ptr<const GraphSnapshot> holder;
  RefineState st(pattern, SnapshotOf(data, snap, &holder), *candidates,
                 governor);
  PackedBits todo(k, st.in_cand().cols());  // Level-start copy.
  ScopedReserve todo_mem(governor, todo.bytes(), GovernPoint::kRefine);
  RefineStats local;

  // Gauss-Seidel: a removal is visible to the later pairs of its level.
  std::vector<std::vector<int>> adj;  // Reused bipartite adjacency buffer.
  bool changed = false;
  // Returns false to stop the level (governor trip).
  auto process = [&](NodeId u, NodeId v) {
    ++local.pairs_charged;
    if (!GovCharge(governor, 1, GovernPoint::kRefine)) {
      local.aborted = true;
      return false;
    }
    if (!st.InCand(u, v)) {  // Already removed this level.
      ++local.dirty_skips;
      return true;
    }
    if (st.Feasible(u, v, &adj, &local.bipartite_checks)) {
      st.ClearMark(u, v);
      return true;
    }
    st.Remove(u, v);
    changed = true;
    ++local.removed;
    return true;
  };

  for (int l = 0; l < level; ++l) {
    local.levels_run = l + 1;
    changed = false;
    if (use_marking) {
      // Marked pairs drain in ascending (u, v) order.
      if (st.marked_count() == 0) break;
      todo.CopyFrom(st.marked());
      for (size_t u = 0; u < k && !local.aborted; ++u) {
        todo.ForEachInRow(u, [&](size_t v) {
          return process(static_cast<NodeId>(u), static_cast<NodeId>(v));
        });
      }
    } else {
      // The no-marking ablation re-checks every surviving pair in
      // candidate-list order.
      todo.CopyFrom(st.in_cand());
      bool any = false;
      for (size_t u = 0; u < k && !local.aborted; ++u) {
        for (NodeId v : (*candidates)[u]) {
          if (!todo.Test(u, v)) continue;
          any = true;
          if (!process(static_cast<NodeId>(u), v)) break;
        }
      }
      if (!any) break;
    }
    if (local.aborted) break;
    if (!changed && use_marking && st.marked_count() == 0) break;
    if (!changed && !use_marking) break;
  }

  st.WriteBack(candidates);
  FlushRefineStats(local, stats, metrics);
}

void RefineSearchSpaceParallel(const algebra::GraphPattern& pattern,
                               const Graph& data, int level,
                               std::vector<std::vector<NodeId>>* candidates,
                               RefineStats* stats, bool use_marking,
                               obs::MetricsRegistry* metrics,
                               ResourceGovernor* governor, int num_threads,
                               ThreadPool* pool, ParallelRefineStats* pstats,
                               const GraphSnapshot* snap) {
  const int workers = ResolveWorkers(num_threads, pool);
  if (workers <= 0) {
    RefineSearchSpace(pattern, data, level, candidates, stats, use_marking,
                      metrics, governor, snap);
    return;
  }
  const size_t k = pattern.graph().NumNodes();
  if (k == 0 || level <= 0) return;
  ThreadPool& tp = pool != nullptr ? *pool : ThreadPool::Shared();
  std::shared_ptr<const GraphSnapshot> holder;
  RefineState st(pattern, SnapshotOf(data, snap, &holder), *candidates,
                 governor);
  RefineStats local;

  struct WorkerState {
    GovernorShard shard;
    std::vector<std::vector<int>> adj;  // Reused bipartite buffer.
    uint64_t bipartite_checks = 0;
  };
  std::vector<WorkerState> ws(static_cast<size_t>(workers));
  for (WorkerState& s : ws) {
    s.shard = GovernorShard(governor, GovernPoint::kRefine);
  }

  uint64_t tasks_stolen = 0;
  int max_workers_seen = 0;
  std::vector<ThreadPool::WorkerLane> lanes;
  std::atomic<bool> aborted{false};

  for (int l = 0; l < level; ++l) {
    local.levels_run = l + 1;
    // The level's worklist in the serial order: marked pairs ascending, or
    // (no marking) surviving pairs in candidate-list order.
    std::vector<uint64_t> todo;
    if (use_marking) {
      todo.reserve(st.marked_count());
      for (size_t u = 0; u < k; ++u) {
        st.marked().ForEachInRow(u, [&](size_t v) {
          todo.push_back(PairKey(static_cast<NodeId>(u),
                                 static_cast<NodeId>(v)));
          return true;
        });
      }
    } else {
      for (size_t u = 0; u < k; ++u) {
        for (NodeId v : (*candidates)[u]) {
          if (st.InCand(static_cast<NodeId>(u), v)) {
            todo.push_back(PairKey(static_cast<NodeId>(u), v));
          }
        }
      }
    }
    if (todo.empty()) break;

    // Jacobi check phase: every pair is tested against the level-start
    // bitmaps; failing pairs are buffered, never applied in-flight.
    std::vector<char> remove(todo.size(), 0);
    // The materialized worklist and verdict buffer are the level's real
    // transient allocations (up to k*n pairs); charge them so a memory
    // budget smaller than the refinement state trips here, not only at
    // the bitmap reserve. Released at the level barrier.
    ScopedReserve level_mem(governor,
                            todo.size() * sizeof(uint64_t) + remove.size(),
                            GovernPoint::kRefine);
    auto check_pair = [&](size_t i, int w) {
      if (aborted.load(std::memory_order_relaxed)) return;
      WorkerState& s = ws[static_cast<size_t>(w)];
      if (!s.shard.Charge()) {
        aborted.store(true, std::memory_order_relaxed);
        return;
      }
      NodeId u = static_cast<NodeId>(todo[i] >> 32);
      NodeId v = static_cast<NodeId>(todo[i] & 0xffffffffu);
      if (!st.Feasible(u, v, &s.adj, &s.bipartite_checks)) remove[i] = 1;
    };
    ThreadPool::RunStats run = tp.ParallelFor(todo.size(), workers, check_pair);
    tasks_stolen += run.stolen;
    max_workers_seen = std::max(max_workers_seen, run.workers);
    MergeWorkerLanes(&lanes, run.lanes);

    if (aborted.load(std::memory_order_relaxed)) {
      // The level's verdicts are incomplete: discard them (earlier levels'
      // removals stand and are sound).
      local.aborted = true;
      break;
    }

    // Barrier: apply buffered removals in pair order and re-mark the
    // neighbors whose bipartite test they can affect.
    bool changed = false;
    for (size_t i = 0; i < todo.size(); ++i) {
      NodeId u = static_cast<NodeId>(todo[i] >> 32);
      NodeId v = static_cast<NodeId>(todo[i] & 0xffffffffu);
      if (!remove[i]) {
        st.ClearMark(u, v);
        continue;
      }
      st.Remove(u, v);
      changed = true;
      ++local.removed;
    }
    if (!changed && use_marking && st.marked_count() == 0) break;
    if (!changed && !use_marking) break;
  }

  st.WriteBack(candidates);

  for (WorkerState& s : ws) {
    // A trip surfacing only at this final flush (small workloads never
    // reach an in-stage flush) still aborts the refinement: the pipeline's
    // degrade fallback then restores the unrefined sets and refunds the
    // charge, matching the serial per-pair cadence.
    if (!s.shard.Flush()) local.aborted = true;
    local.bipartite_checks += s.bipartite_checks;
    local.pairs_charged += s.shard.charged();
  }
  if (pstats != nullptr) {
    pstats->workers = max_workers_seen;
    pstats->tasks_stolen = tasks_stolen;
    pstats->lanes = std::move(lanes);
  }
  FlushRefineStats(local, stats, metrics);
}

}  // namespace graphql::match
