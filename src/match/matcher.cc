#include "match/matcher.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <span>

#include "common/packed_bits.h"
#include "graph/snapshot.h"

namespace graphql::match {

namespace {

/// Read-only inputs of one search; every worker holds a copy. Edge probes
/// read the data graph's snapshot.
struct SearchPlan {
  const algebra::GraphPattern& pattern;
  const Graph& data;
  const GraphSnapshot& snap;
  const std::vector<std::vector<NodeId>>& candidates;
  const std::vector<NodeId>& order;
  ResourceGovernor* gov;
  /// Per order position, the pattern edges whose other endpoint is mapped
  /// earlier; checked when this position is assigned.
  std::vector<std::vector<EdgeId>> back_edges;
  /// An edge is trivial when it carries no constraint beyond existence.
  std::vector<char> trivial_edge;
  /// Per order position: 1 when order[pos] has a pivot (a pattern
  /// neighbour mapped earlier, through a back edge that is not a
  /// self-loop) and Phi(order[pos]) is strictly ascending; such positions
  /// walk a pivot's neighbours, the others scan Phi(u). The pivots are
  /// read off back_edges: per-position pivot lists (k small vectors,
  /// copied into every worker) measurably slowed small refined searches.
  /// Empty, like `member`, when no position extends, so a search over
  /// each small member graph of a collection allocates nothing more.
  std::vector<char> extend;
  /// Row u is Phi(u) over the data nodes; filled for the pattern nodes
  /// whose position extends.
  PackedBits member;
};

/// What one root task found: its matches in DFS order, the root-local step
/// count at which each was emitted, and how the task ended.
struct RootRun {
  std::vector<algebra::MatchedGraph> matches;
  std::vector<uint64_t> emitted_at;
  SearchStats stats;         ///< steps counts the root's own try too.
  uint64_t csr_probes = 0;   ///< CSR edge-run entries examined.
  uint64_t adjacency_entries = 0;  ///< Pivot neighbour entries scanned.
  bool interrupted = false;  ///< The governor tripped during this root.
  Status status;             ///< A global-predicate error ended the root.
};

/// One worker's DFS state. Run() explores one root of Phi(order[0]) with
/// order[0] mapped to it. In `direct` mode (one worker, on the calling
/// thread) every step is charged to the governor; otherwise the worker
/// only polls the governor, every kCheckIntervalSteps steps, and abandons
/// its root once the search has been settled at an earlier root (`cut`).
/// The plan is copied, not referenced: the DFS writes `used_` through a
/// char pointer, after which every value reached through another pointer
/// must be reloaded, so the hot inputs sit one pointer away.
class RootSearch {
 public:
  RootSearch(const SearchPlan& plan, bool direct,
             const std::atomic<size_t>& cut)
      : plan_(plan), direct_(direct), cut_(cut) {
    assign_.assign(plan.pattern.graph().NumNodes(), kInvalidNode);
    edge_assign_.assign(plan.pattern.graph().NumEdges(), kInvalidEdge);
    used_.assign(plan.data.NumNodes(), 0);
  }

  /// Searches root `r` into `run`, stopping after `cap` matches or once
  /// more than `steps_left` steps were tried: no root-order prefix that
  /// reaches this root can use more of either.
  void Run(size_t r, size_t cap, uint64_t steps_left, RootRun* run) {
    root_ = r;
    cap_ = cap;
    steps_left_ = steps_left;
    run_ = run;
    run->matches.clear();  // Keeps the capacity of the worker's last run.
    run->emitted_at.clear();
    run->interrupted = false;
    run->status = Status::OK();
    local_ = SearchStats{};
    csr_probes_ = 0;
    adjacency_entries_ = 0;
    Try(0, plan_.order[0], plan_.candidates[plan_.order[0]][r]);
    run->stats = local_;
    run->csr_probes = csr_probes_;
    run->adjacency_entries = adjacency_entries_;
  }

  /// Polls the governor for the steps tried since the last poll, as
  /// GovernorShard::Flush does when a worker's batch ends.
  void FinalPoll() {
    if (!direct_ && plan_.gov != nullptr && unpolled_ != 0) {
      plan_.gov->ChargeBatch(0, GovernPoint::kSearch);
    }
  }

 private:
  /// Counts one candidate try; false stops the root.
  bool Tick() {
    ++local_.steps;
    if (!GovernorOk()) {
      run_->interrupted = true;
      return false;
    }
    return local_.steps <= steps_left_ &&
           (direct_ || root_ <= cut_.load(std::memory_order_relaxed));
  }

  /// Direct mode charges the step. Otherwise the worker charges nothing:
  /// it polls (a batch of 0 steps) every kCheckIntervalSteps steps and
  /// reads the sticky trip flag in between.
  bool GovernorOk() {
    if (plan_.gov == nullptr) return true;
    if (direct_) return plan_.gov->Charge(1, GovernPoint::kSearch);
    if (++unpolled_ < ResourceGovernor::kCheckIntervalSteps) {
      return !plan_.gov->tripped();
    }
    unpolled_ = 0;
    return plan_.gov->ChargeBatch(0, GovernPoint::kSearch);
  }

  /// Finds a data edge from `from` to `to` compatible with pattern edge pe;
  /// kInvalidEdge if none. The (from, to) run in the CSR is contiguous and
  /// ascending in edge id, so the first compatible edge is the lowest-id
  /// one. The pattern edge's interned tag prefilters the run without
  /// touching strings.
  EdgeId FindCompatibleEdge(EdgeId pe, NodeId from, NodeId to) {
    SymbolId want_tag = plan_.pattern.edge_tag_sym(pe);
    for (const GraphSnapshot::AdjEntry& a : plan_.snap.EdgesBetween(from, to)) {
      ++csr_probes_;
      if (want_tag != kNoSymbol && a.tag_sym != want_tag) continue;
      if (plan_.pattern.EdgeCompatible(pe, plan_.snap, plan_.data, a.edge,
                                       &scratch_)) {
        return a.edge;
      }
    }
    return kInvalidEdge;
  }

  /// Check(u_i, v) of Algorithm 4.1: every pattern edge into the mapped
  /// prefix must have a compatible data edge.
  bool Check(size_t pos, NodeId u, NodeId v) {
    for (EdgeId pe : plan_.back_edges[pos]) {
      const Graph::Edge& e = plan_.pattern.graph().edge(pe);
      NodeId other = e.src == u ? e.dst : e.src;
      NodeId mapped = assign_[other];
      // Direction: the data edge must run the same way as the pattern edge.
      NodeId from = e.src == u ? v : mapped;
      NodeId to = e.dst == u ? v : mapped;
      if (e.src == u && e.dst == u) {  // Self-loop.
        from = v;
        to = v;
      }
      ++local_.edge_checks;
      if (!plan_.snap.HasEdgeBetween(from, to)) return false;
      if (plan_.trivial_edge[pe]) {
        edge_assign_[pe] = kInvalidEdge;  // Resolved lazily on emit.
        continue;
      }
      EdgeId de = FindCompatibleEdge(pe, from, to);
      if (de == kInvalidEdge) return false;
      edge_assign_[pe] = de;
    }
    return true;
  }

  /// Records a complete mapping; false once the root reached its cap.
  bool Emit() {
    algebra::MatchedGraph m;
    m.pattern = &plan_.pattern;
    m.data = &plan_.data;
    m.node_mapping = assign_;
    m.edge_mapping = edge_assign_;
    for (size_t e = 0; e < plan_.pattern.graph().NumEdges(); ++e) {
      if (m.edge_mapping[e] == kInvalidEdge) {
        const Graph::Edge& pe =
            plan_.pattern.graph().edge(static_cast<EdgeId>(e));
        // The lowest edge id in the (u, v) run.
        m.edge_mapping[e] =
            plan_.snap.FindFirstEdge(assign_[pe.src], assign_[pe.dst]);
      }
    }
    // Account the emitted mapping vectors against the memory budget; the
    // reservation lives until the governor is re-armed (matches belong to
    // the query's transient result set).
    if (plan_.gov != nullptr) {
      plan_.gov->ReserveShared(m.node_mapping.size() * sizeof(NodeId) +
                              m.edge_mapping.size() * sizeof(EdgeId),
                          GovernPoint::kSearch);
    }
    run_->matches.push_back(std::move(m));
    run_->emitted_at.push_back(local_.steps);
    return run_->matches.size() < cap_;
  }

  /// One candidate try of Algorithm 4.1's Search: maps u = order[pos] to
  /// `v` when Check passes and descends. Returns false to abort the root.
  bool Try(size_t pos, NodeId u, NodeId v) {
    if (!Tick()) return false;
    if (!Check(pos, u, v)) return true;
    assign_[u] = v;
    used_[v] = 1;
    bool keep_going = Dfs(pos + 1);
    used_[v] = 0;
    assign_[u] = kInvalidNode;
    ++local_.backtracks;
    return keep_going;
  }

  bool Dfs(size_t pos) {
    if (pos == plan_.order.size()) {
      if (plan_.pattern.has_global_pred()) {
        Result<bool> ok =
            plan_.pattern.EvalGlobalPred(plan_.data, assign_, edge_assign_);
        if (!ok.ok()) {
          run_->status = ok.status();
          return false;
        }
        if (!ok.value()) return true;
      }
      return Emit();
    }
    NodeId u = plan_.order[pos];
    if (plan_.extend.empty() || !plan_.extend[pos]) {
      for (NodeId v : plan_.candidates[u]) {
        if (used_[v]) continue;
        if (!Try(pos, u, v)) return false;
      }
      return true;
    }
    // Check accepts only a v adjacent to every mapped pivot, so walk the
    // neighbour run of the pivot with the fewest neighbours instead of all
    // of Phi(u). The run is ascending like Phi(u), so candidates come in
    // the scan's order.
    std::span<const NodeId> run;
    bool found = false;
    for (EdgeId pe : plan_.back_edges[pos]) {
      const Graph::Edge& e = plan_.pattern.graph().edge(pe);
      const NodeId pivot = e.src == u ? e.dst : e.src;
      if (pivot == u) continue;  // Self-loop.
      std::span<const NodeId> r = plan_.snap.unique_neighbors(assign_[pivot]);
      if (!found || r.size() < run.size()) run = r;
      found = true;
    }
    for (NodeId v : run) {
      ++adjacency_entries_;
      if (!plan_.member.Test(u, v) || used_[v]) continue;
      if (!Try(pos, u, v)) return false;
    }
    return true;
  }

  const SearchPlan plan_;
  const bool direct_;
  const std::atomic<size_t>& cut_;
  algebra::PatternScratch scratch_;
  std::vector<NodeId> assign_;
  std::vector<EdgeId> edge_assign_;
  std::vector<char> used_;
  size_t root_ = 0;
  size_t cap_ = 0;
  uint64_t steps_left_ = 0;
  RootRun* run_ = nullptr;
  SearchStats local_;       ///< This root's counters.
  uint64_t csr_probes_ = 0;  ///< CSR edge-run entries examined.
  uint64_t adjacency_entries_ = 0;  ///< Pivot neighbour entries scanned.
  uint64_t unpolled_ = 0;   ///< Steps since the last governor poll.
};

/// The search's result: root runs folded in root order until a stop rule
/// settles where the one-worker search ends. `stats.steps` counts the
/// candidate tries up to that point (a step-budget trip counts the step
/// that crossed the budget, as ResourceGovernor::Charge does); the other
/// counters add up the folded roots' work.
struct Prefix {
  std::vector<algebra::MatchedGraph> matches;
  SearchStats stats;
  uint64_t csr_probes = 0;
  uint64_t adjacency_entries = 0;
  bool settled = false;
  Status status;
};

/// Hands out roots in ascending order and folds finished runs into the
/// prefix in root order. Shared by the search's workers.
class RootScheduler {
 public:
  /// `cap` is the effective match cap (1 when not exhaustive), `budget`
  /// the governor steps left when the search began (UINT64_MAX: none).
  RootScheduler(size_t num_roots, size_t cap, uint64_t budget,
                bool exhaustive)
      : num_roots_(num_roots),
        cap_(cap),
        budget_(budget),
        exhaustive_(exhaustive) {}

  /// One worker: searches roots in ascending order until none is left or
  /// the search is settled.
  void Work(const SearchPlan& plan, bool direct) GQL_EXCLUDES(mu_) {
    RootSearch search(plan, direct, cut_);
    size_t r = SIZE_MAX;
    size_t cap = 0;
    uint64_t steps_left = 0;
    RootRun run;
    while (Next(&r, &cap, &steps_left, &run)) {
      search.Run(r, cap, steps_left, &run);
    }
    search.FinalPoll();
  }

  /// The settled result; call once every worker has finished.
  Prefix TakePrefix() GQL_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return std::move(prefix_);
  }

 private:
  /// Hands back the run of root `*r` (SIZE_MAX: none yet) and claims the
  /// next root into `*r`, with what the prefix folded so far leaves of the
  /// cap and the budget; false once every root is claimed or the search
  /// is settled.
  bool Next(size_t* r, size_t* cap, uint64_t* steps_left, RootRun* run)
      GQL_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (*r != SIZE_MAX) Finish(*r, run);
    if (prefix_.settled || next_ == num_roots_) return false;
    *r = next_++;
    *cap = cap_ - prefix_.matches.size();
    *steps_left = budget_ - prefix_.stats.steps;
    return true;
  }

  /// Folds root `r`'s run and every parked run now contiguous with the
  /// prefix; once the prefix settles, later roots are cut.
  void Finish(size_t r, RootRun* run) GQL_REQUIRES(mu_) {
    if (prefix_.settled) return;  // `r` is past the cut.
    if (r != frontier_) {  // Waits for the roots before it.
      ahead_.emplace(r, std::move(*run));
      return;
    }
    Fold(run);
    auto it = ahead_.begin();
    while (!prefix_.settled && it != ahead_.end() &&
           it->first == frontier_ + 1) {
      ++frontier_;
      Fold(&it->second);
      it = ahead_.erase(it);
    }
    if (prefix_.settled) cut_.store(frontier_, std::memory_order_relaxed);
    ++frontier_;
  }

  /// Appends the next root's run, applying the stop rules in the order
  /// the one-worker DFS meets them.
  void Fold(RootRun* run) GQL_REQUIRES(mu_) {
    SearchStats& stats = prefix_.stats;
    stats.edge_checks += run->stats.edge_checks;
    stats.backtracks += run->stats.backtracks;
    prefix_.csr_probes += run->csr_probes;
    prefix_.adjacency_entries += run->adjacency_entries;
    for (size_t i = 0; i < run->matches.size(); ++i) {
      if (run->emitted_at[i] > budget_ - stats.steps) return TripBudget();
      prefix_.matches.push_back(std::move(run->matches[i]));
      if (prefix_.matches.size() >= cap_) {
        stats.steps += run->emitted_at[i];
        stats.truncated = exhaustive_;
        prefix_.settled = true;
        return;
      }
    }
    if (run->stats.steps > budget_ - stats.steps) return TripBudget();
    stats.steps += run->stats.steps;
    stats.governor_tripped = run->interrupted;
    if (!run->status.ok()) prefix_.status = std::move(run->status);
    prefix_.settled = run->interrupted || !prefix_.status.ok();
  }

  void TripBudget() GQL_REQUIRES(mu_) {
    prefix_.stats.steps = budget_ + 1;
    prefix_.stats.governor_tripped = true;
    prefix_.settled = true;
  }

  const size_t num_roots_;
  const size_t cap_;
  const uint64_t budget_;
  const bool exhaustive_;
  Mutex mu_;
  size_t next_ GQL_GUARDED_BY(mu_) = 0;      ///< Next root to hand out.
  size_t frontier_ GQL_GUARDED_BY(mu_) = 0;  ///< Next root to fold.
  /// Runs that finished ahead of the frontier.
  std::map<size_t, RootRun> ahead_ GQL_GUARDED_BY(mu_);
  Prefix prefix_ GQL_GUARDED_BY(mu_);
  /// The root the prefix settled at; later roots are abandoned.
  std::atomic<size_t> cut_{SIZE_MAX};
};

}  // namespace

Result<std::vector<algebra::MatchedGraph>> SearchMatches(
    const algebra::GraphPattern& pattern, const Graph& data,
    const std::vector<std::vector<NodeId>>& candidates,
    const std::vector<NodeId>& order, const MatchOptions& options,
    SearchStats* stats, obs::MetricsRegistry* metrics) {
  return SearchMatchesParallel(pattern, data, candidates, order, options,
                               /*num_threads=*/0, nullptr, stats, metrics);
}

Result<std::vector<algebra::MatchedGraph>> SearchMatchesParallel(
    const algebra::GraphPattern& pattern, const Graph& data,
    const std::vector<std::vector<NodeId>>& candidates,
    const std::vector<NodeId>& order, const MatchOptions& options,
    int num_threads, ThreadPool* pool, SearchStats* stats,
    obs::MetricsRegistry* metrics, ParallelSearchStats* pstats) {
  const Graph& p = pattern.graph();
  if (order.size() != p.NumNodes()) {
    return Status::InvalidArgument(
        "search order must cover every pattern node");
  }
  // Fetched here, on the calling thread: workers only read the snapshot.
  std::shared_ptr<const GraphSnapshot> holder;
  if (options.snapshot == nullptr) holder = data.snapshot();
  ResourceGovernor* gov = options.governor;
  SearchPlan plan{pattern, data,
                  options.snapshot != nullptr ? *options.snapshot : *holder,
                  candidates, order, gov, {}, {}, {}, {}};
  std::vector<size_t> position(p.NumNodes());
  for (size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  plan.back_edges.resize(order.size());
  for (size_t e = 0; e < p.NumEdges(); ++e) {
    const Graph::Edge& pe = p.edge(static_cast<EdgeId>(e));
    plan.back_edges[std::max(position[pe.src], position[pe.dst])].push_back(
        static_cast<EdgeId>(e));
    plan.trivial_edge.push_back(
        pe.attrs.empty() && !pattern.EdgeHasPredicates(static_cast<EdgeId>(e)));
  }
  for (size_t pos = 1; pos < order.size(); ++pos) {
    const NodeId u = order[pos];
    const std::vector<NodeId>& phi = candidates[u];
    const bool has_pivot = std::any_of(
        plan.back_edges[pos].begin(), plan.back_edges[pos].end(),
        [&](EdgeId e) { return p.edge(e).src != p.edge(e).dst; });
    if (!has_pivot || std::adjacent_find(phi.begin(), phi.end(),
                                         std::greater_equal<NodeId>()) !=
                          phi.end()) {
      continue;
    }
    if (plan.extend.empty()) {
      plan.extend.assign(order.size(), 0);
      plan.member = PackedBits(p.NumNodes(), plan.snap.num_nodes());
    }
    plan.extend[pos] = 1;
    for (NodeId v : phi) plan.member.Set(u, v);
  }

  const size_t num_roots = order.empty() ? 0 : candidates[order[0]].size();
  uint64_t budget = UINT64_MAX;
  if (gov != nullptr && gov->limits().max_steps != 0) {
    const uint64_t max = gov->limits().max_steps;
    budget = gov->steps_used() < max ? max - gov->steps_used() : 0;
  }
  RootScheduler scheduler(num_roots,
                          options.exhaustive ? options.max_matches : 1,
                          budget, options.exhaustive);
  const int workers =
      num_threads > 1 && num_roots > 1 ? ResolveWorkers(num_threads, pool) : 1;
  if (workers <= 1) {
    scheduler.Work(plan, /*direct=*/true);
  } else {
    ThreadPool& tp = pool != nullptr ? *pool : ThreadPool::Shared();
    ThreadPool::RunStats run = tp.ParallelFor(
        static_cast<size_t>(workers), workers, [&](size_t, int) {
          scheduler.Work(plan, /*direct=*/false);
        });
    if (pstats != nullptr) {
      pstats->workers = run.workers;
      pstats->tasks_stolen = run.stolen;
      pstats->lanes = run.lanes;
    }
  }

  Prefix prefix = scheduler.TakePrefix();
  const SearchStats& got = prefix.stats;
  // Above one worker nothing was charged yet: one charge of the prefix's
  // steps trips a crossed budget exactly as step-by-step charging does.
  const bool charge_failed = workers > 1 && got.steps != 0 &&
                             !GovCharge(gov, got.steps, GovernPoint::kSearch);
  if (stats != nullptr) {
    stats->steps += got.steps;
    stats->edge_checks += got.edge_checks;
    stats->backtracks += got.backtracks;
    stats->truncated |= got.truncated;
    stats->governor_tripped |= got.governor_tripped || charge_failed;
  }
  if (metrics != nullptr) {
    metrics->GetCounter("match.search.steps")->Increment(got.steps);
    metrics->GetCounter("match.search.edge_checks")
        ->Increment(got.edge_checks);
    metrics->GetCounter("match.search.backtracks")->Increment(got.backtracks);
    metrics->GetCounter("match.search.matches")
        ->Increment(prefix.matches.size());
    if (got.truncated) {
      metrics->GetCounter("match.search.truncated")->Increment();
    }
    if (prefix.csr_probes != 0) {
      metrics->GetCounter("match.search.csr_edge_probes")
          ->Increment(prefix.csr_probes);
    }
    if (prefix.adjacency_entries != 0) {
      metrics->GetCounter("match.search.adjacency_entries")
          ->Increment(prefix.adjacency_entries);
    }
  }
  if (!prefix.status.ok()) return prefix.status;
  return std::move(prefix.matches);
}

std::vector<std::vector<NodeId>> ScanCandidates(
    const algebra::GraphPattern& pattern, const Graph& data) {
  const Graph& p = pattern.graph();
  std::vector<std::vector<NodeId>> out(p.NumNodes());
  for (size_t u = 0; u < p.NumNodes(); ++u) {
    for (size_t v = 0; v < data.NumNodes(); ++v) {
      if (pattern.NodeCompatible(static_cast<NodeId>(u), data,
                                 static_cast<NodeId>(v))) {
        out[u].push_back(static_cast<NodeId>(v));
      }
    }
  }
  return out;
}

std::vector<NodeId> DeclarationOrder(const algebra::GraphPattern& pattern) {
  std::vector<NodeId> order(pattern.graph().NumNodes());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<NodeId>(i);
  return order;
}

}  // namespace graphql::match
