#ifndef GRAPHQL_MATCH_MATCHER_H_
#define GRAPHQL_MATCH_MATCHER_H_

#include <cstdint>
#include <vector>

#include "algebra/matched_graph.h"
#include "algebra/pattern.h"
#include "common/governor.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "graph/graph.h"
#include "obs/metrics.h"

namespace graphql::match {

struct MatchOptions {
  /// Return all mappings; when false, stop at the first (the paper's
  /// "exhaustive" selection option, Section 3.3).
  bool exhaustive = true;
  /// Hard cap on returned matches, mirroring the paper's experimental
  /// setup ("queries having too many hits (more than 1000) are terminated
  /// immediately"). SIZE_MAX disables the cap.
  size_t max_matches = SIZE_MAX;
  /// Optional per-query resource governor (deadline / cancellation /
  /// unified step budget / memory budget). Null = ungoverned. Every search
  /// step is charged to GovernPoint::kSearch; a trip ends the search with
  /// the matches found so far and `SearchStats::governor_tripped` set.
  ResourceGovernor* governor = nullptr;
  /// Compiled snapshot of the data graph being searched: edge existence /
  /// compatibility probes run over its CSR spans and interned symbol ids,
  /// with no std::string in the inner loop. Must have been compiled from
  /// `data` (same version). Null = the search fetches data.snapshot() once
  /// on the calling thread.
  const GraphSnapshot* snapshot = nullptr;
};

struct SearchStats {
  /// Candidate nodes tried up to where the search stopped: the same count
  /// at every worker count. A step is one candidate tried (Tick, then
  /// Check): every root of Phi(order[0]), and at a later position every
  /// unused candidate the DFS reaches. Where the position has a mapped
  /// pattern neighbour those are only Phi(u) ∩ N(pivot), so candidates
  /// not adjacent to the pivot cost no step; the neighbour entries walked
  /// to find them are counted as match.search.adjacency_entries.
  uint64_t steps = 0;
  /// Check() edge probes and assignments undone by the roots up to the
  /// cut; above one worker the root at the cut may have run past it.
  uint64_t edge_checks = 0;
  uint64_t backtracks = 0;
  bool truncated = false;       ///< Stopped due to max_matches.
  bool governor_tripped = false;  ///< Governor deadline/cancel/budget trip.
};

/// Execution counters specific to the search fan-out.
struct ParallelSearchStats {
  int workers = 0;  ///< Pool participants (0 when the roots ran inline).
  uint64_t tasks_stolen = 0;  ///< Worker tasks run off their home deque.
  /// One lane per OS thread that served the search fan-out; drawn by the
  /// trace exporter.
  std::vector<ThreadPool::WorkerLane> lanes;
};

/// The basic graph pattern matching search (Algorithm 4.1, second phase):
/// depth-first search over the space Phi(u_1) x ... x Phi(u_k) in the given
/// order, with per-edge Check() pruning against already-mapped nodes,
/// per-edge predicate evaluation, and final graph-wide predicate
/// evaluation.
///
/// `candidates[u]` is the feasible-mate list Phi(u) for every pattern node
/// (the first phase; see MatchPipeline for its construction), and `order`
/// a permutation of the pattern's nodes. Candidates are assumed
/// NodeCompatible (F_u already evaluated during retrieval); the search
/// re-checks only edges and the global predicate.
///
/// Extension: Check(u, v) accepts only a v adjacent to every mapped
/// pattern neighbour of u. So at a position with such a neighbour (a
/// pivot; self-loops do not count) the DFS walks the sorted, duplicate-free
/// neighbour run of the pivot whose image has the fewest neighbours and
/// keeps the entries in Phi(u) (a bitmap built once per search). The
/// root, positions without a pivot, and any Phi(u) that is not strictly
/// ascending scan Phi(u) in its own order. Since label-index and
/// all-nodes base lists give ascending Phi(u), candidates come in the
/// same order either way and the match list equals a scan of Phi(u);
/// only `steps` shrinks, to the candidates adjacent to the pivot.
///
/// One search serves every worker count. Each root of Phi(order[0]) is a
/// task; the result is the concatenation of the roots' matches in root
/// order, cut where the first stop rule fires: the max_matches cap, the
/// first match when not exhaustive, the governor's step budget, or a
/// global-predicate error. Roots past the cut are skipped or abandoned,
/// never searched to completion. At `num_threads` 0 or 1 the roots run
/// inline on the calling thread and charge the governor step by step.
/// Above one worker they run on `pool` (null = the shared pool) and only
/// poll the governor's deadline, cancellation and fault injection; each
/// root counts its steps and the step of every match it emits, and the
/// calling thread charges the prefix's steps in root order. So the
/// matches (set and order), `steps`, `truncated`, and a step-budget trip
/// (kind, point, steps_used()) are the same at every worker count;
/// deadline, cancellation, fault-injection and memory trips land where
/// the workers happen to be.
///
/// Counters are accumulated per root and flushed once into `metrics`
/// (match.search.{steps, edge_checks, backtracks, matches, truncated,
/// csr_edge_probes, adjacency_entries}) when the search finishes, so
/// instrumentation adds no per-step synchronization.
Result<std::vector<algebra::MatchedGraph>> SearchMatchesParallel(
    const algebra::GraphPattern& pattern, const Graph& data,
    const std::vector<std::vector<NodeId>>& candidates,
    const std::vector<NodeId>& order, const MatchOptions& options,
    int num_threads, ThreadPool* pool = nullptr, SearchStats* stats = nullptr,
    obs::MetricsRegistry* metrics = nullptr,
    ParallelSearchStats* pstats = nullptr);

/// SearchMatchesParallel on the calling thread alone.
Result<std::vector<algebra::MatchedGraph>> SearchMatches(
    const algebra::GraphPattern& pattern, const Graph& data,
    const std::vector<std::vector<NodeId>>& candidates,
    const std::vector<NodeId>& order, const MatchOptions& options = {},
    SearchStats* stats = nullptr, obs::MetricsRegistry* metrics = nullptr);

/// First phase of Algorithm 4.1 without any index: scans all data nodes
/// and keeps those passing the feasible-mate test F_u. This is the
/// "Baseline" retrieval of Section 5.
std::vector<std::vector<NodeId>> ScanCandidates(
    const algebra::GraphPattern& pattern, const Graph& data);

/// The declaration-order permutation 0..k-1 (search "w/o optimized order").
std::vector<NodeId> DeclarationOrder(const algebra::GraphPattern& pattern);

}  // namespace graphql::match

#endif  // GRAPHQL_MATCH_MATCHER_H_
