#ifndef GRAPHQL_MATCH_REFINE_H_
#define GRAPHQL_MATCH_REFINE_H_

#include <cstdint>
#include <vector>

#include "algebra/pattern.h"
#include "common/governor.h"
#include "common/thread_pool.h"
#include "graph/graph.h"
#include "obs/metrics.h"

namespace graphql::match {

struct RefineStats {
  uint64_t bipartite_checks = 0;  ///< Semi-perfect matching tests run.
  uint64_t removed = 0;           ///< Candidates pruned from the space.
  int levels_run = 0;             ///< Levels before the fixpoint/limit.
  uint64_t pairs_charged = 0;     ///< Governor steps charged (for refunds).
  bool aborted = false;           ///< Governor tripped mid-refinement; the
                                  ///< candidate sets were left PARTIALLY
                                  ///< refined (still sound) — the pipeline
                                  ///< restores its pre-refine snapshot when
                                  ///< it wants the exact unrefined space.
};

/// Joint (global) reduction of the search space by pseudo subgraph
/// isomorphism (Algorithm 4.2, Section 4.3).
///
/// For each pattern node u and candidate v, a bipartite graph B(u,v) is
/// built between N(u) and N(v) with an edge (u', v') iff v' is currently in
/// candidates[u']; if B(u,v) has no semi-perfect matching (some neighbor of
/// u cannot be matched), v is removed from candidates[u]. Iterating to
/// `level` approximates level-l pseudo subgraph isomorphism.
///
/// `use_marking` enables the paper's first implementation improvement:
/// only pairs whose neighborhood changed are re-checked (dirty marking).
/// Disabling it re-checks every surviving pair at every level (exposed for
/// the ablation benchmark); the final space is identical.
///
/// The refinement is sound: it never removes a candidate that participates
/// in a real match (verified by property tests).
///
/// When `metrics` is given, one end-of-call flush emits
/// match.refine.{bipartite_checks, removed, levels}.
///
/// When `governor` is given, every (u, v) pair processed charges one step
/// to GovernPoint::kRefine and the membership bitmaps / level-start pair
/// set are accounted against the memory budget. A trip aborts the pass
/// early with `stats->aborted` set; removals already applied remain (they
/// are sound), and `stats->pairs_charged` lets the caller refund the spent
/// steps when it discards the partial refinement.
///
/// The pass reads the data graph only through its GraphSnapshot: `snap`
/// when given (it must be compiled from `data`), otherwise data.snapshot()
/// fetched once on the calling thread. Candidates and dirty marks live in
/// packed k x n bitmaps; data neighbor sets are the snapshot's sorted
/// unique-neighbor spans. Each level walks the pairs of its level-start
/// set (marked pairs, or every surviving pair without marking) in
/// ascending (u, v), charging one step per pair on the calling thread; a
/// removal is visible to the later pairs of its level (Gauss-Seidel).
/// RefineSearchSpace is RefineSearchSpaceParallel at `num_threads` 0.
void RefineSearchSpace(const algebra::GraphPattern& pattern, const Graph& data,
                       int level, std::vector<std::vector<NodeId>>* candidates,
                       RefineStats* stats = nullptr, bool use_marking = true,
                       obs::MetricsRegistry* metrics = nullptr,
                       ResourceGovernor* governor = nullptr,
                       const GraphSnapshot* snap = nullptr);

/// Execution counters of a refinement fan-out. Refinement runs inline on
/// the calling thread, so these stay empty; the struct keeps the
/// RefineSearchSpaceParallel signature stable for its callers.
struct ParallelRefineStats {
  int workers = 0;            ///< Participants (0: ran inline).
  uint64_t tasks_stolen = 0;  ///< Pair checks run off their home deque.
  std::vector<ThreadPool::WorkerLane> lanes;  ///< Per-thread lanes.
};

/// The one refinement. It runs inline on the calling thread at every
/// `num_threads` and never uses `pool`: on the refine lane of
/// bench_parallel_scaling a pool fan-out, per row or per level, was slower
/// than the inline loop. The candidate sets, RefineStats, trip point and
/// steps charged are therefore the same at every worker count. `pstats`,
/// when given, is reset to empty.
void RefineSearchSpaceParallel(
    const algebra::GraphPattern& pattern, const Graph& data, int level,
    std::vector<std::vector<NodeId>>* candidates, RefineStats* stats = nullptr,
    bool use_marking = true, obs::MetricsRegistry* metrics = nullptr,
    ResourceGovernor* governor = nullptr, int num_threads = 0,
    ThreadPool* pool = nullptr, ParallelRefineStats* pstats = nullptr,
    const GraphSnapshot* snap = nullptr);

}  // namespace graphql::match

#endif  // GRAPHQL_MATCH_REFINE_H_
