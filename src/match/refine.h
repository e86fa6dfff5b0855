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
  uint64_t dirty_skips = 0;       ///< Marked pairs already removed when
                                  ///< their turn came (saved re-checks).
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
/// match.refine.{bipartite_checks, removed, dirty_skips, levels}.
///
/// When `governor` is given, every (u, v) pair processed charges one step
/// to GovernPoint::kRefine and the membership bitmaps / marked-pair set are
/// accounted against the memory budget. A trip aborts the pass early with
/// `stats->aborted` set; removals already applied remain (they are sound),
/// and `stats->pairs_charged` lets the caller refund the spent steps when
/// it discards the partial refinement.
///
/// The pass reads the data graph only through its GraphSnapshot: `snap`
/// when given (it must be compiled from `data`), otherwise data.snapshot()
/// fetched once on the calling thread. Candidates and dirty marks live in
/// packed k x n bitmaps; data neighbor sets are the snapshot's sorted
/// unique-neighbor spans. With marking, dirty pairs drain in ascending
/// (u, v) order and a removal is visible to the later pairs of its level
/// (Gauss-Seidel).
void RefineSearchSpace(const algebra::GraphPattern& pattern, const Graph& data,
                       int level, std::vector<std::vector<NodeId>>* candidates,
                       RefineStats* stats = nullptr, bool use_marking = true,
                       obs::MetricsRegistry* metrics = nullptr,
                       ResourceGovernor* governor = nullptr,
                       const GraphSnapshot* snap = nullptr);

/// Execution counters specific to the parallel refinement fan-out.
struct ParallelRefineStats {
  int workers = 0;  ///< Participants (0 when the serial path was taken).
  uint64_t tasks_stolen = 0;  ///< Pair checks run off their home deque.
  /// One lane per OS thread that served the refinement's ParallelFor jobs
  /// (levels merged via MergeWorkerLanes); drawn by the trace exporter.
  std::vector<ThreadPool::WorkerLane> lanes;
};

/// Parallel refinement: within each level the (u, v) pair checks are
/// independent reads of the level-start candidate bitmaps, so they fan out
/// across workers; removals are buffered per pair and applied at a level
/// barrier by the coordinator (which also re-marks dirty neighbors). It
/// shares its state (bitmaps, bipartite test, re-marking, write-back) with
/// RefineSearchSpace and differs only in level scheduling.
///
/// Semantics: the serial pass is Gauss-Seidel within a level (a removal is
/// visible to later pairs of the same level) while this pass is Jacobi (it
/// becomes visible at the barrier), so the candidate sets after a BOUNDED
/// level count can differ — both are sound over-approximations and
/// converge to the same fixpoint, and the final match sets are identical.
/// Workers charge the governor through per-worker shards; on a trip the
/// current level's buffered removals are discarded (`stats->aborted`), and
/// `stats->pairs_charged` reports exactly the steps flushed so the
/// degrade-fallback refund stays balanced. `num_threads` < 1 runs
/// RefineSearchSpace. A null `snap` is fetched from `data` before the
/// fan-out.
void RefineSearchSpaceParallel(
    const algebra::GraphPattern& pattern, const Graph& data, int level,
    std::vector<std::vector<NodeId>>* candidates, RefineStats* stats = nullptr,
    bool use_marking = true, obs::MetricsRegistry* metrics = nullptr,
    ResourceGovernor* governor = nullptr, int num_threads = 0,
    ThreadPool* pool = nullptr, ParallelRefineStats* pstats = nullptr,
    const GraphSnapshot* snap = nullptr);

}  // namespace graphql::match

#endif  // GRAPHQL_MATCH_REFINE_H_
