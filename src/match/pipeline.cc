#include "match/pipeline.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>

#include "graph/snapshot.h"
#include "match/vectorized.h"

namespace graphql::match {

namespace {

/// Attempts to serve a wildcard-label pattern node's base candidate list
/// from an attribute B+-tree (Section 4.2's B-tree retrieval): an equality
/// constraint from the pattern tuple, or range bounds assembled from
/// pushed-down `attr op literal` predicates.
std::optional<std::vector<NodeId>> AttrIndexBaseList(
    const algebra::GraphPattern& pattern, NodeId u, const LabelIndex& index) {
  const Graph& p = pattern.graph();
  // Equality constraints from non-label tuple attributes.
  for (const auto& [k, v] : p.node(u).attrs.attrs()) {
    if (k == "label") continue;
    if (index.HasAttributeIndex(k)) return index.AttrExact(k, v);
  }

  // Resolve a name path to "an attribute of pattern node u": a bare
  // attribute name, `<node>.attr`, or `<pattern>.<node>.attr`.
  auto attr_of_u = [&](const lang::Expr& e) -> const std::string* {
    if (e.kind != lang::Expr::Kind::kName) return nullptr;
    const auto& path = e.path;
    if (path.size() == 1) return &path[0];
    size_t start = 0;
    if (path.size() == 3 && !pattern.name().empty() &&
        path[0] == pattern.name()) {
      start = 1;
    }
    if (path.size() - start != 2) return nullptr;
    auto it = pattern.node_names().find(path[start]);
    if (it == pattern.node_names().end() || it->second != u) return nullptr;
    return &path.back();
  };

  // Accumulate bounds per attribute; use the first indexed attribute that
  // gets at least one bound.
  std::string attr;
  std::optional<Value> lo;
  std::optional<Value> hi;
  bool lo_inclusive = true;
  bool hi_inclusive = true;
  for (const lang::ExprPtr& pred : pattern.NodePreds(u)) {
    if (pred->kind != lang::Expr::Kind::kBinary) continue;
    const lang::Expr* name_side = nullptr;
    const lang::Expr* lit_side = nullptr;
    bool flipped = false;
    if (pred->lhs->kind == lang::Expr::Kind::kName &&
        pred->rhs->kind == lang::Expr::Kind::kLiteral) {
      name_side = pred->lhs.get();
      lit_side = pred->rhs.get();
    } else if (pred->rhs->kind == lang::Expr::Kind::kName &&
               pred->lhs->kind == lang::Expr::Kind::kLiteral) {
      name_side = pred->rhs.get();
      lit_side = pred->lhs.get();
      flipped = true;
    } else {
      continue;
    }
    const std::string* a = attr_of_u(*name_side);
    if (a == nullptr || !index.HasAttributeIndex(*a)) continue;
    if (!attr.empty() && attr != *a) continue;  // One attribute at a time.

    lang::BinaryOp op = pred->op;
    if (flipped) {
      switch (op) {
        case lang::BinaryOp::kLt:
          op = lang::BinaryOp::kGt;
          break;
        case lang::BinaryOp::kLe:
          op = lang::BinaryOp::kGe;
          break;
        case lang::BinaryOp::kGt:
          op = lang::BinaryOp::kLt;
          break;
        case lang::BinaryOp::kGe:
          op = lang::BinaryOp::kLe;
          break;
        default:
          break;
      }
    }
    const Value& lit = lit_side->literal;
    switch (op) {
      case lang::BinaryOp::kEq:
        attr = *a;
        if (!lo || *lo < lit) {
          lo = lit;
          lo_inclusive = true;
        }
        if (!hi || lit < *hi) {
          hi = lit;
          hi_inclusive = true;
        }
        break;
      case lang::BinaryOp::kLt:
      case lang::BinaryOp::kLe:
        attr = *a;
        if (!hi || lit < *hi) {
          hi = lit;
          hi_inclusive = op == lang::BinaryOp::kLe;
        }
        break;
      case lang::BinaryOp::kGt:
      case lang::BinaryOp::kGe:
        attr = *a;
        if (!lo || *lo < lit) {
          lo = lit;
          lo_inclusive = op == lang::BinaryOp::kGe;
        }
        break;
      default:
        break;
    }
  }
  if (attr.empty()) return std::nullopt;
  return index.AttrRange(attr, lo ? &*lo : nullptr, lo_inclusive,
                         hi ? &*hi : nullptr, hi_inclusive);
}

/// Stage-level parallel-execution report for the pipeline's trace spans.
struct RetrieveParallelInfo {
  int workers = 0;
  uint64_t tasks_stolen = 0;
  std::vector<ThreadPool::WorkerLane> lanes;
};

/// Records one completed "worker" child span per OS thread that served the
/// enclosing stage's ParallelFor jobs. Must run while the stage span is
/// still open so the lanes nest under it; the Chrome-trace exporter routes
/// each one onto its thread's lane via the "tid" attribute.
void EmitWorkerLanes(obs::Tracer* tracer,
                     const std::vector<ThreadPool::WorkerLane>& lanes) {
  if (tracer == nullptr) return;
  for (const ThreadPool::WorkerLane& lane : lanes) {
    if (lane.os_tid == 0 || lane.end_us < lane.start_us) continue;
    obs::TraceNode* node = tracer->AddCompleted("worker", lane.start_us,
                                                lane.end_us - lane.start_us);
    if (node == nullptr) continue;
    node->SetAttr("tid", lane.os_tid);
    node->SetAttr("tasks", static_cast<int64_t>(lane.tasks));
    if (lane.stolen > 0) {
      node->SetAttr("stolen", static_cast<int64_t>(lane.stolen));
    }
  }
}

/// Retrieval of feasible mates, run by `workers` >= 1 participants (one
/// runs inline on the calling thread, without the pool). One task per
/// pattern node scans its base list with the kernel ResolveSelectionKernel
/// picks (and filters by profile), with per-worker pattern scratch; in
/// neighborhood mode the per-candidate sub-isomorphism tests of every
/// Phi(u) are additionally chunked into stealable ranges, since one hub
/// node's tests can dominate the whole stage. Anything that touches
/// non-thread-safe structures (B+-tree lookups, pattern profile /
/// neighborhood construction, the all-nodes list, the probe charges)
/// runs on the calling thread before the fan-out. Without an index every
/// base list is the full node range and no profile or neighborhood
/// pruning applies.
std::vector<std::vector<NodeId>> Retrieve(
    const algebra::GraphPattern& pattern, const Graph& data,
    const LabelIndex* index, const PipelineOptions& options,
    PipelineStats* stats, int workers, const GraphSnapshot& snap,
    RetrieveParallelInfo* info) {
  const Graph& p = pattern.graph();
  const size_t k = p.NumNodes();
  std::vector<std::vector<NodeId>> out(k);
  if (stats != nullptr) {
    stats->size_attr.assign(k, 0);
    stats->size_retrieved.assign(k, 0);
  }
  if (k == 0) return out;
  obs::MetricsRegistry* metrics = options.metrics;
  ResourceGovernor* gov = options.governor;
  // One worker runs the tasks in order on the calling thread, without the
  // pool (which a serial run never creates) and without worker lanes.
  auto parallel_for = [&](size_t n, const auto& fn) {
    ThreadPool::RunStats run;
    if (workers <= 1) {
      for (size_t i = 0; i < n; ++i) fn(i, 0);
    } else {
      ThreadPool& tp =
          options.pool != nullptr ? *options.pool : ThreadPool::Shared();
      run = tp.ParallelFor(n, workers, fn);
    }
    return run;
  };

  // Calling-thread preparation: each node's base list is its label index
  // list, an attribute B+-tree range, or every data node.
  std::vector<NodeId> all_nodes;
  std::vector<const std::vector<NodeId>*> base(k, &all_nodes);
  std::vector<std::vector<NodeId>> owned_base(index != nullptr ? k : 0);
  for (size_t u = 0; u < owned_base.size(); ++u) {
    NodeId pu = static_cast<NodeId>(u);
    std::string_view label = p.Label(pu);
    if (!label.empty()) {
      base[u] = &index->NodesWithLabel(label);
    } else if (auto from_attr = AttrIndexBaseList(pattern, pu, *index)) {
      owned_base[u] = std::move(*from_attr);
      base[u] = &owned_base[u];
    }
  }
  if (std::find(base.begin(), base.end(), &all_nodes) != base.end()) {
    all_nodes.resize(data.NumNodes());
    for (size_t v = 0; v < all_nodes.size(); ++v) {
      all_nodes[v] = static_cast<NodeId>(v);
    }
  }
  const bool use_profiles = index != nullptr &&
                            options.candidate_mode == CandidateMode::kProfile &&
                            index->has_profiles();
  const bool use_neighborhoods =
      index != nullptr &&
      options.candidate_mode == CandidateMode::kNeighborhood &&
      index->has_neighborhoods();
  std::vector<Profile> want_profile;
  std::vector<NeighborhoodSubgraph> want_nbh;
  if (use_profiles) {
    want_profile.resize(k);
    for (size_t u = 0; u < k; ++u) {
      want_profile[u] =
          BuildProfile(p, static_cast<NodeId>(u), index->options().radius);
    }
  } else if (use_neighborhoods) {
    want_nbh.resize(k);
    for (size_t u = 0; u < k; ++u) {
      want_nbh[u] = ExtractNeighborhood(p, static_cast<NodeId>(u),
                                        index->options().radius);
    }
  }

  // One read-only selection plan shared by all workers; each worker owns
  // its bitmap scratch (allocated lazily — selective base lists resolve to
  // bytecode and never need one).
  const SelectionPlan plan(pattern, snap, metrics);

  struct WorkerState {
    GovernorShard nbh_shard;  // Sub-iso DFS steps (GovernPoint::kNeighborhood).
    algebra::PatternScratch scratch;
    std::optional<PackedBits> bits;  // Bitmap-kernel scratch (2 x n).
    std::unique_ptr<obs::MetricsRegistry> metric_shard;
    uint64_t feasible_hits = 0;
    uint64_t feasible_misses = 0;
    uint64_t profile_pruned = 0;
  };
  // One worker runs inline, so its shards charge the governor directly.
  const bool direct = workers <= 1;
  std::vector<WorkerState> ws(static_cast<size_t>(workers));
  for (WorkerState& s : ws) {
    s.nbh_shard = GovernorShard(gov, GovernPoint::kNeighborhood, direct);
    if (metrics != nullptr && use_neighborhoods) {
      s.metric_shard = std::make_unique<obs::MetricsRegistry>();
    }
  }

  uint64_t stolen = 0;
  int workers_seen = 0;

  // One charge per feasible-mate probe, made here in pattern-node order
  // before the fan-out: a tripped governor leaves this node's candidate
  // list and every later one empty (partial-result semantics), the same
  // lists at every worker count.
  size_t scanned = 0;
  while (scanned < k &&
         GovCharge(gov, base[scanned]->size(), GovernPoint::kRetrieve)) {
    ++scanned;
  }

  // Phase A: per-pattern-node feasible-mate scans (+ profile filter).
  // Neighborhood mode stops at the attribute stage; its per-candidate
  // tests fan out again below.
  std::vector<std::vector<NodeId>> attr_stage(use_neighborhoods ? k : 0);
  auto scan_node = [&](size_t u, int w) {
    WorkerState& s = ws[static_cast<size_t>(w)];
    NodeId pu = static_cast<NodeId>(u);
    std::vector<NodeId> stage;
    SelectionKernel kernel = ResolveSelectionKernel(
        base[u]->size(), snap.num_nodes(), base[u] == &all_nodes);
    if (kernel == SelectionKernel::kBitmap && !s.bits.has_value()) {
      s.bits.emplace(2, snap.num_nodes());
    }
    ScanBaseList(plan, pu, data, *base[u], kernel, &s.scratch,
                 s.bits.has_value() ? &*s.bits : nullptr, &stage);
    s.feasible_hits += stage.size();
    s.feasible_misses += base[u]->size() - stage.size();
    if (stats != nullptr) stats->size_attr[u] = stage.size();
    if (use_profiles) {
      out[u].reserve(stage.size());
      for (NodeId v : stage) {
        if (ProfileContains(index->profile(v), want_profile[u])) {
          out[u].push_back(v);
        }
      }
      s.profile_pruned += stage.size() - out[u].size();
    } else if (use_neighborhoods) {
      attr_stage[u] = std::move(stage);
    } else {
      out[u] = std::move(stage);
    }
  };
  ThreadPool::RunStats run = parallel_for(scanned, scan_node);
  stolen += run.stolen;
  workers_seen = run.workers;
  if (info != nullptr) MergeWorkerLanes(&info->lanes, run.lanes);

  uint64_t neighborhood_pruned = 0;
  if (use_neighborhoods) {
    // Phase B: chunk each Phi(u)'s sub-isomorphism tests into stealable
    // ranges. keep defaults to 1 so a governor trip degrades to "no
    // pruning" (conservative).
    struct Chunk {
      size_t u;
      size_t begin;
      size_t end;
    };
    constexpr size_t kChunk = 64;
    std::vector<Chunk> chunks;
    std::vector<std::vector<char>> keep(k);
    for (size_t u = 0; u < k; ++u) {
      keep[u].assign(attr_stage[u].size(), 1);
      for (size_t b = 0; b < attr_stage[u].size(); b += kChunk) {
        chunks.push_back(
            Chunk{u, b, std::min(b + kChunk, attr_stage[u].size())});
      }
    }
    auto test_chunk = [&](size_t ci, int w) {
      WorkerState& s = ws[static_cast<size_t>(w)];
      const Chunk& c = chunks[ci];
      for (size_t i = c.begin; i < c.end; ++i) {
        if (!s.nbh_shard.ok()) return;  // Tripped: keep the rest unpruned.
        NodeId v = attr_stage[c.u][i];
        if (!NeighborhoodSubIsomorphic(want_nbh[c.u], index->neighborhood(v),
                                       options.neighborhood_step_budget,
                                       s.metric_shard.get(),
                                       /*governor=*/nullptr, &s.nbh_shard)) {
          keep[c.u][i] = 0;
        }
      }
    };
    ThreadPool::RunStats nbh_run = parallel_for(chunks.size(), test_chunk);
    stolen += nbh_run.stolen;
    workers_seen = std::max(workers_seen, nbh_run.workers);
    if (info != nullptr) MergeWorkerLanes(&info->lanes, nbh_run.lanes);
    for (size_t u = 0; u < k; ++u) {
      out[u].reserve(attr_stage[u].size());
      for (size_t i = 0; i < attr_stage[u].size(); ++i) {
        if (keep[u][i]) out[u].push_back(attr_stage[u][i]);
      }
      neighborhood_pruned += attr_stage[u].size() - out[u].size();
    }
  }

  uint64_t feasible_hits = 0;
  uint64_t feasible_misses = 0;
  uint64_t profile_pruned = 0;
  for (WorkerState& s : ws) {
    s.nbh_shard.Flush();
    feasible_hits += s.feasible_hits;
    feasible_misses += s.feasible_misses;
    profile_pruned += s.profile_pruned;
    if (metrics != nullptr && s.metric_shard != nullptr) {
      metrics->Merge(s.metric_shard->Snapshot());
    }
  }
  if (stats != nullptr) {
    for (size_t u = 0; u < k; ++u) stats->size_retrieved[u] = out[u].size();
    stats->tasks_stolen += stolen;
  }
  if (info != nullptr) {
    info->workers = workers_seen;
    info->tasks_stolen = stolen;
  }
  if (metrics != nullptr) {
    metrics->GetCounter("match.retrieve.feasible_hits")
        ->Increment(feasible_hits);
    metrics->GetCounter("match.retrieve.feasible_misses")
        ->Increment(feasible_misses);
    if (use_profiles) {
      metrics->GetCounter("match.retrieve.profile_pruned")
          ->Increment(profile_pruned);
    } else if (use_neighborhoods) {
      metrics->GetCounter("match.retrieve.neighborhood_pruned")
          ->Increment(neighborhood_pruned);
    }
  }
  return out;
}

}  // namespace

const char* CandidateModeName(CandidateMode mode) {
  switch (mode) {
    case CandidateMode::kLabelOnly:
      return "label-only";
    case CandidateMode::kProfile:
      return "profile";
    case CandidateMode::kNeighborhood:
      return "neighborhood";
  }
  return "?";
}

double PipelineStats::Space(const std::vector<size_t>& sizes) {
  double space = sizes.empty() ? 0.0 : 1.0;
  for (size_t s : sizes) space *= static_cast<double>(s);
  return space;
}

std::vector<std::vector<NodeId>> RetrieveCandidates(
    const algebra::GraphPattern& pattern, const Graph& data,
    const LabelIndex* index, const PipelineOptions& options,
    PipelineStats* stats, const GraphSnapshot* snap) {
  std::shared_ptr<const GraphSnapshot> holder;
  if (snap == nullptr) {
    holder = data.snapshot();
    snap = holder.get();
  }
  const int workers =
      std::max(1, ResolveWorkers(options.num_threads, options.pool));
  return Retrieve(pattern, data, index, options, stats, workers, *snap,
                  /*info=*/nullptr);
}

Result<std::vector<algebra::MatchedGraph>> MatchPattern(
    const algebra::GraphPattern& pattern, const Graph& data,
    const LabelIndex* index, const PipelineOptions& options,
    PipelineStats* stats) {
  const size_t k = pattern.graph().NumNodes();
  obs::Tracer* tracer = options.tracer;
  obs::MetricsRegistry* metrics = options.metrics;
  ResourceGovernor* gov = options.governor;
  // Trip counters are emitted on the not-tripped -> tripped transition so
  // collection loops over many member graphs count each trip once.
  const bool was_tripped = gov != nullptr && gov->tripped();
  // Intra-query parallelism: 0 = serial. Every worker count produces the
  // same match set and order (see SearchMatchesParallel).
  const int workers = ResolveWorkers(options.num_threads, options.pool);

  // Compile (or fetch) the data graph's snapshot on the calling thread
  // before any fan-out, so worker threads only ever read the finished
  // immutable structure. A caller-provided MatchOptions::snapshot wins.
  std::shared_ptr<const GraphSnapshot> snap_holder;
  const GraphSnapshot* snap = options.match.snapshot;
  bool snap_fresh = false;
  if (snap == nullptr) {
    snap_holder = data.snapshot(&snap_fresh);
    snap = snap_holder.get();
    if (snap_fresh && metrics != nullptr) {
      metrics->GetCounter("snapshot.builds")->Increment();
      metrics->GetCounter("snapshot.bytes")->Increment(snap->bytes());
      metrics->GetHistogram("snapshot.build_us")
          ->Record(static_cast<uint64_t>(snap->build_micros()));
    }
  }
  // A freshly compiled snapshot is new memory this query caused; account
  // it for the query's duration. Cache hits were paid for by the query
  // that built them.
  ScopedReserve snap_mem(snap_fresh ? gov : nullptr,
                         snap_fresh ? snap->bytes() : 0,
                         GovernPoint::kRetrieve);

  // One span per pipeline stage; PipelineStats stage micros are the span
  // durations, so EXPLAIN/PROFILE and the figure benchmarks report the
  // same numbers from the same clock.
  obs::Span query_span(tracer, "match", obs::Span::Timing::kAlways);
  if (query_span.active()) {
    if (!pattern.name().empty()) query_span.SetAttr("pattern", pattern.name());
    query_span.SetAttr("pattern_nodes", static_cast<int64_t>(k));
    query_span.SetAttr("data_nodes",
                       static_cast<int64_t>(data.NumNodes()));
    query_span.SetAttr("mode", CandidateModeName(options.candidate_mode));
    query_span.SetAttr("indexed", static_cast<int64_t>(index != nullptr));
    if (workers > 0) {
      query_span.SetAttr("threads", static_cast<int64_t>(workers));
    }
  }

  obs::Span retrieve_span(tracer, "retrieve", obs::Span::Timing::kAlways);
  RetrieveParallelInfo retrieve_info;
  std::vector<std::vector<NodeId>> candidates =
      Retrieve(pattern, data, index, options, stats, std::max(1, workers),
               *snap, &retrieve_info);
  if (retrieve_span.active()) {
    size_t total = 0;
    for (const auto& c : candidates) total += c.size();
    retrieve_span.SetAttr("candidates", static_cast<int64_t>(total));
    if (retrieve_info.workers > 0) {
      retrieve_span.SetAttr("threads",
                            static_cast<int64_t>(retrieve_info.workers));
      retrieve_span.SetAttr("tasks_stolen",
                            static_cast<int64_t>(retrieve_info.tasks_stolen));
    }
  }
  EmitWorkerLanes(tracer, retrieve_info.lanes);
  retrieve_span.End();

  obs::Span refine_span(tracer, "refine", obs::Span::Timing::kAlways);
  int level = options.refine_level;
  if (level < 0) level = static_cast<int>(k);
  RefineStats refine_stats;
  bool refine_degraded = false;
  if (level > 0 && GovOk(gov)) {
    // Snapshot the candidate sets so a degradable budget trip can fall
    // back to the exact unrefined space; skipped for ungoverned queries.
    std::vector<std::vector<NodeId>> snapshot;
    const bool can_degrade = gov != nullptr && gov->HasLimits();
    if (can_degrade) snapshot = candidates;
    RefineSearchSpace(pattern, data, level, &candidates, &refine_stats,
                      options.refine_use_marking, metrics, gov, snap);
    if (refine_stats.aborted && can_degrade && gov->DegradableTrip()) {
      candidates = std::move(snapshot);
      gov->RefundSteps(refine_stats.pairs_charged);
      gov->ClearDegradableTrip();
      gov->NoteDegradation(
          "refine: budget exhausted; fell back to unrefined candidate sets");
      refine_degraded = true;
      if (metrics != nullptr) {
        metrics->GetCounter("governor.degrade.refine")->Increment();
      }
    }
  }
  if (refine_span.active()) {
    refine_span.SetAttr("level", static_cast<int64_t>(level));
    refine_span.SetAttr("bipartite_checks",
                        static_cast<int64_t>(refine_stats.bipartite_checks));
    refine_span.SetAttr("removed",
                        static_cast<int64_t>(refine_stats.removed));
    if (refine_degraded) refine_span.SetAttr("degraded", "fallback-unrefined");
  }
  refine_span.End();
  if (stats != nullptr) {
    stats->refine.bipartite_checks += refine_stats.bipartite_checks;
    stats->refine.removed += refine_stats.removed;
    stats->refine.levels_run = refine_stats.levels_run;
    stats->refine.pairs_charged += refine_stats.pairs_charged;
    stats->refine.aborted |= refine_stats.aborted;
    stats->refine_degraded |= refine_degraded;
    stats->size_refined.assign(k, 0);
    for (size_t u = 0; u < k; ++u) {
      stats->size_refined[u] = candidates[u].size();
    }
  }

  obs::Span order_span(tracer, "order", obs::Span::Timing::kAlways);
  std::vector<NodeId> order =
      options.optimize_order
          ? GreedySearchOrder(pattern, candidates, index, options.order)
          : DeclarationOrder(pattern);
  if (order_span.active()) {
    order_span.SetAttr("strategy",
                       options.optimize_order ? "greedy-cost" : "declaration");
  }
  order_span.End();

  obs::Span search_span(tracer, "search", obs::Span::Timing::kAlways);
  SearchStats search_stats;
  ParallelSearchStats search_parallel;
  MatchOptions match_options = options.match;
  if (match_options.governor == nullptr) match_options.governor = gov;
  match_options.snapshot = snap;
  Result<std::vector<algebra::MatchedGraph>> matches = SearchMatchesParallel(
      pattern, data, candidates, order, match_options, options.num_threads,
      options.pool, &search_stats, metrics, &search_parallel);
  if (search_span.active()) {
    search_span.SetAttr("steps", static_cast<int64_t>(search_stats.steps));
    search_span.SetAttr("backtracks",
                        static_cast<int64_t>(search_stats.backtracks));
    search_span.SetAttr("edge_checks",
                        static_cast<int64_t>(search_stats.edge_checks));
    search_span.SetAttr(
        "matches",
        static_cast<int64_t>(matches.ok() ? matches.value().size() : 0));
    if (search_stats.governor_tripped) {
      search_span.SetAttr("governor_tripped", static_cast<int64_t>(1));
    }
    if (search_parallel.workers > 0) {
      search_span.SetAttr("threads",
                          static_cast<int64_t>(search_parallel.workers));
      search_span.SetAttr("tasks_stolen",
                          static_cast<int64_t>(search_parallel.tasks_stolen));
    }
  }
  EmitWorkerLanes(tracer, search_parallel.lanes);
  search_span.End();

  const bool newly_tripped = gov != nullptr && gov->tripped() && !was_tripped;
  if (newly_tripped && metrics != nullptr) {
    metrics
        ->GetCounter(std::string("governor.trip.") +
                     GovernPointName(gov->trip_point()))
        ->Increment();
  }
  if (query_span.active()) {
    query_span.SetAttr(
        "matches",
        static_cast<int64_t>(matches.ok() ? matches.value().size() : 0));
    if (gov != nullptr && gov->tripped()) {
      query_span.SetAttr("governor_trip", TripKindName(gov->trip_kind()));
    }
  }
  query_span.End();

  if (stats != nullptr) {
    stats->us_retrieve += retrieve_span.DurationMicros();
    stats->us_refine += refine_span.DurationMicros();
    stats->us_order += order_span.DurationMicros();
    stats->us_search += search_span.DurationMicros();
    ++stats->members;
    for (size_t v : stats->size_attr) stats->sum_candidates_attr += v;
    for (size_t v : stats->size_retrieved) {
      stats->sum_candidates_retrieved += v;
    }
    for (size_t v : stats->size_refined) stats->sum_candidates_refined += v;
    stats->est_cost +=
        EstimateOrderCost(pattern, stats->size_refined, order, index,
                          options.order);
    stats->search.steps += search_stats.steps;
    stats->search.edge_checks += search_stats.edge_checks;
    stats->search.backtracks += search_stats.backtracks;
    stats->search.truncated |= search_stats.truncated;
    stats->search.governor_tripped |= search_stats.governor_tripped;
    stats->order = order;
    stats->num_matches = matches.ok() ? matches.value().size() : 0;
    stats->threads = workers;
    // Retrieve-stage steals were already added by Retrieve.
    stats->tasks_stolen += search_parallel.tasks_stolen;
  }
  if (metrics != nullptr) {
    metrics->GetCounter("match.queries")->Increment();
    metrics->GetHistogram("match.query.us")
        ->Record(static_cast<uint64_t>(query_span.DurationMicros()));
  }
  return matches;
}

Result<std::vector<algebra::MatchedGraph>> SelectCollection(
    const algebra::GraphPattern& pattern, const GraphCollection& collection,
    const PipelineOptions& options) {
  std::vector<algebra::MatchedGraph> out;
  for (const Graph& g : collection) {
    // A tripped governor ends the scan; matches found so far are returned
    // (the caller reads the trip off the governor).
    if (!GovOk(options.governor)) break;
    GQL_ASSIGN_OR_RETURN(std::vector<algebra::MatchedGraph> matches,
                         MatchPattern(pattern, g, /*index=*/nullptr, options));
    for (algebra::MatchedGraph& m : matches) out.push_back(std::move(m));
  }
  return out;
}

Result<std::vector<algebra::MatchedGraph>> SelectCollectionAny(
    const std::vector<algebra::GraphPattern>& alternatives,
    const GraphCollection& collection, const PipelineOptions& options) {
  std::vector<algebra::MatchedGraph> out;
  for (const Graph& g : collection) {
    if (!GovOk(options.governor)) break;
    for (const algebra::GraphPattern& pattern : alternatives) {
      GQL_ASSIGN_OR_RETURN(
          std::vector<algebra::MatchedGraph> matches,
          MatchPattern(pattern, g, /*index=*/nullptr, options));
      if (!matches.empty()) {
        for (algebra::MatchedGraph& m : matches) out.push_back(std::move(m));
        if (!options.match.exhaustive) break;  // One binding per graph.
      }
    }
  }
  return out;
}

bool AreIsomorphic(const Graph& a, const Graph& b) {
  if (a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges()) {
    return false;
  }
  if (a.directed() != b.directed()) return false;
  if (!(a.attrs() == b.attrs())) return false;
  auto embeds = [](const Graph& from, const Graph& into) {
    algebra::GraphPattern p = algebra::GraphPattern::FromGraph(from);
    PipelineOptions options;
    options.candidate_mode = CandidateMode::kLabelOnly;
    options.refine_level = -1;
    options.match.exhaustive = false;
    Result<std::vector<algebra::MatchedGraph>> m =
        MatchPattern(p, into, nullptr, options);
    return m.ok() && !m->empty();
  };
  // With equal sizes, mutual embedding pins the node bijection and forces
  // attribute equality in both directions (each side's attributes are a
  // subset of the other's on corresponding entities).
  return embeds(a, b) && embeds(b, a);
}

}  // namespace graphql::match
