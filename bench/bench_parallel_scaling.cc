// Intra-query parallel selection scaling: wall-clock speedup of the
// work-stealing retrieve/refine/search pipeline over the serial path on
// the protein-network clique workload (low-hit queries, exhaustive under
// the paper's hit cap, so serial and parallel do identical work).
//
// Unlike the figure benches this is a plain binary (no google-benchmark):
// it sweeps a thread count in two lanes, verifies that every parallel run
// produces a bit-identical match list (same bindings, same order) and
// refined candidate sizes to the lane's serial run, prints a speedup
// table per lane, and dumps machine-readable results as JSON for
// tools/summarize_bench.py. The `baseline` lane runs without refinement,
// so its time is retrieve and search; the `refine` lane runs the same
// queries with full refinement (level = pattern size) and times refine at
// each thread count.
//
// Knobs (environment):
//   GQL_BENCH_PARALLEL_JSON   output path (default BENCH_parallel.json)
//   GQL_BENCH_PARALLEL_REPS   timed repetitions per thread count, best-of
//                             (default 3)
//   GQL_BENCH_THREADS / GQL_BENCH_NEIGHBORHOOD_BUDGET are ignored here:
//   the sweep sets num_threads itself.

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"

namespace graphql::bench {
namespace {

constexpr size_t kCliqueSizes[] = {5, 6};
constexpr int kThreadSweep[] = {0, 1, 2, 4, 8};

struct QuerySet {
  std::vector<Graph> graphs;
  std::vector<algebra::GraphPattern> patterns;
};

QuerySet BuildQueries() {
  QuerySet qs;
  for (size_t size : kCliqueSizes) {
    ClassifiedQueries q = MakeClassifiedCliqueQueries(
        size, /*want_each=*/10, /*max_attempts=*/400, /*seed=*/size * 977);
    for (Graph& g : q.low_hits) qs.graphs.push_back(std::move(g));
  }
  for (const Graph& g : qs.graphs) {
    qs.patterns.push_back(algebra::GraphPattern::FromGraph(g));
  }
  return qs;
}

/// One query's refined candidate sizes and match list rendered as a
/// comparable token: sizes, bindings and their order must agree exactly
/// for two runs to count as identical.
std::string Signature(const match::PipelineStats& stats,
                      const std::vector<algebra::MatchedGraph>& matches) {
  std::string sig;
  for (size_t n : stats.size_refined) sig += std::to_string(n) + ",";
  sig += "/";
  for (const algebra::MatchedGraph& m : matches) {
    for (NodeId v : m.node_mapping) sig += std::to_string(v) + ",";
    for (EdgeId e : m.edge_mapping) sig += std::to_string(e) + ";";
    sig += "|";
  }
  return sig;
}

struct SweepResult {
  const char* lane = "";
  int threads = 0;
  double ms = 0;                ///< Best-of-reps total wall time.
  double speedup = 1;           ///< Lane's 0-thread ms over this ms.
  double ms_retrieve = 0;       ///< Stage sums from the best rep.
  double ms_refine = 0;
  double ms_search = 0;
  uint64_t tasks_stolen = 0;
  size_t matches = 0;
  bool identical = true;        ///< Match lists == serial run's.
};

SweepResult RunSweep(const QuerySet& qs, int refine_level, int threads,
                     int reps,
                     const std::vector<std::string>* serial_sigs,
                     std::vector<std::string>* sigs_out) {
  const ProteinWorkload& w = GetProteinWorkload();
  SweepResult r;
  r.threads = threads;
  r.ms = -1;
  for (int rep = 0; rep < reps; ++rep) {
    double ms_retrieve = 0;
    double ms_refine = 0;
    double ms_search = 0;
    uint64_t stolen = 0;
    size_t total_matches = 0;
    std::vector<std::string> sigs;
    sigs.reserve(qs.patterns.size());
    auto t0 = std::chrono::steady_clock::now();
    for (const algebra::GraphPattern& p : qs.patterns) {
      // Label-only retrieval and declaration order: the paper's Baseline
      // (with refine_level 0). Its unreduced search space is where
      // intra-query parallelism matters (the optimized pipeline finishes
      // these queries in microseconds, leaving nothing to parallelize),
      // and every root candidate becomes a stealable search task.
      match::PipelineOptions o;
      o.candidate_mode = match::CandidateMode::kLabelOnly;
      o.refine_level = refine_level;
      o.optimize_order = false;
      o.match.max_matches = kMaxHits;
      o.num_threads = threads;
      o.metrics = nullptr;
      match::PipelineStats stats;
      auto m = match::MatchPattern(p, w.graph, &w.index, o, &stats);
      ms_retrieve += stats.us_retrieve / 1000.0;
      ms_refine += stats.us_refine / 1000.0;
      ms_search += stats.us_search / 1000.0;
      stolen += stats.tasks_stolen;
      if (m.ok()) {
        total_matches += m->size();
        sigs.push_back(Signature(stats, *m));
      } else {
        sigs.push_back("error:" + m.status().ToString());
      }
    }
    auto t1 = std::chrono::steady_clock::now();
    double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r.ms < 0 || ms < r.ms) {
      r.ms = ms;
      r.ms_retrieve = ms_retrieve;
      r.ms_refine = ms_refine;
      r.ms_search = ms_search;
      r.tasks_stolen = stolen;
    }
    r.matches = total_matches;
    if (serial_sigs != nullptr && sigs != *serial_sigs) r.identical = false;
    if (sigs_out != nullptr && rep == 0) *sigs_out = std::move(sigs);
  }
  return r;
}

int Main() {
  int reps = 3;
  if (const char* v = std::getenv("GQL_BENCH_PARALLEL_REPS")) {
    int n = std::atoi(v);
    if (n > 0) reps = n;
  }
  std::printf("building clique workload (protein network, sizes 5-6, "
              "low-hit)...\n");
  QuerySet qs = BuildQueries();
  if (qs.patterns.empty()) {
    std::fprintf(stderr, "no queries generated\n");
    return 1;
  }
  unsigned hw = std::thread::hardware_concurrency();
  std::printf("%zu queries, %d reps per thread count (best-of), "
              "%u hardware threads\n",
              qs.patterns.size(), reps, hw);
  if (hw < 2) {
    std::printf("NOTE: single-core machine — speedup > 1 is not "
                "achievable; this run only verifies determinism.\n");
  }
  std::printf("\n");

  struct Lane {
    const char* name;
    int refine_level;
  };
  const Lane kLanes[] = {{"baseline", 0}, {"refine", -1}};
  std::vector<SweepResult> results;
  bool all_identical = true;
  for (const Lane& lane : kLanes) {
    std::vector<std::string> serial_sigs;
    const size_t first = results.size();
    for (int threads : kThreadSweep) {
      SweepResult r =
          RunSweep(qs, lane.refine_level, threads, reps,
                   threads == 0 ? nullptr : &serial_sigs,
                   threads == 0 ? &serial_sigs : nullptr);
      r.lane = lane.name;
      r.speedup = results.size() == first ? 1.0 : results[first].ms / r.ms;
      results.push_back(r);
    }
    std::printf("lane %s (refine_level %d)\n", lane.name, lane.refine_level);
    std::printf("%8s %10s %9s %12s %10s %10s %10s %6s\n", "threads", "ms",
                "speedup", "stolen", "retr_ms", "refine_ms", "search_ms",
                "exact");
    bool lane_identical = true;
    for (size_t i = first; i < results.size(); ++i) {
      const SweepResult& r = results[i];
      lane_identical = lane_identical && r.identical;
      std::printf("%8d %10.2f %8.2fx %12llu %10.2f %10.2f %10.2f %6s\n",
                  r.threads, r.ms, r.speedup,
                  static_cast<unsigned long long>(r.tasks_stolen),
                  r.ms_retrieve, r.ms_refine, r.ms_search,
                  r.identical ? "yes" : "NO");
    }
    std::printf("match lists %s across the sweep (%zu matches)\n\n",
                lane_identical ? "bit-identical" : "DIVERGED",
                results[first].matches);
    all_identical = all_identical && lane_identical;
  }

  const char* path = std::getenv("GQL_BENCH_PARALLEL_JSON");
  std::string out_path =
      path != nullptr && *path != '\0' ? path : "BENCH_parallel.json";
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"bench\": \"parallel_scaling\",\n"
      << "  \"stamp\": " << BuildStampJson() << ",\n"
      << "  \"workload\": \"protein clique low-hit (sizes 5-6)\",\n"
      << "  \"hardware_concurrency\": " << hw << ",\n"
      << "  \"queries\": " << qs.patterns.size() << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"matches\": " << results.front().matches << ",\n"
      << "  \"identical\": " << (all_identical ? "true" : "false") << ",\n"
      << "  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const SweepResult& r = results[i];
    out << "    {\"lane\": \"" << r.lane << "\", \"threads\": " << r.threads
        << ", \"ms\": " << r.ms << ", \"speedup\": " << r.speedup
        << ", \"tasks_stolen\": " << r.tasks_stolen
        << ", \"ms_retrieve\": " << r.ms_retrieve
        << ", \"ms_refine\": " << r.ms_refine
        << ", \"ms_search\": " << r.ms_search
        << ", \"identical\": " << (r.identical ? "true" : "false") << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return all_identical ? 0 : 2;
}

}  // namespace
}  // namespace graphql::bench

int main() { return graphql::bench::Main(); }
