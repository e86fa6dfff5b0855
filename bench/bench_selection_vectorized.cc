// Selection-kernel ablation: candidate selection over the compiled
// snapshot through ScanBaseList with one kernel forced for every pattern
// node — the scalar oracle (one GraphPattern::NodeCompatible probe per
// candidate), the column-at-a-time bitmap kernel and the compiled
// predicate bytecode — plus the production lane, where RetrieveCandidates
// picks the kernel per node (ResolveSelectionKernel) and MatchPattern runs
// the whole pipeline. Every lane must return the scalar oracle's candidate
// lists; the binary exits nonzero on any divergence. The production lane
// also reports each query's search time, search steps and matches. Dumps
// machine-readable results for tools/summarize_bench.py; the pipeline's
// counters go to the global metric registry (GQL_BENCH_METRICS_JSON).
//
// The workload mixes label-only patterns (structural columns) with
// attribute-predicate patterns inside and outside the bytecode ISA, so
// the sweep exercises the bitmap fill, the compiled programs, and the
// AST-interpreter fallback.
//
// Knobs (environment / argv):
//   GQL_BENCH_SELECTION_JSON  output path (default BENCH_selection.json)
//   GQL_BENCH_SELECTION_REPS  timed repetitions per lane, best-of (default 3)
//   --quick / GQL_BENCH_QUICK smaller graph, 1 rep (CI smoke)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "graph/snapshot.h"
#include "match/pipeline.h"
#include "match/vectorized.h"
#include "workload/erdos_renyi.h"

namespace graphql::bench {
namespace {

constexpr size_t kMaxMatchesPerQuery = 100;

Graph MakeData(bool quick) {
  Rng rng(20080610);
  workload::ErdosRenyiOptions opts;
  opts.num_nodes = quick ? 2000 : 20000;
  opts.num_edges = quick ? 8000 : 80000;
  opts.num_labels = 6;
  Graph data = workload::MakeErdosRenyi(opts, &rng);
  // Numeric and (sparse) string attributes give the predicate kernels
  // real columns: "score" feeds comparisons, "tier" feeds the interned
  // string-equality path, and its absence on 2/3 of nodes exercises the
  // absent-attribute reject.
  for (NodeId v = 0; v < static_cast<NodeId>(data.NumNodes()); ++v) {
    data.node(v).attrs.Set("score", Value(int64_t{(v * 13) % 100}));
    if (v % 3 == 0) {
      data.node(v).attrs.Set("tier", Value(v % 6 == 0 ? "gold" : "silver"));
    }
  }
  return data;
}

std::vector<algebra::GraphPattern> MakeQueries() {
  std::vector<algebra::GraphPattern> out;
  for (const char* source : {
           // Label-only: pure structural columns.
           R"(graph P { node a <label="L0">; node b <label="L1">;
                        node c <label="L2">;
                        edge (a, b); edge (b, c); edge (c, a); })",
           // Comparison predicates (compiled bytecode).
           R"(graph P { node a <label="L0"> where score > 50;
                        node b <label="L1"> where score <= 80;
                        edge (a, b); })",
           // Interned string equality + dense unlabeled node.
           R"(graph P { node a where tier == "gold"; node b <label="L2">;
                        edge (a, b); })",
           // Arithmetic predicate: AST-interpreter fallback.
           R"(graph P { node a <label="L3"> where score + 0 > 50; node b;
                        edge (a, b); })",
       }) {
    auto p = algebra::GraphPattern::Parse(source);
    if (!p.ok()) {
      std::fprintf(stderr, "bad query: %s\n", p.status().ToString().c_str());
      std::exit(1);
    }
    out.push_back(std::move(p).value());
  }
  return out;
}

/// The base list the retrieve stage scans for pattern node `u`: the label
/// index list when the node is labelled, every data node otherwise.
const std::vector<NodeId>& BaseList(const algebra::GraphPattern& p, NodeId u,
                                    const match::LabelIndex& index,
                                    const std::vector<NodeId>& all) {
  std::string_view label = p.graph().Label(u);
  return label.empty() ? all : index.NodesWithLabel(label);
}

/// One query of the production lane's full pipeline run.
struct QueryResult {
  double search_ms = -1;  ///< Best-of-reps search stage.
  uint64_t steps = 0;     ///< Search steps (candidates tried).
  size_t matches = 0;
};

struct LaneResult {
  const char* name = "";
  double retrieve_ms = -1;  ///< Best-of-reps, isolated selection stage.
  double match_ms = -1;     ///< Best-of-reps, full MatchPattern (production).
  size_t matches = 0;
  size_t candidates = 0;  ///< Sum of candidate-list sizes.
  /// Candidate lists of every (query, pattern node), in order.
  std::vector<std::vector<NodeId>> lists;
  std::vector<QueryResult> queries;  ///< Production lane only.
};

enum class Lane { kScalar, kBitmap, kBytecode, kProduction };

const char* LaneName(Lane lane) {
  switch (lane) {
    case Lane::kScalar:
      return "scalar";
    case Lane::kBitmap:
      return "bitmap";
    case Lane::kBytecode:
      return "bytecode";
    case Lane::kProduction:
      return "production";
  }
  return "?";
}

/// One rep of the selection stage on `lane`: every pattern node of every
/// query scans its base list.
std::vector<std::vector<NodeId>> Select(
    Lane lane, const Graph& data, const match::LabelIndex& index,
    const GraphSnapshot& snap, const std::vector<NodeId>& all,
    const std::vector<algebra::GraphPattern>& queries) {
  std::vector<std::vector<NodeId>> lists;
  for (const algebra::GraphPattern& p : queries) {
    const NodeId k = static_cast<NodeId>(p.graph().NumNodes());
    if (lane == Lane::kProduction) {
      // Label-only retrieval: exactly the kernels' scans, no profile
      // pruning diluting the comparison.
      match::PipelineOptions o;
      o.candidate_mode = match::CandidateMode::kLabelOnly;
      for (auto& c : match::RetrieveCandidates(p, data, &index, o, nullptr,
                                               &snap)) {
        lists.push_back(std::move(c));
      }
      continue;
    }
    if (lane == Lane::kScalar) {
      for (NodeId u = 0; u < k; ++u) {
        std::vector<NodeId> out;
        for (NodeId v : BaseList(p, u, index, all)) {
          if (p.NodeCompatible(u, snap, data, v)) out.push_back(v);
        }
        lists.push_back(std::move(out));
      }
      continue;
    }
    const match::SelectionKernel kernel =
        lane == Lane::kBitmap ? match::SelectionKernel::kBitmap
                              : match::SelectionKernel::kBytecode;
    match::SelectionPlan plan(p, snap, /*metrics=*/nullptr);
    algebra::PatternScratch scratch;
    PackedBits bits(2, snap.num_nodes());
    for (NodeId u = 0; u < k; ++u) {
      std::vector<NodeId> out;
      match::ScanBaseList(plan, u, data, BaseList(p, u, index, all), kernel,
                          &scratch, &bits, &out);
      lists.push_back(std::move(out));
    }
  }
  return lists;
}

LaneResult RunLane(Lane lane, const Graph& data,
                   const match::LabelIndex& index, const GraphSnapshot& snap,
                   const std::vector<NodeId>& all,
                   const std::vector<algebra::GraphPattern>& queries,
                   int reps) {
  LaneResult r;
  r.name = LaneName(lane);
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::vector<NodeId>> lists =
        Select(lane, data, index, snap, all, queries);
    auto t1 = std::chrono::steady_clock::now();
    double retrieve_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r.retrieve_ms < 0 || retrieve_ms < r.retrieve_ms) {
      r.retrieve_ms = retrieve_ms;
    }
    r.candidates = 0;
    for (const auto& c : lists) r.candidates += c.size();
    r.lists = std::move(lists);
    if (lane != Lane::kProduction) continue;

    // Full pipeline, for the end-to-end view.
    size_t matches = 0;
    r.queries.resize(queries.size());
    auto t2 = std::chrono::steady_clock::now();
    for (size_t q = 0; q < queries.size(); ++q) {
      match::PipelineOptions o;
      o.candidate_mode = match::CandidateMode::kProfile;
      o.match.max_matches = kMaxMatchesPerQuery;
      match::PipelineStats stats;
      auto m = match::MatchPattern(queries[q], data, &index, o, &stats);
      if (m.ok()) matches += m->size();
      QueryResult& qr = r.queries[q];
      const double search_ms = static_cast<double>(stats.us_search) / 1000.0;
      if (qr.search_ms < 0 || search_ms < qr.search_ms) {
        qr.search_ms = search_ms;
      }
      qr.steps = stats.search.steps;
      qr.matches = m.ok() ? m->size() : 0;
    }
    auto t3 = std::chrono::steady_clock::now();
    double match_ms =
        std::chrono::duration<double, std::milli>(t3 - t2).count();
    if (r.match_ms < 0 || match_ms < r.match_ms) r.match_ms = match_ms;
    r.matches = matches;
  }
  return r;
}

int Main(int argc, char** argv) {
  bool quick = std::getenv("GQL_BENCH_QUICK") != nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  int reps = quick ? 1 : 3;
  if (const char* v = std::getenv("GQL_BENCH_SELECTION_REPS")) {
    int n = std::atoi(v);
    if (n > 0) reps = n;
  }

  std::printf("building synthetic workload (ER %s, 6 labels, score/tier "
              "attrs)...\n",
              quick ? "2k/8k" : "20k/80k");
  Graph data = MakeData(quick);
  match::LabelIndex index = match::LabelIndex::Build(data);
  std::vector<algebra::GraphPattern> queries = MakeQueries();
  // Warm the snapshot outside the timed region — every lane runs over it;
  // the kernels are the only variable.
  std::shared_ptr<const GraphSnapshot> snap = data.snapshot();

  std::vector<NodeId> all(data.NumNodes());
  for (size_t v = 0; v < all.size(); ++v) all[v] = static_cast<NodeId>(v);

  std::vector<LaneResult> lanes;
  for (Lane lane :
       {Lane::kScalar, Lane::kBitmap, Lane::kBytecode, Lane::kProduction}) {
    lanes.push_back(RunLane(lane, data, index, *snap, all, queries, reps));
  }

  bool identical = true;
  for (const LaneResult& lane : lanes) {
    identical = identical && lane.lists == lanes[0].lists;
  }

  std::printf("\n%10s %12s %10s %12s %8s %10s\n", "lane", "retrieve_ms",
              "match_ms", "candidates", "matches", "speedup");
  for (const LaneResult& lane : lanes) {
    double speedup =
        lane.retrieve_ms > 0 ? lanes[0].retrieve_ms / lane.retrieve_ms : 0.0;
    if (lane.match_ms >= 0) {
      std::printf("%10s %12.3f %10.2f %12zu %8zu %9.2fx\n", lane.name,
                  lane.retrieve_ms, lane.match_ms, lane.candidates,
                  lane.matches, speedup);
    } else {
      std::printf("%10s %12.3f %10s %12zu %8s %9.2fx\n", lane.name,
                  lane.retrieve_ms, "-", lane.candidates, "-", speedup);
    }
  }
  std::printf("\ncandidate lists %s across lanes\n",
              identical ? "bit-identical" : "DIVERGED");
  const std::vector<QueryResult>& per_query = lanes.back().queries;
  std::printf("\nproduction lane by query:\n%6s %10s %10s %8s\n", "query",
              "search_ms", "steps", "matches");
  for (size_t q = 0; q < per_query.size(); ++q) {
    std::printf("%6zu %10.3f %10llu %8zu\n", q, per_query[q].search_ms,
                static_cast<unsigned long long>(per_query[q].steps),
                per_query[q].matches);
  }

  const char* path = std::getenv("GQL_BENCH_SELECTION_JSON");
  std::string out_path =
      path != nullptr && *path != '\0' ? path : "BENCH_selection.json";
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"bench\": \"selection_vectorized\",\n"
      << "  \"stamp\": " << BuildStampJson() << ",\n"
      << "  \"workload\": \"erdos-renyi " << (quick ? "2k/8k" : "20k/80k")
      << ", 6 labels, score/tier attrs, " << queries.size()
      << " queries, max " << kMaxMatchesPerQuery << " matches each\",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
      << "  \"identical\": " << (identical ? "true" : "false") << ",\n"
      << "  \"lanes\": [\n";
  for (size_t i = 0; i < lanes.size(); ++i) {
    const LaneResult& lane = lanes[i];
    double speedup =
        lane.retrieve_ms > 0 ? lanes[0].retrieve_ms / lane.retrieve_ms : 0.0;
    out << "    {\"lane\": \"" << lane.name
        << "\", \"retrieve_ms\": " << lane.retrieve_ms
        << ", \"candidates\": " << lane.candidates;
    if (lane.match_ms >= 0) {
      out << ", \"match_ms\": " << lane.match_ms
          << ", \"matches\": " << lane.matches << ", \"queries\": [";
      for (size_t q = 0; q < lane.queries.size(); ++q) {
        const QueryResult& qr = lane.queries[q];
        out << (q == 0 ? "" : ", ") << "{\"query\": " << q
            << ", \"search_ms\": " << qr.search_ms
            << ", \"steps\": " << qr.steps
            << ", \"matches\": " << qr.matches << "}";
      }
      out << "]";
    }
    out << ", \"retrieve_speedup\": " << speedup << "}"
        << (i + 1 < lanes.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());

  return identical ? 0 : 2;
}

}  // namespace
}  // namespace graphql::bench

int main(int argc, char** argv) { return graphql::bench::Main(argc, argv); }
