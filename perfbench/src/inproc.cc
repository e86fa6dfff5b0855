// The in-process workloads, er_search and ppi_clique: one client thread
// drives exec::Evaluator::RunSource in a closed loop over a seeded query
// pool and checks every answer.
//
// er_search (Erdos-Renyi graphs of 20k nodes / 80k edges, 6 Zipf labels,
// score/tier attributes): the four patterns of bench_selection_vectorized
// on each graph, exhaustive and capped at kCap matches. The pool repeats
// every pass, so the plan cache serves the front end and the DFS search
// does almost all of the work. Patterns extracted from the graph are not
// used: at kCap = 100 one of 3-8 nodes costs anywhere from milliseconds
// to seconds, so a seeded draw would decide every figure.
//
// ppi_clique (3112-node protein-network stand-ins): labelled cliques of
// 3-7 nodes, in equal numbers, taken from real cliques of each graph, so
// every query has answers. Each request gets a fresh pattern name, so no
// query text ever repeats and the plan cache cannot serve it; retrieve,
// refine and the front end carry the time and search is tiny.
//
// Answers are checked after the timed window, so the oracle's memory does
// not show in peak_rss_mb: every match returned on a pool entry's first
// run is checked as an embedding by the benchmark's own checker, later
// runs must return the identical match list, and the match count must
// equal min(kCap, total) from the Figure 4.2 SQL plan (rel/sql_plan).

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algebra/pattern.h"
#include "exec/evaluator.h"
#include "exec/registry.h"
#include "graph/snapshot.h"
#include "harness.h"
#include "lang/parser.h"
#include "match/cost.h"
#include "match/label_index.h"
#include "match/matcher.h"
#include "match/pipeline.h"
#include "match/refine.h"
#include "rel/sql_plan.h"
#include "sema/analyzer.h"
#include "workload/erdos_renyi.h"
#include "workload/protein_network.h"
#include "workload/queries.h"
#include "workloads.h"

namespace perfbench {
namespace {

using graphql::Graph;
using graphql::NodeId;
using graphql::Value;

constexpr size_t kCap = 100;  // Match cap per query (evaluator option).
constexpr int kSetupRepeats = 3;
// Graphs per run, and cliques drawn per graph for ppi_clique. One
// protein-network draw moves the clique workload's cost by ~15%, so it
// averages over more, smaller draws than er_search needs.
constexpr int kErGraphs = 4;
constexpr int kPpiGraphs = 16;
constexpr size_t kCliquesPerGraph = 50;

struct PoolEntry {
  int doc = 0;       ///< Index of the graph it runs on.
  std::string name;  ///< Pattern name used in the query text.
  std::string decl;  ///< `{ node ...; edge ...; }` body of the pattern.
  std::string sql_decl;  ///< The same body without predicates (SQL oracle).
  CheckPattern check;
  // Observed on the first run; later runs must repeat it exactly.
  bool seen = false;
  std::vector<std::vector<NodeId>> first;
  // Pattern compiled once for the traced replay's plan-cache-hit path.
  std::optional<graphql::algebra::GraphPattern> compiled;
};

std::string QueryText(const std::string& name, const PoolEntry& q) {
  return "for graph " + name + " " + q.decl + " exhaustive in doc(\"G" +
         std::to_string(q.doc) + "\") return " + name + ";";
}

/// Renders an extracted query graph as a pattern body over n0..nk-1.
void RenderExtracted(const Graph& q, PoolEntry* e) {
  std::string body = "{ ";
  for (NodeId u = 0; u < static_cast<NodeId>(q.NumNodes()); ++u) {
    std::string label(q.Label(u));
    body += "node n" + std::to_string(u);
    if (!label.empty()) body += " <label=\"" + label + "\">";
    body += "; ";
    e->check.labels.push_back(label);
  }
  for (graphql::EdgeId x = 0; x < static_cast<graphql::EdgeId>(q.NumEdges());
       ++x) {
    const auto& edge = q.edge(x);
    body += "edge (n" + std::to_string(edge.src) + ", n" +
            std::to_string(edge.dst) + "); ";
    e->check.edges.push_back(
        {static_cast<int>(edge.src), static_cast<int>(edge.dst)});
  }
  body += "}";
  e->decl = body;
  e->sql_decl = body;
  e->check.preds.resize(q.NumNodes());
}

int64_t IntAttr(const graphql::AttrTuple& a, const char* name, bool* ok) {
  std::optional<Value> v = a.Get(name);
  *ok = v.has_value() && v->is_int();
  return *ok ? v->AsInt() : 0;
}

/// The four predicate patterns of bench_selection_vectorized, with the
/// checker's own reading of each predicate.
std::vector<PoolEntry> PredicatePatterns() {
  using Pred = std::function<bool(const graphql::AttrTuple&)>;
  auto score = [](auto cmp) -> Pred {
    return [cmp](const graphql::AttrTuple& a) {
      bool ok = false;
      int64_t s = IntAttr(a, "score", &ok);
      return ok && cmp(s);
    };
  };
  std::vector<PoolEntry> out(4);
  for (PoolEntry& e : out) e.name = "P";
  out[0].decl = out[0].sql_decl =
      "{ node n0 <label=\"L0\">; node n1 <label=\"L1\">; "
      "node n2 <label=\"L2\">; edge (n0, n1); edge (n1, n2); edge (n2, n0); }";
  out[0].check = {{"L0", "L1", "L2"}, {{}, {}, {}}, {{0, 1}, {1, 2}, {2, 0}}};
  out[1].decl =
      "{ node n0 <label=\"L0\"> where score > 50; "
      "node n1 <label=\"L1\"> where score <= 80; edge (n0, n1); }";
  out[1].sql_decl =
      "{ node n0 <label=\"L0\">; node n1 <label=\"L1\">; edge (n0, n1); }";
  out[1].check = {{"L0", "L1"},
                  {score([](int64_t s) { return s > 50; }),
                   score([](int64_t s) { return s <= 80; })},
                  {{0, 1}}};
  out[2].decl =
      "{ node n0 where tier == \"gold\"; node n1 <label=\"L2\">; "
      "edge (n0, n1); }";
  out[2].sql_decl = "{ node n0; node n1 <label=\"L2\">; edge (n0, n1); }";
  out[2].check = {{"", "L2"},
                  {[](const graphql::AttrTuple& a) {
                     std::optional<Value> t = a.Get("tier");
                     return t && t->is_string() && t->AsString() == "gold";
                   },
                   {}},
                  {{0, 1}}};
  out[3].decl =
      "{ node n0 <label=\"L3\"> where score + 0 > 50; node n1; "
      "edge (n0, n1); }";
  out[3].sql_decl = "{ node n0 <label=\"L3\">; node n1; edge (n0, n1); }";
  out[3].check = {{"L3", ""},
                  {score([](int64_t s) { return s > 50; }), {}},
                  {{0, 1}}};
  return out;
}

Graph MakeErData(uint64_t seed) {
  graphql::Rng rng(seed);
  graphql::workload::ErdosRenyiOptions opts;
  opts.num_nodes = 20000;
  opts.num_edges = 80000;
  opts.num_labels = 6;
  Graph data = graphql::workload::MakeErdosRenyi(opts, &rng);
  for (NodeId v = 0; v < static_cast<NodeId>(data.NumNodes()); ++v) {
    data.node(v).attrs.Set("score", Value(int64_t{(v * 13) % 100}));
    if (v % 3 == 0) {
      data.node(v).attrs.Set("tier", Value(v % 6 == 0 ? "gold" : "silver"));
    }
  }
  return data;
}

Graph MakePpiData(uint64_t seed) {
  graphql::Rng rng(seed);
  return graphql::workload::MakeProteinNetwork({}, &rng);
}

/// Every data node carries its own id, so a returned (materialized) match
/// can be mapped back onto the data graph by the checker.
Graph MakeData(bool er, uint64_t seed) {
  Graph data = er ? MakeErData(seed) : MakePpiData(seed);
  for (NodeId v = 0; v < static_cast<NodeId>(data.NumNodes()); ++v) {
    data.node(v).attrs.Set("vid", Value(static_cast<int64_t>(v)));
  }
  return data;
}

/// The pool for one graph: er_search runs the four predicate patterns;
/// ppi_clique draws `cliques` cliques of 3-7 nodes from the graph.
std::vector<PoolEntry> MakePool(bool er, const Graph& data, uint64_t seed,
                                size_t cliques) {
  if (er) return PredicatePatterns();
  graphql::Rng rng(seed ^ 0x5EEDF00Dull);
  std::vector<PoolEntry> pool;
  size_t attempts = 0;
  while (pool.size() < cliques && attempts < cliques * 20) {
    ++attempts;
    // Sizes cycle through 3..7, so every draw holds the same mix.
    auto q = graphql::workload::ExtractCliqueQuery(data, 3 + pool.size() % 5,
                                                   &rng);
    if (!q.ok()) continue;
    PoolEntry e;
    RenderExtracted(*q, &e);
    e.name = "P";
    pool.push_back(std::move(e));
  }
  return pool;
}

/// The documents and the evaluator over them. Each run uses several
/// graphs generated from the seed (doc("G0") ...), so a figure averages
/// over several inputs of the same size rather than hanging on one draw.
struct Engine {
  graphql::exec::DocumentRegistry docs;
  std::unique_ptr<graphql::exec::Evaluator> ev;
  std::vector<const Graph*> data;
};

void MakeEngine(bool er, uint64_t seed, Engine* out) {
  const int graphs = er ? kErGraphs : kPpiGraphs;
  for (int k = 0; k < graphs; ++k) {
    const std::string name = "G" + std::to_string(k);
    out->docs.RegisterGraph(name, MakeData(er, seed * 64 + k));
    out->data.push_back(&(*out->docs.Find(name))[0]);
  }
  out->ev = std::make_unique<graphql::exec::Evaluator>(&out->docs);
  out->ev->mutable_match_options()->match.max_matches = kCap;
}

/// Maps a returned graph (nodes n<i> carrying the data node's vid) back to
/// a pattern-node -> data-node vector.
bool MappingOf(const Graph& g, size_t k, std::vector<NodeId>* m,
               std::string* why) {
  m->assign(k, graphql::kInvalidNode);
  if (g.NumNodes() != k) {
    *why = "returned graph has " + std::to_string(g.NumNodes()) + " nodes";
    return false;
  }
  for (NodeId x = 0; x < static_cast<NodeId>(g.NumNodes()); ++x) {
    const std::string& n = g.node(x).name;
    bool ok = false;
    int64_t vid = IntAttr(g.node(x).attrs, "vid", &ok);
    size_t u = n.size() > 1 && n[0] == 'n' ? std::stoul(n.substr(1)) : k;
    if (!ok || u >= k) {
      *why = "returned node '" + n + "' has no pattern name or vid";
      return false;
    }
    (*m)[u] = static_cast<NodeId>(vid);
  }
  return true;
}

struct Totals {
  uint64_t requests = 0;
  uint64_t hits = 0;
  double candidates_retrieved = 0;
  double candidates_refined = 0;
  double est_cost = 0;
  double steps = 0;
  double matches = 0;
  double run_source_us = 0;
};

/// Replays one request through the public functions of each layer, one
/// span per call, mirroring what RunSource did (front end only on a plan
/// cache miss; the default pipeline: profiles, refine, greedy order).
void ReplayLayers(const std::string& text, bool hit, PoolEntry* q,
                  const Graph& data, const graphql::match::LabelIndex& index,
                  const graphql::GraphSnapshot* snap, SpanLog* log,
                  uint64_t id, int parent, Totals* t) {
  namespace match = graphql::match;
  const graphql::algebra::GraphPattern* pattern = &*q->compiled;
  std::optional<graphql::algebra::GraphPattern> fresh;
  if (!hit) {
    graphql::Result<graphql::lang::Program> prog = [&] {
      ScopedSpan s(log, "lang.parse", id, parent);
      return graphql::lang::Parser::ParseProgram(text);
    }();
    if (!prog.ok()) return;  // RunSource reported the same failure.
    {
      ScopedSpan s(log, "sema.analyze", id, parent);
      graphql::sema::Analysis a = graphql::sema::Analyze(*prog);
      (void)a;
    }
    ScopedSpan s(log, "algebra.compile", id, parent);
    auto compiled = graphql::algebra::GraphPattern::Create(
        *prog->statements[0].flwr.pattern);
    if (!compiled.ok()) return;
    fresh.emplace(std::move(compiled).value());
    pattern = &*fresh;
  }
  match::PipelineOptions opts;
  opts.metrics = nullptr;
  opts.match.max_matches = kCap;
  opts.match.snapshot = snap;
  std::vector<std::vector<NodeId>> cand;
  {
    ScopedSpan s(log, "match.retrieve", id, parent);
    cand = match::RetrieveCandidates(*pattern, data, &index, opts, nullptr,
                                     snap);
  }
  for (const auto& c : cand) t->candidates_retrieved += c.size();
  {
    ScopedSpan s(log, "match.refine", id, parent);
    const int level = static_cast<int>(pattern->graph().NumNodes());
    if (opts.num_threads > 0) {
      match::RefineSearchSpaceParallel(*pattern, data, level, &cand, nullptr,
                                       true, nullptr, nullptr,
                                       opts.num_threads, nullptr, nullptr,
                                       snap);
    } else {
      match::RefineSearchSpace(*pattern, data, level, &cand, nullptr, true,
                               nullptr, nullptr, snap);
    }
  }
  std::vector<size_t> sizes;
  for (const auto& c : cand) {
    t->candidates_refined += c.size();
    sizes.push_back(c.size());
  }
  std::vector<NodeId> order;
  {
    ScopedSpan s(log, "match.order", id, parent);
    order = match::GreedySearchOrder(*pattern, cand, &index, opts.order);
  }
  t->est_cost += match::EstimateOrderCost(*pattern, sizes, order, &index,
                                          opts.order);
  match::SearchStats stats;
  graphql::Result<std::vector<graphql::algebra::MatchedGraph>> m = [&] {
    ScopedSpan s(log, "match.search", id, parent);
    return opts.num_threads > 0
               ? match::SearchMatchesParallel(*pattern, data, cand, order,
                                              opts.match, opts.num_threads,
                                              nullptr, &stats)
               : match::SearchMatches(*pattern, data, cand, order, opts.match,
                                      &stats);
  }();
  t->steps += stats.steps;
  if (m.ok()) t->matches += m->size();
}

/// Checks every pool entry run on graph `doc` of `data`: each match of its
/// first run is an embedding (the benchmark's own checker), and the match
/// count equals min(kCap, total) under the Figure 4.2 SQL plan. Patterns
/// with predicates run the SQL plan on their label-only form and count the
/// rows that pass the checker's predicates.
void CheckAgainstOracles(const Graph& data, int doc,
                         std::vector<PoolEntry>* pool, RunOutcome* out) {
  EdgeSet edges(data);
  graphql::rel::SqlGraphDatabase sql =
      graphql::rel::SqlGraphDatabase::FromGraph(data);
  for (size_t i = 0; i < pool->size(); ++i) {
    PoolEntry& q = (*pool)[i];
    if (!q.seen || q.doc != doc) continue;
    for (const auto& m : q.first) {
      std::string why;
      if (!IsEmbedding(q.check, data, edges, m, &why)) {
        out->Fail("query " + std::to_string(i) + ": not an embedding: " + why);
        break;
      }
    }
    auto p = graphql::algebra::GraphPattern::Parse("graph Q " + q.sql_decl);
    if (!p.ok()) {
      out->Fail("oracle pattern: " + p.status().ToString());
      continue;
    }
    const bool filtered = q.sql_decl != q.decl;
    auto rows = sql.MatchPattern(*p, filtered ? SIZE_MAX : kCap);
    if (!rows.ok()) {
      out->Fail("SQL oracle: " + rows.status().ToString());
      continue;
    }
    size_t total = 0;
    for (const auto& row : *rows) {
      std::vector<NodeId> m(q.check.labels.size());
      for (size_t u = 0; u < m.size(); ++u) {
        m[u] = row[p->node_names().at("n" + std::to_string(u))];
      }
      std::string why;
      if (!filtered || IsEmbedding(q.check, data, edges, m, &why)) {
        ++total;
      }
    }
    const size_t expected = std::min(kCap, total);
    if (q.first.size() != expected) {
      out->Fail("query " + std::to_string(i) + ": " +
                std::to_string(q.first.size()) + " matches, SQL oracle " +
                std::to_string(expected));
    }
  }
}

}  // namespace

RunOutcome RunInProcess(const Args& args) {
  const bool er = args.workload == "er_search";
  RunOutcome out;

  // ---- Set-up, several times; the last engine is kept. ----
  std::vector<PoolEntry> pool;
  std::vector<double> setup_s;
  Engine eng;
  for (int r = 0; r < kSetupRepeats; ++r) {
    eng = Engine();
    auto t0 = Clock::now();
    MakeEngine(er, args.seed, &eng);
    const double load_s = SecondsSince(t0);
    for (int k = 0; r == 0 && k < static_cast<int>(eng.data.size()); ++k) {
      for (PoolEntry& e : MakePool(er, *eng.data[k], args.seed * 64 + k,
                                   kCliquesPerGraph)) {
        e.doc = k;
        pool.push_back(std::move(e));
      }
    }
    auto t1 = Clock::now();
    for (size_t i = 0; i < pool.size(); ++i) {
      auto res = eng.ev->RunSource(QueryText(pool[i].name, pool[i]));
      if (!res.ok()) {
        out.Fail("warm-up query " + std::to_string(i) + ": " +
                 res.status().ToString());
      }
    }
    setup_s.push_back(load_s + SecondsSince(t1));
  }
  if (pool.empty()) {
    out.Fail("no queries could be drawn from the graphs");
    return out;
  }
  std::fprintf(stderr,
               "%s: pool of %zu queries over %zu graphs of %zu nodes / %zu "
               "edges\n",
               args.workload.c_str(), pool.size(), eng.data.size(),
               eng.data[0]->NumNodes(), eng.data[0]->NumEdges());

  // ---- Timed closed loop (tracing off). ----
  // The measured time is the client's time inside RunSource; checking
  // between calls is not counted, and wall time is capped at 4x.
  const double window = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<double> lat_ms;
  std::vector<size_t> lat_key;  // Pool entry of each sample.
  uint64_t request = 0;
  double busy_s = 0;
  auto wall0 = Clock::now();
  auto run_one = [&](PoolEntry* q, const std::string& text,
                     graphql::Result<graphql::exec::QueryResult>* res) {
    auto t0 = Clock::now();
    *res = eng.ev->RunSource(text);
    const double s = SecondsSince(t0);
    ++out.attempted;
    if (!res->ok()) {
      out.Fail("query failed: " + res->status().ToString());
      return s;
    }
    if ((*res)->limits.tripped) {
      out.Fail("query governed: " + (*res)->limits.message);
      return s;
    }
    std::vector<std::vector<NodeId>> got;
    for (const Graph& g : (*res)->returned) {
      std::vector<NodeId> m;
      std::string why;
      if (!MappingOf(g, q->check.labels.size(), &m, &why)) {
        out.Fail(why);
        return s;
      }
      got.push_back(std::move(m));
    }
    if (!q->seen) {
      q->seen = true;
      q->first = std::move(got);
    } else if (got != q->first) {
      out.Fail("query returned a different match list than on its first run");
    }
    return s;
  };
  // Whole passes only, so every pool entry weighs the same.
  while ((busy_s < window && SecondsSince(wall0) < 4 * window) ||
         request % pool.size() != 0) {
    PoolEntry* q = &pool[request % pool.size()];
    std::string name = er ? q->name : "C" + std::to_string(request);
    graphql::Result<graphql::exec::QueryResult> res =
        graphql::Status::Internal("unset");
    const double s = run_one(q, QueryText(name, *q), &res);
    busy_s += s;
    lat_ms.push_back(s * 1e3);
    lat_key.push_back(request % pool.size());
    ++request;
  }
  const double mean_us = Mean(lat_ms) * 1e3;
  const double peak_mib = PeakRssMiB();

  // ---- Traced run: the real call plus a per-layer replay. ----
  if (args.trace) {
    SpanLog log;
    Totals t;
    // Set-up layers, per graph: a fresh snapshot compile and LabelIndex
    // build (the engine's own are cached from the warm-up pass).
    double snap_ms = 0;
    double snap_bytes = 0;
    double index_ms = 0;
    std::vector<graphql::match::LabelIndex> index;
    std::vector<std::shared_ptr<const graphql::GraphSnapshot>> snap;
    for (const Graph* g : eng.data) {
      auto t0 = Clock::now();
      {
        ScopedSpan s(&log, "graph.snapshot_build", 0);
        graphql::GraphSnapshot built(*g);
        snap_bytes += static_cast<double>(built.bytes()) / eng.data.size();
      }
      snap_ms += SecondsSince(t0) * 1e3 / eng.data.size();
      t0 = Clock::now();
      {
        ScopedSpan s(&log, "match.label_index_build", 0);
        index.push_back(graphql::match::LabelIndex::Build(*g));
      }
      index_ms += SecondsSince(t0) * 1e3 / eng.data.size();
      snap.push_back(g->snapshot());
    }
    for (PoolEntry& q : pool) {
      q.compiled.emplace(std::move(graphql::algebra::GraphPattern::Parse(
                                       "graph " + q.name + " " + q.decl))
                             .value());
    }
    // The traced half is bounded by wall time: the replay roughly doubles
    // the work per request.
    auto twall = Clock::now();
    while (SecondsSince(twall) < window || request % pool.size() != 0) {
      PoolEntry* q = &pool[request % pool.size()];
      std::string name = er ? q->name : "C" + std::to_string(request);
      std::string text = QueryText(name, *q);
      ScopedSpan req(&log, "request", request);
      graphql::Result<graphql::exec::QueryResult> res =
          graphql::Status::Internal("unset");
      double s = 0;
      {
        ScopedSpan call(&log, "exec.run_source", request, req.id());
        s = run_one(q, text, &res);
      }
      t.run_source_us += s * 1e6;
      const bool hit = res.ok() && res->plan_source == "hit";
      t.hits += hit ? 1 : 0;
      ++t.requests;
      ReplayLayers(text, hit, q, *eng.data[q->doc], index[q->doc],
                   snap[q->doc].get(), &log, request,
                   req.id(), &t);
      ++request;
    }
    const double n = static_cast<double>(t.requests);
    std::map<std::string, double> self = SelfTimesUs(log.spans());
    double layers_us = 0;
    auto layer = [&](const char* span, const char* metric) {
      const double us = self[span] / n;
      layers_us += us;
      out.Add(&out.per_layer, metric, us, "us");
    };
    layer("lang.parse", "lang.parse_us");
    layer("sema.analyze", "sema.analyze_us");
    layer("algebra.compile", "algebra.compile_us");
    layer("match.retrieve", "match.retrieve_us");
    layer("match.refine", "match.refine_us");
    layer("match.order", "match.order_us");
    layer("match.search", "match.search_us");
    // The ledger: the layers' self times plus this gap make up the traced
    // RunSource time, which obs.trace_overhead relates to the untraced one.
    const double traced_us = t.run_source_us / n;
    out.Add(&out.per_layer, "exec.unattributed_us", traced_us - layers_us,
            "us");
    out.Add(&out.per_layer, "exec.plan_cache_hit_ratio", t.hits / n, "ratio");
    out.Add(&out.per_layer, "graph.snapshot_build_ms", snap_ms, "ms");
    out.Add(&out.per_layer, "graph.snapshot_bytes", snap_bytes, "bytes");
    out.Add(&out.per_layer, "match.label_index_build_ms", index_ms, "ms");
    out.Add(&out.per_layer, "match.candidates_retrieved",
            t.candidates_retrieved / n, "count");
    out.Add(&out.per_layer, "match.refine_keep_ratio",
            t.candidates_retrieved > 0
                ? t.candidates_refined / t.candidates_retrieved
                : 0,
            "ratio");
    out.Add(&out.per_layer, "match.order_cost_ratio",
            t.steps > 0 ? t.est_cost / t.steps : 0, "ratio");
    out.Add(&out.per_layer, "match.search_steps", t.steps / n, "count");
    out.Add(&out.per_layer, "match.matches_per_kstep",
            t.steps > 0 ? 1000 * t.matches / t.steps : 0, "ratio");
    out.Add(&out.per_layer, "obs.trace_overhead",
            traced_us / mean_us - 1, "ratio");
    WriteTrace(args, log.spans(), &out);
  }

  // ---- Oracles (after all timing). ----
  for (int k = 0; k < static_cast<int>(eng.data.size()); ++k) {
    CheckAgainstOracles(*eng.data[k], k, &pool, &out);
  }

  out.Add(&out.end_to_end, "setup_s", Median(setup_s), "s");
  // Each pool entry at its median latency (harness.h, MedianPerKey); the
  // throughput is that of one pass at those latencies.
  const std::vector<double> typical_ms = MedianPerKey(lat_ms, lat_key);
  const double typical_s = Mean(typical_ms) * 1e-3;
  out.Add(&out.end_to_end, "queries_per_s", typical_s > 0 ? 1 / typical_s : 0,
          "1/s");
  out.Add(&out.end_to_end, "query_p50_ms", Percentile(typical_ms, 0.5), "ms");
  out.Add(&out.end_to_end, "query_p95_ms", Percentile(typical_ms, 0.95),
          "ms");
  out.Add(&out.end_to_end, "peak_rss_mb", peak_mib, "MiB");
  out.samples = lat_ms.size();
  return out;
}

}  // namespace perfbench
