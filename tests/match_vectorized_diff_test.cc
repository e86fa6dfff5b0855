// Differential acceptance tests for candidate selection. The bitmap and
// bytecode kernels, driven through ScanBaseList, must return exactly what
// an in-test scalar oracle (GraphPattern::NodeCompatible per candidate)
// returns, in base-list order, for predicates inside and outside the
// bytecode ISA. The retrieve stage, which picks a kernel per pattern node
// by ResolveSelectionKernel, must agree with the same oracle with and
// without a label index and at every thread count. Governed queries must
// return the same result at every thread count, and every example query must
// render identically through the full Evaluator serial and parallel.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "brute_force_matches.h"
#include "common/governor.h"
#include "exec/evaluator.h"
#include "graph/snapshot.h"
#include "io/serialize.h"
#include "match/pipeline.h"
#include "match/vectorized.h"
#include "motif/deriver.h"
#include "obs/metrics.h"
#include "workload/dblp.h"
#include "workload/erdos_renyi.h"

namespace graphql::match {
namespace {

constexpr SelectionKernel kKernels[] = {SelectionKernel::kBitmap,
                                        SelectionKernel::kBytecode};

/// The scalar oracle: one NodeCompatible probe per base-list entry.
std::vector<NodeId> ScalarScan(const algebra::GraphPattern& pattern, NodeId u,
                               const GraphSnapshot& snap, const Graph& data,
                               const std::vector<NodeId>& base) {
  std::vector<NodeId> out;
  for (NodeId v : base) {
    if (pattern.NodeCompatible(u, snap, data, v)) out.push_back(v);
  }
  return out;
}

std::vector<NodeId> AllNodes(const Graph& data) {
  std::vector<NodeId> all(data.NumNodes());
  for (size_t v = 0; v < all.size(); ++v) all[v] = static_cast<NodeId>(v);
  return all;
}

/// The base lists the retrieve stage draws from: the label index list for
/// a labelled node, every data node otherwise (LabelIndex::Build makes no
/// attribute B+-trees).
std::vector<NodeId> BaseList(const algebra::GraphPattern& pattern, NodeId u,
                             const Graph& data, const LabelIndex* index) {
  std::string_view label = pattern.graph().Label(u);
  if (index != nullptr && !label.empty()) return index->NodesWithLabel(label);
  return AllNodes(data);
}

/// A flat, order-sensitive fingerprint of a match list: any difference in
/// content OR order shows up as a string diff.
std::string Fingerprint(const std::vector<algebra::MatchedGraph>& matches) {
  std::ostringstream out;
  for (const algebra::MatchedGraph& m : matches) {
    out << "[";
    for (NodeId v : m.node_mapping) out << v << " ";
    out << "|";
    for (EdgeId e : m.edge_mapping) out << e << " ";
    out << "]";
  }
  return out.str();
}

/// Zipf-labeled random graph with numeric and (sparse) string attributes,
/// so label reqs, string-symbol columns, and comparison predicates all
/// have real columns to run against.
Graph MakeData() {
  Rng rng(424242);
  workload::ErdosRenyiOptions opts;
  opts.num_nodes = 150;
  opts.num_edges = 450;
  opts.num_labels = 4;
  Graph data = workload::MakeErdosRenyi(opts, &rng);
  for (NodeId v = 0; v < static_cast<NodeId>(data.NumNodes()); ++v) {
    data.node(v).attrs.Set("score", Value(int64_t{(v * 7) % 50}));
    if (v % 3 == 0) {
      data.node(v).attrs.Set("tier", Value(v % 6 == 0 ? "gold" : "silver"));
    }
  }
  return data;
}

std::vector<algebra::GraphPattern> MakePatterns() {
  std::vector<algebra::GraphPattern> out;
  for (const char* source : {
           // Labeled triangle (structural reqs only).
           R"(graph P { node a <label="L0">; node b <label="L1">;
                        node c <label="L2">;
                        edge (a, b); edge (b, c); edge (c, a); })",
           // Path with a repeated label (tests injectivity ordering).
           R"(graph P { node a <label="L0">; node b <label="L1">;
                        node c <label="L0">;
                        edge (a, b); edge (b, c); })",
           // Comparison predicate inside the bytecode ISA.
           R"(graph P { node a <label="L0"> where score > 10;
                        node b where score <= 40; edge (a, b); })",
           // String equality (compiles to an interned-symbol compare);
           // absent attributes must reject on every kernel.
           R"(graph P { node a where tier == "gold"; node b;
                        edge (a, b); })",
           // Arithmetic predicate outside the ISA: forces the AST
           // interpreter fallback on the bytecode/bitmap kernels.
           R"(graph P { node a where score + 0 > 10; node b <label="L1">;
                        edge (a, b); })",
       }) {
    auto p = algebra::GraphPattern::Parse(source);
    EXPECT_TRUE(p.ok()) << p.status();
    out.push_back(std::move(p).value());
  }
  return out;
}

TEST(VectorizedDifferentialTest, KernelsBitIdenticalAcrossConfigs) {
  Graph data = MakeData();
  LabelIndex index = LabelIndex::Build(data);
  auto snap = data.snapshot();
  std::vector<NodeId> all = AllNodes(data);
  std::vector<NodeId> every_third;
  for (NodeId v : all) {
    if (v % 3 == 1) every_third.push_back(v);
  }
  std::vector<NodeId> reversed(all.rbegin(), all.rend());
  std::vector<algebra::GraphPattern> patterns = MakePatterns();
  size_t hits = 0;
  for (size_t pi = 0; pi < patterns.size(); ++pi) {
    const algebra::GraphPattern& p = patterns[pi];
    SelectionPlan plan(p, *snap, /*metrics=*/nullptr);
    for (NodeId u = 0; u < static_cast<NodeId>(p.graph().NumNodes()); ++u) {
      // Dense, sparse, label-indexed and descending base lists: each
      // kernel must keep exactly the oracle's survivors in base order.
      for (const std::vector<NodeId>& base :
           {all, every_third, reversed, BaseList(p, u, data, &index)}) {
        std::vector<NodeId> want = ScalarScan(p, u, *snap, data, base);
        hits += want.size();
        for (SelectionKernel kernel : kKernels) {
          algebra::PatternScratch scratch;
          PackedBits bits(2, snap->num_nodes());
          std::vector<NodeId> got;
          ScanBaseList(plan, u, data, base, kernel, &scratch, &bits, &got);
          EXPECT_EQ(want, got) << "pattern " << pi << " node " << u
                               << " base " << base.size() << " kernel "
                               << SelectionKernelName(kernel);
        }
      }
    }
  }
  EXPECT_GT(hits, 0u) << "vacuous differential";
}

TEST(VectorizedDifferentialTest, AutomaticKernelRuleBoundary) {
  // A wildcard node (dense base) always gets the bitmap kernel.
  EXPECT_EQ(ResolveSelectionKernel(1, 1000, /*dense_base=*/true),
            SelectionKernel::kBitmap);
  // Otherwise the bitmap kernel needs base_size * 4 >= num_nodes.
  EXPECT_EQ(ResolveSelectionKernel(250, 1000, false), SelectionKernel::kBitmap);
  EXPECT_EQ(ResolveSelectionKernel(1000, 1000, false),
            SelectionKernel::kBitmap);
  EXPECT_EQ(ResolveSelectionKernel(249, 1000, false),
            SelectionKernel::kBytecode);
  EXPECT_EQ(ResolveSelectionKernel(0, 1000, false), SelectionKernel::kBytecode);
  EXPECT_EQ(ResolveSelectionKernel(0, 0, false), SelectionKernel::kBitmap);
}

TEST(VectorizedDifferentialTest, RetrieveCandidatesIdenticalAcrossKernels) {
  // The retrieve stage mixes kernels per pattern node; label-only retrieval
  // must equal the scalar oracle over the same base lists, and every mode
  // must be identical at every thread count.
  Graph data = MakeData();
  LabelIndex index = LabelIndex::Build(data);
  auto snap = data.snapshot();
  for (const algebra::GraphPattern& p : MakePatterns()) {
    std::vector<std::vector<NodeId>> want;
    for (NodeId u = 0; u < static_cast<NodeId>(p.graph().NumNodes()); ++u) {
      want.push_back(
          ScalarScan(p, u, *snap, data, BaseList(p, u, data, &index)));
    }
    for (CandidateMode mode : {CandidateMode::kLabelOnly,
                               CandidateMode::kProfile,
                               CandidateMode::kNeighborhood}) {
      PipelineOptions options;
      options.candidate_mode = mode;
      options.metrics = nullptr;
      options.num_threads = 0;
      auto serial = RetrieveCandidates(p, data, &index, options);
      if (mode == CandidateMode::kLabelOnly) {
        EXPECT_EQ(want, serial);
      }
      for (int threads : {1, 3}) {
        options.num_threads = threads;
        EXPECT_EQ(serial,
                  RetrieveCandidates(p, data, &index, options, nullptr,
                                     snap.get()))
            << CandidateModeName(mode) << " threads " << threads;
      }
    }
  }
}

TEST(VectorizedDifferentialTest, FullScanPathIdenticalAcrossKernels) {
  // index == nullptr: every pattern node scans all data nodes (a dense
  // base, so the bitmap kernel). Candidates must equal the scalar oracle
  // and the matches must equal brute force.
  Graph data = MakeData();
  auto snap = data.snapshot();
  std::vector<algebra::GraphPattern> patterns = MakePatterns();
  for (size_t pi = 0; pi < patterns.size(); ++pi) {
    const algebra::GraphPattern& p = patterns[pi];
    PipelineOptions options;
    options.metrics = nullptr;
    std::vector<std::vector<NodeId>> want;
    for (NodeId u = 0; u < static_cast<NodeId>(p.graph().NumNodes()); ++u) {
      want.push_back(ScalarScan(p, u, *snap, data,
                                BaseList(p, u, data, /*index=*/nullptr)));
    }
    EXPECT_EQ(want, RetrieveCandidates(p, data, nullptr, options))
        << "pattern " << pi;
    auto got = MatchPattern(p, data, nullptr, options);
    ASSERT_TRUE(got.ok()) << got.status();
    std::set<std::vector<NodeId>> got_set;
    for (const algebra::MatchedGraph& m : *got) got_set.insert(m.node_mapping);
    EXPECT_EQ(oracle::BruteForceMatches(p, data), got_set) << "pattern " << pi;
  }
}

TEST(VectorizedDifferentialTest, GovernedResultsBitIdenticalAcrossThreadCounts) {
  // Retrieve charges its probes in pattern-node order, refine runs inline
  // and charges its pairs in (u, v) order on the calling thread, and the
  // search settles a step budget, the match cap and first-match mode on
  // the root-order prefix, so a governed query returns the same matches,
  // trips with the same kind at the same point and consumes the same steps
  // at every worker count. The serial (0-thread) run is the reference.
  struct Limits {
    uint64_t max_steps;
    size_t max_matches;
    bool exhaustive;
  };
  const Limits kLimits[] = {{50, SIZE_MAX, true},  {400, SIZE_MAX, true},
                            {5000, SIZE_MAX, true}, {0, 7, true},
                            {0, SIZE_MAX, false},   {5000, 7, true}};
  Graph data = MakeData();
  LabelIndex index = LabelIndex::Build(data);
  ThreadPool pool(3);
  std::vector<algebra::GraphPattern> patterns = MakePatterns();
  int search_trips = 0;
  int truncations = 0;
  const int kThreadCounts[] = {0, 1, 2, 4};
  for (int refine_level : {0, -1}) {
    for (size_t pi = 0; pi < patterns.size(); ++pi) {
      for (const Limits& limits : kLimits) {
        std::string want;
        TripKind want_kind = TripKind::kNone;
        GovernPoint want_point = GovernPoint::kOther;
        uint64_t want_steps = 0;
        for (int threads : kThreadCounts) {
          ResourceGovernor governor(
              GovernorLimits{.max_steps = limits.max_steps});
          PipelineOptions options;
          options.metrics = nullptr;
          options.governor = &governor;
          options.refine_level = refine_level;
          options.num_threads = threads;
          options.pool = &pool;
          options.match.max_matches = limits.max_matches;
          options.match.exhaustive = limits.exhaustive;
          PipelineStats stats;
          auto got = MatchPattern(patterns[pi], data, &index, options, &stats);
          ASSERT_TRUE(got.ok()) << got.status();
          const std::string where =
              "refine " + std::to_string(refine_level) + " pattern " +
              std::to_string(pi) + " max_steps " +
              std::to_string(limits.max_steps) + " max_matches " +
              std::to_string(limits.max_matches) + " exhaustive " +
              std::to_string(limits.exhaustive) + " threads " +
              std::to_string(threads);
          if (threads == 0) {
            want = Fingerprint(*got);
            want_kind = governor.trip_kind();
            want_point = governor.trip_point();
            want_steps = governor.steps_used();
            search_trips += want_point == GovernPoint::kSearch;
            truncations += stats.search.truncated;
            continue;
          }
          EXPECT_EQ(want, Fingerprint(*got)) << where;
          EXPECT_EQ(want_kind, governor.trip_kind()) << where;
          EXPECT_EQ(want_point, governor.trip_point()) << where;
          EXPECT_EQ(want_steps, governor.steps_used()) << where;
        }
      }
    }
  }
  // Non-vacuous: budgets cut some searches and the cap others.
  EXPECT_GT(search_trips, 0);
  EXPECT_GT(truncations, 0);
}

TEST(VectorizedDifferentialTest, BytecodeCoverageCounters) {
  Graph data = MakeData();
  LabelIndex index = LabelIndex::Build(data);

  // Comparison + string-equality predicates are inside the ISA: every
  // pushed conjunct compiles, none falls back.
  auto covered = algebra::GraphPattern::Parse(
      R"(graph P { node a <label="L0"> where score > 10;
                   node b where tier == "gold"; edge (a, b); })");
  ASSERT_TRUE(covered.ok()) << covered.status();
  obs::MetricsRegistry covered_reg;
  PipelineOptions options;
  options.metrics = &covered_reg;
  ASSERT_TRUE(MatchPattern(*covered, data, &index, options).ok());
  EXPECT_GT(covered_reg.GetCounter("match.bytecode.pred_compiled")->Value(),
            0u);
  EXPECT_EQ(covered_reg.GetCounter("match.bytecode.pred_fallback")->Value(),
            0u);

  // Arithmetic is outside the ISA: the conjunct falls back to the AST
  // interpreter, observable through the fallback counter.
  auto fallback = algebra::GraphPattern::Parse(
      R"(graph P { node a where score + 0 > 10; node b; edge (a, b); })");
  ASSERT_TRUE(fallback.ok()) << fallback.status();
  obs::MetricsRegistry fallback_reg;
  options.metrics = &fallback_reg;
  ASSERT_TRUE(MatchPattern(*fallback, data, &index, options).ok());
  EXPECT_GT(fallback_reg.GetCounter("match.bytecode.pred_fallback")->Value(),
            0u);

}

/// Synthetic documents that give every example query real matches.
void RegisterExampleDocs(exec::DocumentRegistry* docs) {
  {
    Rng rng(7);
    workload::DblpOptions opts;
    opts.num_papers = 12;
    docs->Register("DBLP", workload::MakeDblpCollection(opts, &rng));
  }
  {
    Rng rng(9);
    workload::ErdosRenyiOptions opts;
    opts.num_nodes = 12;
    opts.num_edges = 18;
    opts.num_labels = 2;
    GraphCollection network("Network");
    network.Add(workload::MakeErdosRenyi(opts, &rng));
    docs->Register("Network", std::move(network));
  }
  {
    auto g = motif::GraphFromSource(R"(
      graph Catalog {
        node a <item weight=5>; node b <item weight=3>;
        node c <item weight=12>; node d <item weight=1>;
        edge (a, b); edge (a, c); edge (b, d); edge (c, d);
      })");
    ASSERT_TRUE(g.ok()) << g.status();
    GraphCollection c("Catalog");
    c.Add(std::move(g).value());
    docs->Register("Catalog", std::move(c));
  }
  {
    auto g = motif::GraphFromSource(R"(
      graph Shipping {
        node oslo <port country="NO">; node bergen <port country="NO">;
        node hamburg <port country="DE">; node rotterdam <port country="NL">;
        edge leg1 (oslo, hamburg); edge leg2 (hamburg, rotterdam);
        edge leg3 (bergen, oslo);
      })");
    ASSERT_TRUE(g.ok()) << g.status();
    GraphCollection c("Shipping");
    c.Add(std::move(g).value());
    docs->Register("Shipping", std::move(c));
  }
  {
    auto g = motif::GraphFromSource(R"(
      graph Topology {
        node r1 <router name="r1">; node r2 <router name="r2">;
        node r3 <router name="r3">;
        edge (r1, r2) <capacity=400>; edge (r2, r3) <capacity=40>;
        edge (r3, r1) <capacity=1000>;
      })");
    ASSERT_TRUE(g.ok()) << g.status();
    GraphCollection c("Topology");
    c.Add(std::move(g).value());
    docs->Register("Topology", std::move(c));
  }
}

TEST(VectorizedDifferentialTest, ExampleQueriesBitIdenticalAcrossThreads) {
  namespace fs = std::filesystem;
  fs::path dir(GQL_EXAMPLE_QUERIES_DIR);
  ASSERT_TRUE(fs::is_directory(dir)) << dir;
  size_t ran = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".gql") continue;
    std::ifstream file(entry.path());
    ASSERT_TRUE(file.good()) << entry.path();
    std::ostringstream source;
    source << file.rdbuf();

    std::string want;
    for (int threads : {0, 1, 3}) {
      exec::DocumentRegistry docs;
      RegisterExampleDocs(&docs);
      exec::Evaluator evaluator(&docs);
      evaluator.mutable_match_options()->num_threads = threads;
      evaluator.mutable_match_options()->metrics = nullptr;
      auto result = evaluator.RunSource(source.str());
      ASSERT_TRUE(result.ok()) << entry.path() << ": " << result.status();
      std::ostringstream text;
      text << io::WriteCollectionText(result->returned);
      std::vector<std::string> names;
      for (const auto& [name, graph] : result->variables) {
        names.push_back(name);
      }
      std::sort(names.begin(), names.end());
      for (const std::string& name : names) {
        text << "--- " << name << "\n"
             << io::WriteGraphText(result->variables.at(name)) << "\n";
      }
      if (threads == 0) {
        want = text.str();
      } else {
        EXPECT_EQ(want, text.str())
            << entry.path() << " threads " << threads;
      }
    }
    ++ran;
  }
  EXPECT_GE(ran, 5u) << "example queries missing from " << dir;
}

}  // namespace
}  // namespace graphql::match
