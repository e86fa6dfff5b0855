// Differential acceptance tests for the match pipeline, which reads the
// data graph only through its compiled GraphSnapshot (CSR + interned
// symbols + columnar attributes). Every pipeline configuration must return
// exactly the match set of the brute-force oracle, which reads the mutable
// Graph; the parallel configurations must agree bit for bit (content and
// order). A final test pins down that the inner loops count symbol-id
// probes (no std::string comparisons).

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "brute_force_matches.h"
#include "match/pipeline.h"
#include "motif/deriver.h"
#include "obs/metrics.h"
#include "workload/erdos_renyi.h"

namespace graphql::match {
namespace {

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

Graph MakeData() {
  Rng rng(424242);
  workload::ErdosRenyiOptions opts;
  opts.num_nodes = 150;
  opts.num_edges = 450;
  opts.num_labels = 4;
  return workload::MakeErdosRenyi(opts, &rng);
}

std::vector<algebra::GraphPattern> MakePatterns() {
  std::vector<algebra::GraphPattern> out;
  for (const char* source : {
           // Labeled triangle.
           R"(graph P { node a <label="L0">; node b <label="L1">;
                        node c <label="L2">;
                        edge (a, b); edge (b, c); edge (c, a); })",
           // Path with a repeated label (tests injectivity ordering).
           R"(graph P { node a <label="L0">; node b <label="L1">;
                        node c <label="L0">;
                        edge (a, b); edge (b, c); })",
           // Star with an attribute predicate on the center.
           R"(graph P { node hub <label="L2">; node s1; node s2; node s3;
                        edge (hub, s1); edge (hub, s2); edge (hub, s3); })",
       }) {
    auto g = motif::GraphFromSource(source);
    EXPECT_TRUE(g.ok()) << g.status();
    out.push_back(algebra::GraphPattern::FromGraph(*g));
  }
  return out;
}

TEST(SnapshotDifferentialTest, MatchPatternBitIdenticalAcrossConfigs) {
  Graph data = MakeData();
  LabelIndex index = LabelIndex::Build(data);
  std::vector<algebra::GraphPattern> patterns = MakePatterns();

  for (size_t pi = 0; pi < patterns.size(); ++pi) {
    const std::set<std::vector<NodeId>> want =
        oracle::BruteForceMatches(patterns[pi], data);
    EXPECT_FALSE(want.empty()) << "vacuous differential, pattern " << pi;
    for (CandidateMode mode : {CandidateMode::kLabelOnly,
                               CandidateMode::kProfile,
                               CandidateMode::kNeighborhood}) {
      for (int refine_level : {-1, 0, 2}) {
        for (bool marking : {true, false}) {
          // Every stage runs the same code at every worker count, so the
          // match lists at threads 0, 1 and 3 agree bit for bit.
          std::string serial_fingerprint;
          for (int threads : {0, 1, 3}) {
            PipelineOptions options;
            options.candidate_mode = mode;
            options.num_threads = threads;
            options.refine_level = refine_level;
            options.refine_use_marking = marking;
            options.metrics = nullptr;
            auto got = MatchPattern(patterns[pi], data, &index, options);
            ASSERT_TRUE(got.ok()) << got.status();
            std::set<std::vector<NodeId>> got_set;
            for (const algebra::MatchedGraph& m : *got) {
              got_set.insert(m.node_mapping);
            }
            const std::string config =
                "pattern " + std::to_string(pi) + " mode " +
                CandidateModeName(mode) + " threads " +
                std::to_string(threads) + " refine " +
                std::to_string(refine_level) + " marking " +
                std::to_string(marking);
            EXPECT_EQ(got->size(), got_set.size()) << "duplicates, " << config;
            EXPECT_EQ(got_set, want) << config;
            if (threads == 0) {
              serial_fingerprint = Fingerprint(*got);
            } else {
              EXPECT_EQ(serial_fingerprint, Fingerprint(*got)) << config;
            }
          }
        }
      }
    }
  }
}

TEST(SnapshotDifferentialTest, InnerLoopsCountSymbolProbes) {
  // The search's edge probes are observable through a dedicated counter.
  // Together with the code structure (SymbolId compares in
  // FindCompatibleEdge), this pins the "no std::string in the inner loop"
  // property. Tagged pattern edges are the non-trivial case: each one
  // routes through FindCompatibleEdge, which scans the CSR run.
  auto data_or = motif::GraphFromSource(R"(
    graph G {
      node a <label="A">; node b <label="B">; node c <label="B">;
      edge k1 (a, b) <knows>; edge k2 (a, c) <knows>;
      edge (b, c);
    })");
  ASSERT_TRUE(data_or.ok()) << data_or.status();
  Graph data = std::move(data_or).value();
  LabelIndex index = LabelIndex::Build(data);
  auto pattern_or = motif::GraphFromSource(R"(
    graph P { node x <label="A">; node y <label="B">;
              edge e (x, y) <knows>; })");
  ASSERT_TRUE(pattern_or.ok()) << pattern_or.status();
  algebra::GraphPattern pattern =
      algebra::GraphPattern::FromGraph(*pattern_or);

  obs::MetricsRegistry reg;
  PipelineOptions options;
  options.metrics = &reg;
  ASSERT_TRUE(MatchPattern(pattern, data, &index, options).ok());
  EXPECT_GT(reg.GetCounter("match.search.csr_edge_probes")->Value(), 0u);
}

}  // namespace
}  // namespace graphql::match
