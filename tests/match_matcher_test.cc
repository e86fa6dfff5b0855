#include "match/matcher.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "brute_force_matches.h"
#include "common/rng.h"
#include "lang/parser.h"
#include "motif/deriver.h"
#include "obs/metrics.h"

namespace graphql::match {
namespace {

Graph Sample() {
  auto g = motif::GraphFromSource(R"(
    graph G {
      node a1 <label="A">; node a2 <label="A">;
      node b1 <label="B">; node b2 <label="B">;
      node c1 <label="C">; node c2 <label="C">;
      edge (a1, b1); edge (a1, c2); edge (b1, c2);
      edge (b1, b2); edge (b2, c2); edge (b2, a2); edge (c1, b1);
    })");
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

Result<std::vector<algebra::MatchedGraph>> RunBasic(
    const algebra::GraphPattern& p, const Graph& g,
    MatchOptions options = {}) {
  auto cand = ScanCandidates(p, g);
  return SearchMatches(p, g, cand, DeclarationOrder(p), options);
}

TEST(MatcherTest, TriangleHasExactlyOneMatch) {
  Graph g = Sample();
  auto p = algebra::GraphPattern::Parse(R"(
    graph P {
      node u1 <label="A">; node u2 <label="B">; node u3 <label="C">;
      edge (u1, u2); edge (u2, u3); edge (u3, u1);
    })");
  ASSERT_TRUE(p.ok());
  auto matches = RunBasic(*p, g);
  ASSERT_TRUE(matches.ok()) << matches.status();
  ASSERT_EQ(matches->size(), 1u);
  const algebra::MatchedGraph& m = (*matches)[0];
  EXPECT_EQ(m.node_mapping[0], g.FindNode("a1"));
  EXPECT_EQ(m.node_mapping[1], g.FindNode("b1"));
  EXPECT_EQ(m.node_mapping[2], g.FindNode("c2"));
  EXPECT_TRUE(m.Verify());
  // Edge mapping resolved to actual data edges.
  for (EdgeId e : m.edge_mapping) EXPECT_NE(e, kInvalidEdge);
}

TEST(MatcherTest, MappingIsInjective) {
  // Two wildcard nodes joined by an edge: matches must never map both
  // pattern nodes to the same data node.
  Graph g = Sample();
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u; node v; edge (u, v); }");
  ASSERT_TRUE(p.ok());
  auto matches = RunBasic(*p, g);
  ASSERT_TRUE(matches.ok());
  // 7 undirected edges, each matched in both directions.
  EXPECT_EQ(matches->size(), 14u);
  for (const auto& m : *matches) {
    EXPECT_NE(m.node_mapping[0], m.node_mapping[1]);
  }
}

TEST(MatcherTest, NonExhaustiveStopsAtFirst) {
  Graph g = Sample();
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u; node v; edge (u, v); }");
  ASSERT_TRUE(p.ok());
  MatchOptions options;
  options.exhaustive = false;
  auto matches = RunBasic(*p, g, options);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 1u);
}

TEST(MatcherTest, MaxMatchesTruncates) {
  Graph g = Sample();
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u; node v; edge (u, v); }");
  ASSERT_TRUE(p.ok());
  MatchOptions options;
  options.max_matches = 5;
  SearchStats stats;
  auto cand = ScanCandidates(*p, g);
  auto matches =
      SearchMatches(*p, g, cand, DeclarationOrder(*p), options, &stats);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 5u);
  EXPECT_TRUE(stats.truncated);
}

TEST(MatcherTest, StepBudgetStopsSearch) {
  Graph g = Sample();
  auto p = algebra::GraphPattern::Parse("graph P { node u; node v; }");
  ASSERT_TRUE(p.ok());
  auto cand = ScanCandidates(*p, g);
  ThreadPool pool(2);
  for (int threads : {0, 3}) {
    ResourceGovernor gov(GovernorLimits{.max_steps = 3});
    MatchOptions options;
    options.governor = &gov;
    SearchStats stats;
    auto matches = SearchMatchesParallel(*p, g, cand, DeclarationOrder(*p),
                                         options, threads, &pool, &stats);
    ASSERT_TRUE(matches.ok()) << matches.status();
    // Root a1, then v = a2 and v = b1 complete two matches; the fourth
    // candidate try crosses the budget of three.
    EXPECT_EQ(matches->size(), 2u) << "threads " << threads;
    EXPECT_EQ(stats.steps, 4u) << "threads " << threads;
    EXPECT_TRUE(stats.governor_tripped) << "threads " << threads;
    EXPECT_EQ(gov.trip_kind(), TripKind::kSteps) << "threads " << threads;
    EXPECT_EQ(gov.trip_point(), GovernPoint::kSearch) << "threads " << threads;
    EXPECT_EQ(gov.steps_used(), 4u) << "threads " << threads;
  }
}

TEST(MatcherTest, StepsCountTheTriedNeighbours) {
  Graph g = Sample();
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u; node v; edge (u, v); }");
  ASSERT_TRUE(p.ok());
  auto cand = ScanCandidates(*p, g);
  ThreadPool pool(2);
  for (int threads : {0, 3}) {
    SearchStats stats;
    obs::MetricsRegistry metrics;
    auto matches = SearchMatchesParallel(*p, g, cand, DeclarationOrder(*p),
                                         {}, threads, &pool, &stats, &metrics);
    ASSERT_TRUE(matches.ok()) << matches.status();
    EXPECT_EQ(matches->size(), 14u) << "threads " << threads;
    // One step per root (6 nodes) plus one per neighbour of the mapped u
    // (14 adjacency entries), not one per unused node of Phi(v) (30).
    EXPECT_EQ(stats.steps, 20u) << "threads " << threads;
    EXPECT_EQ(metrics.GetCounter("match.search.adjacency_entries")->Value(),
              14u)
        << "threads " << threads;
  }
  // The triangle walks the pivot with the fewest neighbours: root a1, b1
  // from N(a1), then c2 from N(a1) (2 entries) rather than N(b1) (4);
  // root a2, b2 from N(a2), then nothing C in N(a2).
  auto tri = algebra::GraphPattern::Parse(R"(
    graph P {
      node u1 <label="A">; node u2 <label="B">; node u3 <label="C">;
      edge (u1, u2); edge (u2, u3); edge (u3, u1);
    })");
  ASSERT_TRUE(tri.ok());
  for (int threads : {0, 3}) {
    SearchStats stats;
    auto matches =
        SearchMatchesParallel(*tri, g, ScanCandidates(*tri, g),
                              DeclarationOrder(*tri), {}, threads, &pool,
                              &stats);
    ASSERT_TRUE(matches.ok()) << matches.status();
    EXPECT_EQ(matches->size(), 1u) << "threads " << threads;
    EXPECT_EQ(stats.steps, 5u) << "threads " << threads;
  }
}

TEST(MatcherTest, DisconnectedPatternIsCrossProduct) {
  Graph g = Sample();
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u <label=\"A\">; node v <label=\"C\">; }");
  ASSERT_TRUE(p.ok());
  auto matches = RunBasic(*p, g);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 4u);  // 2 As x 2 Cs.
}

TEST(MatcherTest, EmptyCandidateSetMeansNoMatch) {
  Graph g = Sample();
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u <label=\"Z\">; }");
  ASSERT_TRUE(p.ok());
  auto matches = RunBasic(*p, g);
  ASSERT_TRUE(matches.ok());
  EXPECT_TRUE(matches->empty());
}

TEST(MatcherTest, GlobalPredicateFiltersAtEnd) {
  Graph g = Sample();
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u; node v; edge (u, v); } "
      "where u.label == v.label");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->has_global_pred());
  auto matches = RunBasic(*p, g);
  ASSERT_TRUE(matches.ok());
  // Only the B1-B2 edge connects equal labels (both directions).
  EXPECT_EQ(matches->size(), 2u);
  for (const auto& m : *matches) {
    EXPECT_EQ(g.Label(m.node_mapping[0]), g.Label(m.node_mapping[1]));
  }
}

TEST(MatcherTest, SelfLoopPattern) {
  Graph g;
  AttrTuple a;
  a.Set("label", Value("A"));
  NodeId x = g.AddNode("x", a);
  NodeId y = g.AddNode("y", a);
  g.AddEdge(x, x);
  g.AddEdge(x, y);
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u <label=\"A\">; edge (u, u); }");
  ASSERT_TRUE(p.ok());
  auto matches = RunBasic(*p, g);
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 1u);
  EXPECT_EQ((*matches)[0].node_mapping[0], x);
}

TEST(MatcherTest, DirectedEdgesRespectDirection) {
  Graph g("D", /*directed=*/true);
  NodeId a = g.AddNode("a");
  g.SetLabel(a, "A");
  NodeId b = g.AddNode("b");
  g.SetLabel(b, "B");
  g.AddEdge(a, b);

  auto decl_fwd = lang::Parser::ParseGraph(
      "graph P { node u <label=\"A\">; node v <label=\"B\">; edge (u, v); }");
  ASSERT_TRUE(decl_fwd.ok());
  // Build a directed pattern graph manually (parser motifs default to
  // undirected; FromGraph preserves directedness).
  Graph pf("P", /*directed=*/true);
  AttrTuple la;
  la.Set("label", Value("A"));
  AttrTuple lb;
  lb.Set("label", Value("B"));
  NodeId u = pf.AddNode("u", la);
  NodeId v = pf.AddNode("v", lb);
  pf.AddEdge(u, v);
  algebra::GraphPattern fwd = algebra::GraphPattern::FromGraph(pf);
  auto m_fwd = RunBasic(fwd, g);
  ASSERT_TRUE(m_fwd.ok());
  EXPECT_EQ(m_fwd->size(), 1u);

  Graph pr("P", /*directed=*/true);
  u = pr.AddNode("u", la);
  v = pr.AddNode("v", lb);
  pr.AddEdge(v, u);  // Reversed: B -> A does not exist in the data.
  algebra::GraphPattern rev = algebra::GraphPattern::FromGraph(pr);
  auto m_rev = RunBasic(rev, g);
  ASSERT_TRUE(m_rev.ok());
  EXPECT_TRUE(m_rev->empty());
}

TEST(MatcherTest, ParallelEdgeWithPredicatesPicksCompatibleOne) {
  Graph g;
  NodeId x = g.AddNode("x");
  NodeId y = g.AddNode("y");
  AttrTuple w1;
  w1.Set("w", Value(int64_t{1}));
  AttrTuple w9;
  w9.Set("w", Value(int64_t{9}));
  g.AddEdge(x, y, "", w1);
  g.AddEdge(x, y, "", w9);
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u; node v; edge e (u, v) where w > 5; }");
  ASSERT_TRUE(p.ok());
  auto matches = RunBasic(*p, g);
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 2u);  // Both orientations.
  for (const auto& m : *matches) {
    ASSERT_EQ(m.edge_mapping.size(), 1u);
    EXPECT_EQ(g.edge(m.edge_mapping[0]).attrs.GetOrNull("w"),
              Value(int64_t{9}));
  }
}

TEST(MatcherTest, EmptyPatternYieldsNothing) {
  Graph g = Sample();
  auto p = algebra::GraphPattern::Parse("graph P { }");
  ASSERT_TRUE(p.ok());
  auto matches = RunBasic(*p, g);
  ASSERT_TRUE(matches.ok());
  EXPECT_TRUE(matches->empty());
}

TEST(MatcherTest, BadOrderIsRejected) {
  Graph g = Sample();
  auto p = algebra::GraphPattern::Parse("graph P { node u; node v; }");
  ASSERT_TRUE(p.ok());
  auto cand = ScanCandidates(*p, g);
  auto r = SearchMatches(*p, g, cand, {0});  // Too short.
  EXPECT_FALSE(r.ok());
}

/// True when every pattern edge has a compatible data edge under the node
/// mapping `m`; the brute-force oracle checks edge existence only.
bool EdgesCompatible(const algebra::GraphPattern& p, const Graph& g,
                     const std::vector<NodeId>& m) {
  const Graph& pg = p.graph();
  for (EdgeId pe = 0; pe < pg.NumEdges(); ++pe) {
    const NodeId s = m[pg.edge(pe).src];
    const NodeId d = m[pg.edge(pe).dst];
    bool found = false;
    for (EdgeId de = 0; de < g.NumEdges() && !found; ++de) {
      const Graph::Edge& e = g.edge(de);
      const bool ends = (e.src == s && e.dst == d) ||
                        (!g.directed() && e.src == d && e.dst == s);
      found = ends && p.EdgeCompatible(pe, g, de);
    }
    if (!found) return false;
  }
  return true;
}

/// The brute-force matches in the order the DFS emits them: lexicographic
/// over the search order, each position ranked by its data node's index in
/// Phi(order[pos]) (ascending node id when Phi is ascending).
std::vector<std::vector<NodeId>> OracleInSearchOrder(
    const algebra::GraphPattern& p, const Graph& g,
    const std::vector<std::vector<NodeId>>& cand,
    const std::vector<NodeId>& order) {
  auto key = [&](const std::vector<NodeId>& m) {
    std::vector<size_t> k;
    for (NodeId u : order) {
      k.push_back(static_cast<size_t>(
          std::find(cand[u].begin(), cand[u].end(), m[u]) - cand[u].begin()));
    }
    return k;
  };
  std::vector<std::vector<NodeId>> want;
  for (const std::vector<NodeId>& m : oracle::BruteForceMatches(p, g)) {
    if (EdgesCompatible(p, g, m)) want.push_back(m);
  }
  std::sort(want.begin(), want.end(),
            [&](const auto& a, const auto& b) { return key(a) < key(b); });
  return want;
}

/// Searches at 0 and 3 workers and expects the oracle's list in order;
/// returns the adjacency entries the neighbour walk scanned.
uint64_t ExpectOracleOrder(const algebra::GraphPattern& p, const Graph& g,
                           const std::vector<std::vector<NodeId>>& cand,
                           const std::vector<NodeId>& order) {
  const std::vector<std::vector<NodeId>> want =
      OracleInSearchOrder(p, g, cand, order);
  ThreadPool pool(2);
  uint64_t entries = 0;
  for (int threads : {0, 3}) {
    obs::MetricsRegistry metrics;
    auto got = SearchMatchesParallel(p, g, cand, order, {}, threads, &pool,
                                     nullptr, &metrics);
    EXPECT_TRUE(got.ok()) << got.status();
    if (!got.ok()) return 0;
    std::vector<std::vector<NodeId>> nodes;
    for (const algebra::MatchedGraph& m : *got) {
      nodes.push_back(m.node_mapping);
      for (EdgeId pe = 0; pe < p.graph().NumEdges(); ++pe) {
        EXPECT_TRUE(p.EdgeCompatible(pe, g, m.edge_mapping[pe]));
      }
    }
    EXPECT_EQ(nodes, want) << "threads " << threads;
    entries = metrics.GetCounter("match.search.adjacency_entries")->Value();
  }
  return entries;
}

/// Every order of a small pattern: the neighbour walk starts from each
/// pattern node and from each choice of pivot.
std::vector<std::vector<NodeId>> AllOrders(const algebra::GraphPattern& p) {
  std::vector<NodeId> order = DeclarationOrder(p);
  std::vector<std::vector<NodeId>> out;
  do {
    out.push_back(order);
  } while (std::next_permutation(order.begin(), order.end()));
  return out;
}

TEST(MatcherTest, NeighbourExtensionRespectsDirection) {
  // Pairs joined one way, the other way, or both: a pivot's neighbour run
  // lists both directions, so Check must reject the wrong one.
  Graph g("D", /*directed=*/true);
  Rng rng(41);
  for (int i = 0; i < 14; ++i) {
    NodeId v = g.AddNode("n" + std::to_string(i));
    g.SetLabel(v, rng.NextBounded(2) == 0 ? "A" : "B");
  }
  for (NodeId a = 0; a < 14; ++a) {
    for (NodeId b = a + 1; b < 14; ++b) {
      switch (rng.NextBounded(6)) {
        case 0: g.AddEdge(a, b); break;
        case 1: g.AddEdge(b, a); break;
        case 2: g.AddEdge(a, b); g.AddEdge(b, a); break;
        default: break;
      }
    }
  }
  Graph pg("P", /*directed=*/true);
  AttrTuple la;
  la.Set("label", Value("A"));
  NodeId u = pg.AddNode("u", la);
  NodeId v = pg.AddNode("v");
  NodeId w = pg.AddNode("w");
  pg.AddEdge(u, v);
  pg.AddEdge(v, w);
  pg.AddEdge(w, u);
  pg.AddEdge(u, w);
  algebra::GraphPattern p = algebra::GraphPattern::FromGraph(pg);
  auto cand = ScanCandidates(p, g);
  ASSERT_FALSE(OracleInSearchOrder(p, g, cand, DeclarationOrder(p)).empty());
  for (const std::vector<NodeId>& order : AllOrders(p)) {
    EXPECT_GT(ExpectOracleOrder(p, g, cand, order), 0u);
  }
}

TEST(MatcherTest, NeighbourExtensionFindsCompatibleParallelEdges) {
  // Parallel edges with different tags and weights: the neighbour run
  // lists each neighbour once, and FindCompatibleEdge still has to pick
  // the edge that passes the tag and the predicate.
  Graph g;
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    NodeId v = g.AddNode("n" + std::to_string(i));
    g.SetLabel(v, i % 3 == 0 ? "A" : "B");
  }
  for (NodeId a = 0; a < 10; ++a) {
    for (NodeId b = a + 1; b < 10; ++b) {
      if (rng.NextBounded(3) != 0) continue;
      const uint64_t copies = 1 + rng.NextBounded(3);
      for (uint64_t c = 0; c < copies; ++c) {
        AttrTuple t(rng.NextBounded(2) == 0 ? "knows" : "likes");
        t.Set("w", Value(static_cast<int64_t>(rng.NextBounded(10))));
        g.AddEdge(a, b, "", t);
      }
    }
  }
  auto p = algebra::GraphPattern::Parse(R"(
    graph P {
      node a <label="A">; node b; node c;
      edge e (a, b) <knows> where w > 4; edge (b, c) <likes>; edge (c, a);
    })");
  ASSERT_TRUE(p.ok()) << p.status();
  auto cand = ScanCandidates(*p, g);
  ASSERT_FALSE(OracleInSearchOrder(*p, g, cand, DeclarationOrder(*p)).empty());
  for (const std::vector<NodeId>& order : AllOrders(*p)) {
    EXPECT_GT(ExpectOracleOrder(*p, g, cand, order), 0u);
  }
}

TEST(MatcherTest, SelfLoopIsNotAPivot) {
  Graph g;
  for (int i = 0; i < 6; ++i) g.AddNode("n" + std::to_string(i));
  g.AddEdge(0, 0);
  g.AddEdge(2, 2);
  g.AddEdge(3, 3);
  g.AddEdge(0, 2);
  g.AddEdge(2, 4);
  g.AddEdge(3, 5);
  g.AddEdge(0, 3);
  // u's self-loop alone gives no pivot: u scans Phi(u) wherever it sits.
  auto loop = algebra::GraphPattern::Parse("graph P { node u; edge (u, u); }");
  ASSERT_TRUE(loop.ok());
  EXPECT_EQ(ExpectOracleOrder(*loop, g, ScanCandidates(*loop, g),
                              DeclarationOrder(*loop)),
            0u);
  // With an edge to v as well, v is u's pivot (or u is v's).
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u; node v; edge (u, u); edge (u, v); edge (v, v); }");
  ASSERT_TRUE(p.ok());
  auto cand = ScanCandidates(*p, g);
  for (const std::vector<NodeId>& order : AllOrders(*p)) {
    EXPECT_GT(ExpectOracleOrder(*p, g, cand, order), 0u);
  }
}

TEST(MatcherTest, DisconnectedComponentScansPhi) {
  Graph g = Sample();
  // The second component's first node has no mapped neighbour and scans
  // Phi; its partner is walked through that node's neighbours.
  auto p = algebra::GraphPattern::Parse(R"(
    graph P {
      node a <label="A">; node b <label="B">; node c <label="C">; node d;
      edge (a, b); edge (c, d);
    })");
  ASSERT_TRUE(p.ok());
  auto cand = ScanCandidates(*p, g);
  for (const std::vector<NodeId>& order : AllOrders(*p)) {
    EXPECT_GT(ExpectOracleOrder(*p, g, cand, order), 0u);
  }
  // No edge at all: a pure cross product of Phi scans.
  auto bare = algebra::GraphPattern::Parse(
      "graph P { node a <label=\"A\">; node c <label=\"C\">; }");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(ExpectOracleOrder(*bare, g, ScanCandidates(*bare, g),
                              DeclarationOrder(*bare)),
            0u);
}

TEST(MatcherTest, UnsortedPhiKeepsItsOrder) {
  // A hand-built Phi that is not ascending is scanned in its own order:
  // the neighbour walk would emit in node-id order instead.
  Graph g = Sample();
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u; node v; node w; edge (u, v); edge (v, w); }");
  ASSERT_TRUE(p.ok());
  auto cand = ScanCandidates(*p, g);
  for (std::vector<NodeId>& phi : cand) std::reverse(phi.begin(), phi.end());
  for (const std::vector<NodeId>& order : AllOrders(*p)) {
    EXPECT_EQ(ExpectOracleOrder(*p, g, cand, order), 0u);
  }
  // Only v's Phi unsorted: u and w still walk their pivots' neighbours.
  cand = ScanCandidates(*p, g);
  std::reverse(cand[1].begin(), cand[1].end());
  EXPECT_GT(ExpectOracleOrder(*p, g, cand, {0, 1, 2}), 0u);
}

}  // namespace
}  // namespace graphql::match
