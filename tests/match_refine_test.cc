#include "match/refine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "brute_force_matches.h"
#include "common/thread_pool.h"
#include "match/matcher.h"
#include "match/pipeline.h"
#include "motif/deriver.h"
#include "workload/erdos_renyi.h"
#include "workload/queries.h"

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

algebra::GraphPattern Triangle() {
  auto p = algebra::GraphPattern::Parse(R"(
    graph P {
      node u1 <label="A">; node u2 <label="B">; node u3 <label="C">;
      edge (u1, u2); edge (u2, u3); edge (u3, u1);
    })");
  EXPECT_TRUE(p.ok()) << p.status();
  return std::move(p).value();
}

TEST(RefineTest, Figure418LevelByLevel) {
  // Figure 4.18: input {A1,A2} x {B1,B2} x {C1,C2};
  // level 1 removes A2 and C1; level 2 removes B2.
  Graph g = Sample();
  algebra::GraphPattern p = Triangle();
  std::vector<std::vector<NodeId>> cand = ScanCandidates(p, g);
  ASSERT_EQ(cand[0].size(), 2u);
  ASSERT_EQ(cand[1].size(), 2u);
  ASSERT_EQ(cand[2].size(), 2u);

  std::vector<std::vector<NodeId>> level1 = cand;
  RefineSearchSpace(p, g, 1, &level1);
  // Level 1 certainly removes the degree-1 nodes A2 and C1; B2's removal
  // may happen at level 1 or 2 depending on in-place processing order
  // (Algorithm 4.2 removes immediately, line 13).
  EXPECT_EQ(level1[0].size(), 1u);  // A2 gone.
  EXPECT_EQ(level1[2].size(), 1u);  // C1 gone.

  std::vector<std::vector<NodeId>> level2 = cand;
  RefineSearchSpace(p, g, 2, &level2);
  EXPECT_EQ(level2[0].size(), 1u);
  EXPECT_EQ(level2[1].size(), 1u);  // B2 gone at level 2.
  EXPECT_EQ(level2[2].size(), 1u);
  EXPECT_EQ(level2[0][0], g.FindNode("a1"));
  EXPECT_EQ(level2[1][0], g.FindNode("b1"));
  EXPECT_EQ(level2[2][0], g.FindNode("c2"));
}

TEST(RefineTest, LevelZeroIsNoop) {
  Graph g = Sample();
  algebra::GraphPattern p = Triangle();
  std::vector<std::vector<NodeId>> cand = ScanCandidates(p, g);
  std::vector<std::vector<NodeId>> copy = cand;
  RefineSearchSpace(p, g, 0, &copy);
  EXPECT_EQ(copy, cand);
}

TEST(RefineTest, MarkingAndNoMarkingAgree) {
  Graph g = Sample();
  algebra::GraphPattern p = Triangle();
  for (int level = 1; level <= 4; ++level) {
    std::vector<std::vector<NodeId>> with = ScanCandidates(p, g);
    std::vector<std::vector<NodeId>> without = with;
    RefineSearchSpace(p, g, level, &with, nullptr, /*use_marking=*/true);
    RefineSearchSpace(p, g, level, &without, nullptr, /*use_marking=*/false);
    EXPECT_EQ(with, without) << "level " << level;
  }
}

TEST(RefineTest, StatsPopulated) {
  Graph g = Sample();
  algebra::GraphPattern p = Triangle();
  std::vector<std::vector<NodeId>> cand = ScanCandidates(p, g);
  RefineStats stats;
  RefineSearchSpace(p, g, 3, &cand, &stats);
  EXPECT_GT(stats.bipartite_checks, 0u);
  EXPECT_EQ(stats.removed, 3u);  // A2, C1, B2.
  EXPECT_GE(stats.levels_run, 2);
}

TEST(RefineTest, IsolatedPatternNodeSurvives) {
  Graph g = Sample();
  auto p = algebra::GraphPattern::Parse(
      "graph P { node u <label=\"A\">; }");
  ASSERT_TRUE(p.ok());
  std::vector<std::vector<NodeId>> cand = ScanCandidates(*p, g);
  RefineSearchSpace(*p, g, 3, &cand);
  EXPECT_EQ(cand[0].size(), 2u);  // No neighbors to demand: no pruning.
}

/// Everything one refinement leaves behind that must not depend on the
/// worker count.
struct RefineOutcome {
  std::vector<std::vector<NodeId>> candidates;
  RefineStats stats;
  TripKind trip_kind = TripKind::kNone;
  GovernPoint trip_point = GovernPoint::kOther;
  uint64_t steps_used = 0;
};

RefineOutcome RunRefine(const algebra::GraphPattern& p, const Graph& g,
                        std::vector<std::vector<NodeId>> candidates, int level,
                        bool marking, int threads, ThreadPool* pool,
                        ResourceGovernor* governor = nullptr) {
  RefineOutcome out;
  RefineSearchSpaceParallel(p, g, level, &candidates, &out.stats, marking,
                            nullptr, governor, threads, pool);
  out.candidates = std::move(candidates);
  if (governor != nullptr) {
    out.trip_kind = governor->trip_kind();
    out.trip_point = governor->trip_point();
    out.steps_used = governor->steps_used();
  }
  return out;
}

void ExpectSameOutcome(const RefineOutcome& want, const RefineOutcome& got,
                       const std::string& where) {
  EXPECT_EQ(want.candidates, got.candidates) << where;
  EXPECT_EQ(want.stats.bipartite_checks, got.stats.bipartite_checks) << where;
  EXPECT_EQ(want.stats.removed, got.stats.removed) << where;
  EXPECT_EQ(want.stats.levels_run, got.stats.levels_run) << where;
  EXPECT_EQ(want.stats.pairs_charged, got.stats.pairs_charged) << where;
  EXPECT_EQ(want.stats.aborted, got.stats.aborted) << where;
  EXPECT_EQ(want.trip_kind, got.trip_kind) << where;
  EXPECT_EQ(want.trip_point, got.trip_point) << where;
  EXPECT_EQ(want.steps_used, got.steps_used) << where;
}

TEST(RefineTest, SameResultAtEveryWorkerCount) {
  // Refinement runs one inline pass at every worker count, so every count
  // leaves the same candidate sets and stats, and a governed pass trips at
  // the same pair.
  ThreadPool pool(3);
  const int kThreadCounts[] = {0, 1, 2, 4};

  // Figure 4.18 at every count.
  {
    Graph g = Sample();
    algebra::GraphPattern p = Triangle();
    const std::vector<std::vector<NodeId>> cand = ScanCandidates(p, g);
    const int k = static_cast<int>(cand.size());
    for (bool marking : {true, false}) {
      for (int level : {1, 2, k}) {
        RefineOutcome want;
        for (int threads : kThreadCounts) {
          const std::string where =
              "figure 4.18 marking " + std::to_string(marking) + " level " +
              std::to_string(level) + " threads " + std::to_string(threads);
          RefineOutcome got =
              RunRefine(p, g, cand, level, marking, threads, &pool);
          EXPECT_EQ(got.candidates[0],
                    std::vector<NodeId>{g.FindNode("a1")}) << where;
          EXPECT_EQ(got.candidates[2],
                    std::vector<NodeId>{g.FindNode("c2")}) << where;
          if (level >= 2) {
            EXPECT_EQ(got.candidates[1],
                      std::vector<NodeId>{g.FindNode("b1")}) << where;
          }
          if (threads == 0) {
            want = std::move(got);
          } else {
            ExpectSameOutcome(want, got, where);
          }
        }
      }
    }
  }

  // A random graph large enough for budgets that trip inside a level and
  // for a `refine@1` injection (a trip at the 1024th pair).
  Rng rng(2718);
  workload::ErdosRenyiOptions opts;
  opts.num_nodes = 600;
  opts.num_edges = 2400;
  opts.num_labels = 2;
  Graph g = workload::MakeErdosRenyi(opts, &rng);
  auto parsed = algebra::GraphPattern::Parse(R"(
    graph P {
      node a <label="L0">; node b <label="L1">; node c <label="L0">;
      node d <label="L1">;
      edge (a, b); edge (b, c); edge (c, a); edge (c, d);
    })");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const algebra::GraphPattern& p = *parsed;
  const std::vector<std::vector<NodeId>> cand = ScanCandidates(p, g);
  const int k = static_cast<int>(cand.size());
  int budget_trips = 0;
  int injected_trips = 0;
  for (bool marking : {true, false}) {
    for (int level : {1, 2, k}) {
      const std::string config = "marking " + std::to_string(marking) +
                                 " level " + std::to_string(level);
      RefineOutcome free_want;
      for (int threads : kThreadCounts) {
        RefineOutcome got = RunRefine(p, g, cand, level, marking, threads,
                                      &pool);
        if (threads == 0) {
          free_want = std::move(got);
          EXPECT_GT(free_want.stats.removed, 0u) << config;
        } else {
          ExpectSameOutcome(free_want, got,
                            config + " threads " + std::to_string(threads));
        }
      }
      const uint64_t pairs = free_want.stats.pairs_charged;
      for (uint64_t budget : {pairs / 3, pairs * 2 / 3, pairs - 1}) {
        RefineOutcome want;
        for (int threads : kThreadCounts) {
          ResourceGovernor governor(GovernorLimits{.max_steps = budget});
          RefineOutcome got = RunRefine(p, g, cand, level, marking, threads,
                                        &pool, &governor);
          if (threads == 0) {
            want = std::move(got);
            budget_trips += want.stats.aborted;
          } else {
            ExpectSameOutcome(want, got,
                              config + " budget " + std::to_string(budget) +
                                  " threads " + std::to_string(threads));
          }
        }
      }
      RefineOutcome want;
      for (int threads : kThreadCounts) {
        auto injector = FaultInjector::Parse("refine@1");
        ASSERT_TRUE(injector.ok()) << injector.status();
        ResourceGovernor governor;
        governor.set_fault_injector(&*injector);
        RefineOutcome got = RunRefine(p, g, cand, level, marking, threads,
                                      &pool, &governor);
        if (threads == 0) {
          want = std::move(got);
          injected_trips += want.stats.aborted;
        } else {
          ExpectSameOutcome(want, got,
                            config + " refine@1 threads " +
                                std::to_string(threads));
        }
      }
    }
  }
  // Non-vacuous: every budget cut the pass, and the injection fired.
  EXPECT_EQ(budget_trips, 2 * 3 * 3);
  EXPECT_GT(injected_trips, 0);
}

TEST(RefineTest, SelfLoopPatternMatchesOracle) {
  // A self-loop puts x in its own refinement neighbor list, so a removal
  // from Phi(x) is seen by the later pairs of row x.
  auto g = motif::GraphFromSource(R"(
    graph G {
      node a1 <label="A">; node a2 <label="A">; node a3 <label="A">;
      node b1 <label="B">; node b2 <label="B">; node b3 <label="B">;
      edge (a1, a1); edge (a2, a2); edge (b1, b1); edge (b3, b3);
      edge (a1, b1); edge (a1, b2); edge (a2, b1); edge (a3, b3);
      edge (a2, a3); edge (b2, b3);
    })");
  ASSERT_TRUE(g.ok()) << g.status();
  auto p = algebra::GraphPattern::Parse(R"(
    graph P {
      node x <label="A">; node y <label="B">; node z <label="A">;
      edge (x, x); edge (x, y); edge (y, y); edge (x, z);
    })");
  ASSERT_TRUE(p.ok()) << p.status();
  const std::set<std::vector<NodeId>> want =
      oracle::BruteForceMatches(*p, *g);
  EXPECT_FALSE(want.empty());
  // B(x, a3) pairs N(x) = {x, y, z} with N(a3) = {a2, b3}: three pattern
  // neighbors cannot match two data neighbors, so a3 leaves Phi(x).
  std::vector<std::vector<NodeId>> cand = ScanCandidates(*p, *g);
  ASSERT_EQ(cand[0].size(), 3u);
  RefineSearchSpace(*p, *g, 1, &cand);
  EXPECT_EQ(std::count(cand[0].begin(), cand[0].end(), g->FindNode("a3")), 0);
  ThreadPool pool(3);
  for (bool marking : {true, false}) {
    PipelineStats serial;
    for (int threads : {0, 4}) {
      PipelineOptions options;
      options.candidate_mode = CandidateMode::kLabelOnly;
      options.refine_level = -1;
      options.refine_use_marking = marking;
      options.num_threads = threads;
      options.pool = &pool;
      options.metrics = nullptr;
      PipelineStats stats;
      auto got = MatchPattern(*p, *g, nullptr, options, &stats);
      ASSERT_TRUE(got.ok()) << got.status();
      std::set<std::vector<NodeId>> got_set;
      for (const algebra::MatchedGraph& m : *got) {
        got_set.insert(m.node_mapping);
      }
      const std::string where = "threads " + std::to_string(threads) +
                                " marking " + std::to_string(marking);
      EXPECT_EQ(got_set, want) << where;
      if (threads == 0) {
        serial = std::move(stats);
        continue;
      }
      EXPECT_EQ(serial.size_refined, stats.size_refined) << where;
      EXPECT_EQ(serial.refine.bipartite_checks, stats.refine.bipartite_checks)
          << where;
      EXPECT_EQ(serial.refine.removed, stats.refine.removed) << where;
      EXPECT_EQ(serial.refine.levels_run, stats.refine.levels_run) << where;
    }
  }
}

/// Soundness property: refinement never removes a candidate that appears
/// in a real match (TEST_P sweep over random graphs and query sizes).
class RefineSoundnessTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RefineSoundnessTest, NeverRemovesTrueCandidates) {
  auto [seed, qsize] = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 7919 + 17);
  workload::ErdosRenyiOptions opts;
  opts.num_nodes = 60;
  opts.num_edges = 180;
  opts.num_labels = 4;
  Graph g = workload::MakeErdosRenyi(opts, &rng);
  auto q = workload::ExtractConnectedQuery(g, static_cast<size_t>(qsize), &rng);
  ASSERT_TRUE(q.ok()) << q.status();
  algebra::GraphPattern p = algebra::GraphPattern::FromGraph(*q);

  std::vector<std::vector<NodeId>> cand = ScanCandidates(p, g);
  std::vector<std::vector<NodeId>> refined = cand;
  RefineSearchSpace(p, g, qsize, &refined);

  // All matches found in the unrefined space must survive refinement.
  auto matches = SearchMatches(p, g, cand, DeclarationOrder(p));
  ASSERT_TRUE(matches.ok()) << matches.status();
  ASSERT_FALSE(matches->empty()) << "extracted query must match itself";
  std::vector<std::unordered_set<NodeId>> refined_sets(refined.size());
  for (size_t u = 0; u < refined.size(); ++u) {
    refined_sets[u].insert(refined[u].begin(), refined[u].end());
  }
  for (const algebra::MatchedGraph& m : *matches) {
    for (size_t u = 0; u < m.node_mapping.size(); ++u) {
      EXPECT_TRUE(refined_sets[u].count(m.node_mapping[u]))
          << "refinement removed node " << m.node_mapping[u]
          << " from Phi(" << u << ")";
    }
  }

  // And matching in the refined space finds exactly the same match count.
  auto refined_matches = SearchMatches(p, g, refined, DeclarationOrder(p));
  ASSERT_TRUE(refined_matches.ok());
  EXPECT_EQ(refined_matches->size(), matches->size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RefineSoundnessTest,
    ::testing::Combine(::testing::Range(0, 8), ::testing::Values(3, 4, 6)));

}  // namespace
}  // namespace graphql::match
