// Self-tests of the benchmark's own arithmetic and checker, on fixed
// inputs: percentiles, span self time, and the embedding checker's
// rejection of corrupted matches. Exits nonzero on the first failure.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentile() {
  using perfbench::Percentile;
  const std::vector<double> xs = {5, 1, 4, 2, 3};
  Expect(Near(Percentile(xs, 0.5), 3), "median of 1..5 is 3");
  Expect(Near(Percentile(xs, 0.0), 1), "p0 is the minimum");
  Expect(Near(Percentile(xs, 1.0), 5), "p100 is the maximum");
  Expect(Near(Percentile(xs, 0.95), 4.8), "p95 interpolates to 4.8");
  Expect(Near(Percentile({10, 20}, 0.25), 12.5), "p25 of {10,20} is 12.5");
  Expect(Near(Percentile({}, 0.5), 0), "empty sample gives 0");
  Expect(Near(perfbench::Median({7}), 7), "median of one value");

  // Key 0 has one slow run in four; key 1 runs once.
  const std::vector<double> typical =
      perfbench::MedianPerKey({1, 50, 2, 7, 3}, {0, 0, 0, 1, 0});
  Expect(typical.size() == 5 && Near(typical[0], 2.5) &&
             Near(typical[1], 2.5) && Near(typical[3], 7) &&
             Near(typical[4], 2.5),
         "each sample becomes its key's median (2.5 for key 0, 7 for key 1)");
}

void TestSelfTime() {
  using perfbench::Span;
  // request [0, 100us] with children a [10, 30], b [30, 50] and
  // c [60, 70]; a has a child d [12, 18]; a second root a [200, 205].
  std::vector<Span> spans = {
      {"request", 0, 100000, -1, 1, 1}, {"a", 10000, 30000, 0, 1, 1},
      {"b", 30000, 50000, 0, 1, 1},     {"c", 60000, 70000, 0, 1, 1},
      {"d", 12000, 18000, 1, 1, 1},     {"a", 200000, 205000, -1, 2, 1},
  };
  auto self = perfbench::SelfTimesUs(spans);
  Expect(Near(self["request"], 50), "request self time is 100 - 50");
  Expect(Near(self["a"], 14 + 5), "a self time sums over spans: 14 + 5");
  Expect(Near(self["b"], 20), "b has no children");
  Expect(Near(self["d"], 6), "leaf self time is its duration");
  double total = 0;
  for (const auto& [name, us] : self) total += us;
  Expect(Near(total, 100 + 5), "self times add up to the root durations");

  // Overlapping children cover their union once, and a child sticking
  // out of its parent is clipped.
  std::vector<Span> overlap = {
      {"root", 0, 100000, -1, 1, 1},
      {"x", 10000, 30000, 0, 1, 1},
      {"y", 20000, 50000, 0, 1, 1},
      {"z", 90000, 120000, 0, 1, 1},
  };
  auto o = perfbench::SelfTimesUs(overlap);
  Expect(Near(o["root"], 100 - 40 - 10), "union of children, clipped");
}

void TestEmbeddingChecker() {
  graphql::Graph g("g");
  for (int i = 0; i < 4; ++i) {
    graphql::AttrTuple a;
    a.Set("label", graphql::Value(i < 2 ? "A" : "B"));
    a.Set("score", graphql::Value(int64_t{i * 10}));
    g.AddNode("", std::move(a));
  }
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  perfbench::EdgeSet edges(g);
  perfbench::CheckPattern p;
  p.labels = {"A", "B"};
  p.preds = {{},
             [](const graphql::AttrTuple& a) {
               auto s = a.Get("score");
               return s && s->AsInt() >= 20;
             }};
  p.edges = {{0, 1}};
  std::string why;
  Expect(perfbench::IsEmbedding(p, g, edges, {0, 2}, &why),
         "a valid match is accepted");
  Expect(perfbench::IsEmbedding(p, g, edges, {1, 2}, &why),
         "another valid match is accepted");
  Expect(!perfbench::IsEmbedding(p, g, edges, {2, 2}, &why),
         "a reused data node is rejected");
  Expect(!perfbench::IsEmbedding(p, g, edges, {3, 2}, &why),
         "a wrong label is rejected");
  Expect(!perfbench::IsEmbedding(p, g, edges, {0, 3}, &why),
         "a missing edge is rejected");
  p.preds[1] = [](const graphql::AttrTuple& a) {
    auto s = a.Get("score");
    return s && s->AsInt() > 20;
  };
  Expect(!perfbench::IsEmbedding(p, g, edges, {0, 2}, &why),
         "a failing predicate is rejected");
  Expect(!perfbench::IsEmbedding(p, g, edges, {0, 9}, &why),
         "a node outside the graph is rejected");
  Expect(!perfbench::IsEmbedding(p, g, edges, {0}, &why),
         "a short mapping is rejected");
}

}  // namespace

int main() {
  TestPercentile();
  TestSelfTime();
  TestEmbeddingChecker();
  if (failures == 0) std::printf("perfbench_selftest: OK\n");
  return failures == 0 ? 0 : 1;
}
