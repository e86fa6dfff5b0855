#ifndef GRAPHQL_TESTS_BRUTE_FORCE_MATCHES_H_
#define GRAPHQL_TESTS_BRUTE_FORCE_MATCHES_H_

// Exhaustive reference matcher shared by the matcher differential tests.
// It reads the mutable Graph only (NodeCompatible over attribute tuples,
// HasEdgeBetween over adjacency lists), so it shares no code with the
// snapshot-based pipeline it checks.

#include <algorithm>
#include <functional>
#include <set>
#include <vector>

#include "algebra/pattern.h"
#include "graph/graph.h"

namespace graphql::oracle {

/// Every injective assignment of pattern nodes (in declaration order) to
/// data nodes that passes each node's feasible-mate test, has a data edge
/// for every pattern edge (direction-aware on directed graphs) and
/// satisfies the graph-wide predicate. A partial assignment is dropped as
/// soon as a pattern edge between two assigned nodes has no data edge.
/// Exponential; small inputs only.
inline std::set<std::vector<NodeId>> BruteForceMatches(
    const algebra::GraphPattern& p, const Graph& g) {
  const Graph& pg = p.graph();
  const size_t k = pg.NumNodes();
  std::set<std::vector<NodeId>> out;
  std::vector<NodeId> assign(k, kInvalidNode);
  std::vector<char> used(g.NumNodes(), 0);
  // Pattern edges whose later endpoint (in declaration order) is u.
  std::vector<std::vector<EdgeId>> closing(k);
  for (size_t e = 0; e < pg.NumEdges(); ++e) {
    const Graph::Edge& pe = pg.edge(static_cast<EdgeId>(e));
    closing[std::max(pe.src, pe.dst)].push_back(static_cast<EdgeId>(e));
  }
  std::function<void(size_t)> go = [&](size_t u) {
    if (u == k) {
      if (p.has_global_pred()) {
        auto r = p.EvalGlobalPred(g, assign, {});
        if (!r.ok() || !r.value()) return;
      }
      out.insert(assign);
      return;
    }
    for (size_t v = 0; v < g.NumNodes(); ++v) {
      if (used[v]) continue;
      if (!p.NodeCompatible(static_cast<NodeId>(u), g,
                            static_cast<NodeId>(v))) {
        continue;
      }
      assign[u] = static_cast<NodeId>(v);
      bool edges_ok = true;
      for (EdgeId e : closing[u]) {
        const Graph::Edge& pe = pg.edge(e);
        if (!g.HasEdgeBetween(assign[pe.src], assign[pe.dst])) {
          edges_ok = false;
          break;
        }
      }
      if (edges_ok) {
        used[v] = 1;
        go(u + 1);
        used[v] = 0;
      }
      assign[u] = kInvalidNode;
    }
  };
  go(0);
  return out;
}

}  // namespace graphql::oracle

#endif  // GRAPHQL_TESTS_BRUTE_FORCE_MATCHES_H_
