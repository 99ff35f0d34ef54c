// Maximum-weight bipartite matching (the assignment problem, paper
// Sec. 3.2).
//
// SLIM adopts the simple greedy heuristic — "link the pair with the highest
// similarity at each step" — which is what the paper evaluates. An exact
// O(n^3) Hungarian solver is provided as a reference implementation for the
// ablation benches and for verifying how far the heuristic is from optimal
// on small instances.
#ifndef SLIM_MATCH_MATCHER_H_
#define SLIM_MATCH_MATCHER_H_

#include <unordered_set>
#include <vector>

#include "match/bipartite.h"

namespace slim {

/// A one-to-one matching: no entity appears in more than one selected edge.
struct Matching {
  std::vector<WeightedEdge> pairs;
  double total_weight = 0.0;

  /// Verifies the one-to-one constraint; used by tests and SLIM_DCHECKs.
  bool IsValidMatching() const;
};

/// Comparator fixing the greedy selection order: heaviest edge first, ties
/// broken on (u, v). A total order whenever each (u, v) pair appears once,
/// which makes the greedy matching independent of how the edges were
/// produced — the property the external (run-merged) edge path relies on.
bool GreedyEdgeOrder(const WeightedEdge& a, const WeightedEdge& b);

/// Incremental greedy matcher for edge streams that already arrive in
/// GreedyEdgeOrder (e.g. the external matcher's score-ordered merge,
/// core/edge_spill.h). Offer() consumes one edge at a time, so the full
/// edge set never needs to be resident; Take() finalises. Offering edges
/// out of order is a programming error (SLIM_DCHECKed).
class StreamingGreedyMatcher {
 public:
  void Offer(const WeightedEdge& edge);
  Matching Take();

 private:
  Matching matching_;
  std::unordered_set<EntityId> used_u_, used_v_;
  WeightedEdge last_;
  bool any_ = false;
};

/// Greedy maximum-sum matching: repeatedly selects the heaviest remaining
/// edge whose endpoints are both unmatched. Deterministic: ties break on
/// (u, v). Returns exactly what sorting the edges by GreedyEdgeOrder and
/// streaming them through StreamingGreedyMatcher returns: the same `pairs`
/// in the same order and the same `total_weight` bits, for any input
/// order (tests/test_matching.cc, GreedyDifferential, compares the two).
///
/// Implemented without a global sort, by proposals (the sequential Suitor
/// algorithm of Manne & Halappanavar, IPDPS 2014) over the (u, v)-sorted
/// edges; other input orders are matched through a (u, v)-sorted copy.
/// Each left vertex proposes to its first edge in GreedyEdgeOrder whose
/// right end holds no proposal that comes before that edge, a displaced
/// vertex proposes again, and the surviving proposals are the greedy
/// matching. A vertex's first
/// proposal scans its run; the first time it is displaced, its run is
/// sorted once and later proposals walk a cursor through it. O(E log d_max)
/// for those sorts (d_max: the largest left degree), plus a binary search
/// over the left runs per displacement. Temporary memory is about 8 B per
/// edge (a right rank and a sort slot) plus a few words per vertex.
Matching GreedyMaxWeightMatching(const BipartiteGraph& graph);

/// Exact maximum-weight bipartite matching via the Hungarian algorithm
/// (shortest augmenting paths with potentials), treating absent edges as
/// weight 0 and dropping zero-weight pairs from the result. O(n^2 m) on the
/// dense matrix — intended for graphs up to a few thousand vertices.
Matching HungarianMaxWeightMatching(const BipartiteGraph& graph);

}  // namespace slim

#endif  // SLIM_MATCH_MATCHER_H_
