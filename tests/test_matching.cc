#include "match/matcher.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace slim {
namespace {

TEST(GreedyMatching, EmptyGraph) {
  const Matching m = GreedyMaxWeightMatching(BipartiteGraph{});
  EXPECT_TRUE(m.pairs.empty());
  EXPECT_DOUBLE_EQ(m.total_weight, 0.0);
}

TEST(GreedyMatching, PicksHeaviestFirst) {
  BipartiteGraph g;
  g.AddEdge(1, 10, 5.0);
  g.AddEdge(1, 11, 9.0);
  g.AddEdge(2, 10, 8.0);
  const Matching m = GreedyMaxWeightMatching(g);
  ASSERT_EQ(m.pairs.size(), 2u);
  EXPECT_DOUBLE_EQ(m.total_weight, 17.0);
  EXPECT_TRUE(m.IsValidMatching());
}

TEST(GreedyMatching, OneToOneConstraintHolds) {
  BipartiteGraph g;
  // Entity 1 is attractive to everyone; only one may have it.
  g.AddEdge(1, 10, 3.0);
  g.AddEdge(2, 10, 2.0);
  g.AddEdge(3, 10, 1.0);
  const Matching m = GreedyMaxWeightMatching(g);
  ASSERT_EQ(m.pairs.size(), 1u);
  EXPECT_EQ(m.pairs[0].u, 1);
}

TEST(GreedyMatching, DeterministicTieBreak) {
  BipartiteGraph g;
  g.AddEdge(2, 20, 1.0);
  g.AddEdge(1, 20, 1.0);
  g.AddEdge(1, 21, 1.0);
  const Matching m1 = GreedyMaxWeightMatching(g);
  const Matching m2 = GreedyMaxWeightMatching(g);
  EXPECT_EQ(m1.pairs.size(), m2.pairs.size());
  for (size_t i = 0; i < m1.pairs.size(); ++i) {
    EXPECT_EQ(m1.pairs[i], m2.pairs[i]);
  }
  // Ties break toward smaller (u, v): edge (1,20) first.
  EXPECT_EQ(m1.pairs[0].u, 1);
  EXPECT_EQ(m1.pairs[0].v, 20);
}

TEST(GreedyMatching, KnownSuboptimalCase) {
  // Greedy takes (1,10,10) and strands vertex 2; optimal pairs (1,11)+(2,10)
  // for 9+8=17.
  BipartiteGraph g;
  g.AddEdge(1, 10, 10.0);
  g.AddEdge(1, 11, 9.0);
  g.AddEdge(2, 10, 8.0);
  const Matching greedy = GreedyMaxWeightMatching(g);
  const Matching exact = HungarianMaxWeightMatching(g);
  EXPECT_DOUBLE_EQ(greedy.total_weight, 10.0);
  EXPECT_DOUBLE_EQ(exact.total_weight, 17.0);
}

// The reference greedy matching: every edge in GreedyEdgeOrder, offered
// to the streaming matcher (the out-of-core seal's path).
Matching ReferenceGreedy(std::vector<WeightedEdge> edges) {
  std::sort(edges.begin(), edges.end(), GreedyEdgeOrder);
  StreamingGreedyMatcher matcher;
  for (const auto& e : edges) matcher.Offer(e);
  return matcher.Take();
}

// Same pairs in the same order, and every weight and the total with the
// same bits.
void ExpectSameMatching(const Matching& got, const Matching& want,
                        const std::string& label) {
  ASSERT_EQ(got.pairs.size(), want.pairs.size()) << label;
  for (size_t k = 0; k < got.pairs.size(); ++k) {
    EXPECT_EQ(got.pairs[k].u, want.pairs[k].u) << label << " pair " << k;
    EXPECT_EQ(got.pairs[k].v, want.pairs[k].v) << label << " pair " << k;
    EXPECT_EQ(std::bit_cast<uint64_t>(got.pairs[k].weight),
              std::bit_cast<uint64_t>(want.pairs[k].weight))
        << label << " pair " << k;
  }
  EXPECT_EQ(std::bit_cast<uint64_t>(got.total_weight),
            std::bit_cast<uint64_t>(want.total_weight))
      << label;
}

// Random graphs of up to 16 x 16 vertices that stress ties and id order:
// 1-5 weight levels (so most weights tie), negative weights and +-0 in a
// quarter, ids wrapping past -1 or past INT64_MAX in half, vertices with
// no edges, and the edges (u, v)-sorted in half and shuffled in the rest.
std::vector<WeightedEdge> DifferentialGraph(Rng* rng) {
  const uint64_t lefts = 1 + rng->NextUint64(16);
  const uint64_t rights = 1 + rng->NextUint64(16);
  std::vector<double> levels(1 + rng->NextUint64(5));
  const bool signed_levels = rng->NextBernoulli(0.25);
  for (double& w : levels) {
    w = signed_levels ? static_cast<double>(rng->NextInt64(-3, 3)) * 0.5
                      : rng->NextDouble(0.01, 1.0);
  }
  if (signed_levels) levels.front() = -0.0;
  // In half the graphs the u and v ids count up from bases near
  // UINT64_MAX or INT64_MAX in uint64_t arithmetic, so as EntityId they
  // wrap from -1 to 0 or from INT64_MAX to INT64_MIN.
  const uint64_t wrap_bases[] = {std::numeric_limits<uint64_t>::max() - 8,
                                 (uint64_t{1} << 63) - 9};
  const bool wrap = rng->NextBernoulli(0.5);
  const uint64_t u_base = wrap ? wrap_bases[rng->NextUint64(2)] : 0;
  const uint64_t v_base = wrap ? wrap_bases[rng->NextUint64(2)] : 1000;
  const double density = rng->NextDouble(0.1, 1.0);
  const double isolated = rng->NextDouble(0.0, 0.3);

  std::vector<bool> right_isolated(rights);
  for (uint64_t v = 0; v < rights; ++v) {
    right_isolated[v] = rng->NextBernoulli(isolated);
  }
  std::vector<WeightedEdge> edges;
  for (uint64_t u = 0; u < lefts; ++u) {
    if (rng->NextBernoulli(isolated)) continue;
    for (uint64_t v = 0; v < rights; ++v) {
      if (right_isolated[v] || !rng->NextBernoulli(density)) continue;
      edges.push_back({static_cast<EntityId>(u_base + u),
                       static_cast<EntityId>(v_base + v),
                       levels[rng->NextUint64(levels.size())]});
    }
  }
  if (rng->NextBernoulli(0.5)) {
    std::sort(edges.begin(), edges.end(), PairEdgeOrder);
  } else {
    for (size_t k = edges.size(); k > 1; --k) {
      std::swap(edges[k - 1], edges[rng->NextUint64(k)]);
    }
  }
  return edges;
}

TEST(GreedyDifferential, MatchesTheStreamedReferenceOnRandomGraphs) {
  Rng rng(20140519);
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<WeightedEdge> edges = DifferentialGraph(&rng);
    const Matching want = ReferenceGreedy(edges);
    const Matching got = GreedyMaxWeightMatching(BipartiteGraph(edges));
    ExpectSameMatching(got, want, "trial " + std::to_string(trial));
    if (HasFailure()) break;
  }
}

// Complete n x n graph in which every left vertex outbids all earlier
// ones, each preferring the smallest free v: weight 1 + u n + (n - v).
// Each new left vertex displaces a chain through every earlier one, the
// worst case for proposals that rescan their whole run.
std::vector<WeightedEdge> OutbidGraph(int64_t n) {
  std::vector<WeightedEdge> edges;
  edges.reserve(static_cast<size_t>(n * n));
  for (int64_t u = 0; u < n; ++u) {
    for (int64_t v = 0; v < n; ++v) {
      edges.push_back({u, v, static_cast<double>(1 + u * n + (n - v))});
    }
  }
  return edges;
}

TEST(GreedyDifferential, MatchesTheStreamedReferenceOnTheOutbidGraph) {
  const int64_t n = 300;
  const std::vector<WeightedEdge> edges = OutbidGraph(n);
  const Matching got = GreedyMaxWeightMatching(BipartiteGraph(edges));
  ExpectSameMatching(got, ReferenceGreedy(edges), "outbid");
  // The last left vertex takes v = 0, the one before it v = 1, and so on.
  ASSERT_EQ(got.pairs.size(), static_cast<size_t>(n));
  for (int64_t k = 0; k < n; ++k) {
    EXPECT_EQ(got.pairs[static_cast<size_t>(k)].u, n - 1 - k);
    EXPECT_EQ(got.pairs[static_cast<size_t>(k)].v, k);
  }
}

TEST(HungarianMatching, EmptyGraph) {
  const Matching m = HungarianMaxWeightMatching(BipartiteGraph{});
  EXPECT_TRUE(m.pairs.empty());
}

TEST(HungarianMatching, SingleEdge) {
  BipartiteGraph g;
  g.AddEdge(5, 7, 3.5);
  const Matching m = HungarianMaxWeightMatching(g);
  ASSERT_EQ(m.pairs.size(), 1u);
  EXPECT_EQ(m.pairs[0], (WeightedEdge{5, 7, 3.5}));
}

TEST(HungarianMatching, RectangularMoreLeftThanRight) {
  BipartiteGraph g;
  g.AddEdge(1, 100, 4.0);
  g.AddEdge(2, 100, 6.0);
  g.AddEdge(3, 100, 5.0);
  const Matching m = HungarianMaxWeightMatching(g);
  ASSERT_EQ(m.pairs.size(), 1u);
  EXPECT_EQ(m.pairs[0].u, 2);
}

// Exhaustive optimal matching for tiny instances, for cross-checking.
double BruteForceBest(const std::vector<WeightedEdge>& edges, size_t idx,
                      std::vector<EntityId>* used_u,
                      std::vector<EntityId>* used_v) {
  if (idx == edges.size()) return 0.0;
  // Skip edge idx.
  double best = BruteForceBest(edges, idx + 1, used_u, used_v);
  const auto& e = edges[idx];
  const bool u_free =
      std::find(used_u->begin(), used_u->end(), e.u) == used_u->end();
  const bool v_free =
      std::find(used_v->begin(), used_v->end(), e.v) == used_v->end();
  if (u_free && v_free) {
    used_u->push_back(e.u);
    used_v->push_back(e.v);
    best = std::max(best,
                    e.weight + BruteForceBest(edges, idx + 1, used_u, used_v));
    used_u->pop_back();
    used_v->pop_back();
  }
  return best;
}

class MatchingProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatchingProperty, HungarianMatchesBruteForceAndBeatsGreedy) {
  Rng rng(GetParam());
  BipartiteGraph g;
  const int nl = 1 + static_cast<int>(rng.NextUint64(5));
  const int nr = 1 + static_cast<int>(rng.NextUint64(5));
  for (int u = 0; u < nl; ++u) {
    for (int v = 0; v < nr; ++v) {
      if (rng.NextBernoulli(0.7)) {
        g.AddEdge(u, 100 + v, rng.NextDouble(0.1, 10.0));
      }
    }
  }
  const Matching greedy = GreedyMaxWeightMatching(g);
  const Matching exact = HungarianMaxWeightMatching(g);
  EXPECT_TRUE(greedy.IsValidMatching());
  EXPECT_TRUE(exact.IsValidMatching());

  std::vector<EntityId> uu, vv;
  const double best = BruteForceBest(g.edges(), 0, &uu, &vv);
  EXPECT_NEAR(exact.total_weight, best, 1e-9);
  EXPECT_LE(greedy.total_weight, exact.total_weight + 1e-9);
  // Greedy is a 1/2-approximation of the optimum.
  EXPECT_GE(greedy.total_weight, 0.5 * exact.total_weight - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchingProperty,
                         ::testing::Range<uint64_t>(1, 21));

TEST(BipartiteGraph, VertexCounts) {
  BipartiteGraph g;
  g.AddEdge(1, 10, 1.0);
  g.AddEdge(1, 11, 1.0);
  g.AddEdge(2, 10, 1.0);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.num_left_vertices(), 2u);
  EXPECT_EQ(g.num_right_vertices(), 2u);
}

TEST(Matching, IsValidMatchingDetectsDuplicates) {
  Matching m;
  m.pairs = {{1, 10, 1.0}, {1, 11, 1.0}};
  EXPECT_FALSE(m.IsValidMatching());
  m.pairs = {{1, 10, 1.0}, {2, 10, 1.0}};
  EXPECT_FALSE(m.IsValidMatching());
  m.pairs = {{1, 10, 1.0}, {2, 11, 1.0}};
  EXPECT_TRUE(m.IsValidMatching());
}

}  // namespace
}  // namespace slim
