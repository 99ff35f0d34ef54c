#include "core/pairing.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace slim {
namespace {

TEST(MutuallyNearestPairs, EmptySides) {
  EXPECT_TRUE(MutuallyNearestPairs({}, 0, 0).empty());
  EXPECT_TRUE(MutuallyNearestPairs({}, 0, 5).empty());
  EXPECT_TRUE(MutuallyNearestPairs({}, 3, 0).empty());
}

TEST(MutuallyNearestPairs, SinglePair) {
  const auto pairs = MutuallyNearestPairs({7.0}, 1, 1);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (BinPair{0, 0}));
}

TEST(MutuallyNearestPairs, PicksGlobalMinimumFirst) {
  // 2x2 matrix; global min at (1, 0).
  const std::vector<double> d = {5.0, 2.0,   // row 0
                                 1.0, 9.0};  // row 1
  const auto pairs = MutuallyNearestPairs(d, 2, 2);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], (BinPair{1, 0}));
  EXPECT_EQ(pairs[1], (BinPair{0, 1}));
}

TEST(MutuallyNearestPairs, PaperExampleDodgesOvercounting) {
  // One bin on the left, two on the right at distances d and d+r: MNN pairs
  // only the close one; the far bin stays unmatched (MFN finds it below).
  const std::vector<double> d = {100.0, 40000.0};
  const auto mnn = MutuallyNearestPairs(d, 1, 2);
  ASSERT_EQ(mnn.size(), 1u);
  EXPECT_EQ(mnn[0], (BinPair{0, 0}));
  const auto mfn = MutuallyFurthestPairs(d, 1, 2);
  ASSERT_EQ(mfn.size(), 1u);
  EXPECT_EQ(mfn[0], (BinPair{0, 1}));
}

TEST(MutuallyFurthestPairs, PicksGlobalMaximumFirst) {
  const std::vector<double> d = {5.0, 2.0, 1.0, 9.0};
  const auto pairs = MutuallyFurthestPairs(d, 2, 2);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], (BinPair{1, 1}));
  EXPECT_EQ(pairs[1], (BinPair{0, 0}));
}

TEST(Pairing, DeterministicUnderTies) {
  const std::vector<double> d(9, 1.0);  // all equal
  const auto p1 = MutuallyNearestPairs(d, 3, 3);
  const auto p2 = MutuallyNearestPairs(d, 3, 3);
  EXPECT_EQ(p1, p2);
  // Ties resolve in row-major order: (0,0), (1,1), (2,2).
  ASSERT_EQ(p1.size(), 3u);
  EXPECT_EQ(p1[0], (BinPair{0, 0}));
  EXPECT_EQ(p1[1], (BinPair{1, 1}));
  EXPECT_EQ(p1[2], (BinPair{2, 2}));
}

class PairingProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PairingProperty, PairsAreDisjointAndCoverSmallerSide) {
  Rng rng(GetParam());
  const size_t m = 1 + rng.NextUint64(8);
  const size_t n = 1 + rng.NextUint64(8);
  std::vector<double> d(m * n);
  for (auto& x : d) x = rng.NextDouble(0.0, 100.0);

  for (bool nearest : {true, false}) {
    const auto pairs = nearest ? MutuallyNearestPairs(d, m, n)
                               : MutuallyFurthestPairs(d, m, n);
    EXPECT_EQ(pairs.size(), std::min(m, n));
    std::set<size_t> rows, cols;
    for (const auto& [r, c] : pairs) {
      EXPECT_LT(r, m);
      EXPECT_LT(c, n);
      EXPECT_TRUE(rows.insert(r).second) << "duplicate row";
      EXPECT_TRUE(cols.insert(c).second) << "duplicate col";
    }
  }
}

TEST_P(PairingProperty, GreedyPrefixOrderingHolds) {
  // Selected distances are non-decreasing for MNN (non-increasing for MFN):
  // each greedy step picks the extreme among remaining pairs.
  Rng rng(GetParam() + 1000);
  const size_t m = 2 + rng.NextUint64(6);
  const size_t n = 2 + rng.NextUint64(6);
  std::vector<double> d(m * n);
  for (auto& x : d) x = rng.NextDouble(0.0, 100.0);

  const auto mnn = MutuallyNearestPairs(d, m, n);
  for (size_t k = 1; k < mnn.size(); ++k) {
    EXPECT_LE(d[mnn[k - 1].first * n + mnn[k - 1].second],
              d[mnn[k].first * n + mnn[k].second] + 1e-12);
  }
  const auto mfn = MutuallyFurthestPairs(d, m, n);
  for (size_t k = 1; k < mfn.size(); ++k) {
    EXPECT_GE(d[mfn[k - 1].first * n + mfn[k - 1].second],
              d[mfn[k].first * n + mfn[k].second] - 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairingProperty,
                         ::testing::Range<uint64_t>(1, 16));

// The fused pairing the scoring engine runs. On [[5, 5], [5, 1]] its
// furthest pairing breaks the three-way tie at 5 toward the larger
// row-major index and selects {5, 5}; the reference selects {5, 1}. The
// calls share one MutualPairing, as a scoring worker does.
TEST(MutualNearestAndFurthestPairs, PinnedTieRule) {
  const std::vector<double> d = {5.0, 5.0,   // row 0
                                 5.0, 1.0};  // row 1
  MutualPairing fused;
  MutualNearestAndFurthestPairs(d, 2, 2, true, &fused);
  EXPECT_EQ(fused.nearest, MutuallyNearestPairs(d, 2, 2));
  EXPECT_EQ(fused.nearest, (std::vector<BinPair>{{1, 1}, {0, 0}}));
  EXPECT_EQ(fused.furthest, (std::vector<BinPair>{{1, 0}, {0, 1}}));
  EXPECT_EQ(MutuallyFurthestPairs(d, 2, 2),
            (std::vector<BinPair>{{0, 0}, {1, 1}}));
  MutualNearestAndFurthestPairs(d, 2, 2, false, &fused);
  EXPECT_EQ(fused.nearest, (std::vector<BinPair>{{1, 1}, {0, 0}}));
  EXPECT_TRUE(fused.furthest.empty());
  // An empty side clears what the previous call left.
  MutualNearestAndFurthestPairs({}, 0, 2, true, &fused);
  EXPECT_TRUE(fused.nearest.empty());
  EXPECT_TRUE(fused.furthest.empty());
}

// Greedy disjoint pairs over (distance desc, row-major index desc): the
// furthest rule the fused function documents for windows larger than
// 1xN / Mx1.
std::vector<BinPair> FurthestLargerIndexFirst(const std::vector<double>& d,
                                              size_t m, size_t n) {
  std::vector<size_t> order(m * n);
  for (size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (d[a] != d[b]) return d[a] > d[b];
    return a > b;
  });
  std::vector<char> row_used(m, 0), col_used(n, 0);
  std::vector<BinPair> out;
  for (const size_t k : order) {
    if (row_used[k / n] || col_used[k % n]) continue;
    row_used[k / n] = col_used[k % n] = 1;
    out.emplace_back(k / n, k % n);
  }
  return out;
}

// Seeded sweep over 1-6 x 1-6 matrices, half drawn from four values so
// ties are dense: `nearest` always equals the reference; `furthest` equals
// it on distinct distances and in every 1xN / Mx1 window, and otherwise
// follows the larger-index tie rule. One MutualPairing serves all 20,000
// matrices, so the buffers a larger window leaves behind must not leak
// into a smaller one.
TEST(MutualNearestAndFurthestPairs, MatchesTheReferencesUpToTheTieRule) {
  Rng rng(2024);
  MutualPairing fused;
  size_t tied_differences = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const size_t m = 1 + rng.NextUint64(6);
    const size_t n = 1 + rng.NextUint64(6);
    const bool heavy_ties = trial % 2 == 0;
    std::vector<double> d(m * n);
    for (auto& x : d) {
      x = heavy_ties ? static_cast<double>(rng.NextUint64(4))
                     : rng.NextDouble(0.0, 100.0);
    }
    std::vector<double> sorted = d;
    std::sort(sorted.begin(), sorted.end());
    const bool distinct =
        std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();

    MutualNearestAndFurthestPairs(d, m, n, true, &fused);
    ASSERT_EQ(fused.nearest, MutuallyNearestPairs(d, m, n))
        << "trial " << trial;
    const std::vector<BinPair> reference = MutuallyFurthestPairs(d, m, n);
    if (distinct || m == 1 || n == 1) {
      ASSERT_EQ(fused.furthest, reference) << "trial " << trial;
    } else {
      ASSERT_EQ(fused.furthest, FurthestLargerIndexFirst(d, m, n))
          << "trial " << trial;
      if (fused.furthest != reference) ++tied_differences;
    }
  }
  // The tie rule is observable, not a formality.
  EXPECT_GT(tied_differences, 0u);
}

// Windows with at least two bins a side order their entries by ascending
// distance, ties broken on the row-major index: a strict total order, so
// `order` is exactly std::sort's permutation under it. Pinned on matrices
// drawn from four values, so ties are dense.
TEST(MutualNearestAndFurthestPairs, OrderIsAscendingDistanceThenIndex) {
  Rng rng(1626);
  MutualPairing fused;
  for (size_t m = 2; m <= 10; ++m) {
    for (size_t n = 2; m * n <= 20; ++n) {
      for (int trial = 0; trial < 200; ++trial) {
        std::vector<double> d(m * n);
        for (auto& x : d) x = static_cast<double>(rng.NextUint64(4));
        std::vector<uint32_t> order(m * n);
        for (uint32_t k = 0; k < order.size(); ++k) order[k] = k;
        std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
          if (d[a] != d[b]) return d[a] < d[b];
          return a < b;
        });
        MutualNearestAndFurthestPairs(d, m, n, true, &fused);
        ASSERT_EQ(fused.order, order) << m << "x" << n << " trial " << trial;
        ASSERT_EQ(fused.nearest, MutuallyNearestPairs(d, m, n));
        ASSERT_EQ(fused.furthest, FurthestLargerIndexFirst(d, m, n));
      }
    }
  }
}

// Wide windows pair like the references, and a small window after a wide
// one starts from clear row and column flags in the reused scratch.
TEST(MutualNearestAndFurthestPairs, WideWindowsMatchTheReferences) {
  Rng rng(6464);
  MutualPairing fused;
  for (const auto& [m, n] : std::vector<std::pair<size_t, size_t>>{
           {70, 2}, {3, 65}, {64, 64}, {64, 65}, {65, 64}, {66, 70}}) {
    std::vector<double> d(m * n);
    for (auto& x : d) x = static_cast<double>(rng.NextUint64(6));
    MutualNearestAndFurthestPairs(d, m, n, true, &fused);
    EXPECT_EQ(fused.nearest, MutuallyNearestPairs(d, m, n)) << m << "x" << n;
    EXPECT_EQ(fused.furthest, FurthestLargerIndexFirst(d, m, n))
        << m << "x" << n;
    const std::vector<double> small = {5.0, 5.0, 5.0, 1.0};
    MutualNearestAndFurthestPairs(small, 2, 2, true, &fused);
    EXPECT_EQ(fused.nearest, (std::vector<BinPair>{{1, 1}, {0, 0}}));
    EXPECT_EQ(fused.furthest, (std::vector<BinPair>{{1, 0}, {0, 1}}));
  }
}

// One row or one column: nearest is the first minimum and furthest the
// first maximum in row-major order, also on tied rows (SingleRowExtremes,
// which the scoring engine also runs on such windows).
TEST(MutualNearestAndFurthestPairs, SingleRowTakesFirstMinimumAndMaximum) {
  const std::vector<double> d = {3.0, 1.0, 4.0, 1.0, 5.0, 5.0, 2.0};
  SingleRowExtremes extremes;
  for (const double x : d) extremes.Add(x);
  EXPECT_EQ(extremes.arg_min(), 1u);
  EXPECT_EQ(extremes.min_distance(), 1.0);
  EXPECT_EQ(extremes.arg_max(), 4u);
  EXPECT_EQ(extremes.max_distance(), 5.0);
  MutualPairing fused;
  MutualNearestAndFurthestPairs(d, 1, d.size(), true, &fused);
  EXPECT_EQ(fused.nearest, (std::vector<BinPair>{{0, 1}}));
  EXPECT_EQ(fused.furthest, (std::vector<BinPair>{{0, 4}}));
  MutualNearestAndFurthestPairs(d, d.size(), 1, true, &fused);
  EXPECT_EQ(fused.nearest, (std::vector<BinPair>{{1, 0}}));
  EXPECT_EQ(fused.furthest, (std::vector<BinPair>{{4, 0}}));
  // All tied: both are the first entry.
  const std::vector<double> flat(5, 2.0);
  MutualNearestAndFurthestPairs(flat, 1, flat.size(), true, &fused);
  EXPECT_EQ(fused.nearest, (std::vector<BinPair>{{0, 0}}));
  EXPECT_EQ(fused.furthest, (std::vector<BinPair>{{0, 0}}));
}

TEST(Pairing, DiesOnShapeMismatch) {
  EXPECT_DEATH(MutuallyNearestPairs({1.0, 2.0}, 2, 2), "shape");
  MutualPairing fused;
  const std::vector<double> d = {1.0, 2.0};
  EXPECT_DEATH(MutualNearestAndFurthestPairs(d, 2, 2, true, &fused), "shape");
}

}  // namespace
}  // namespace slim
