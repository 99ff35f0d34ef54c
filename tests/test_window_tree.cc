#include "temporal/window_tree.h"

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "temporal/time_window.h"

namespace slim {
namespace {

CellId Cell(int level, uint64_t i, uint64_t j) {
  return CellId::FromIndices(level, i, j);
}

TEST(WindowIndex, FloorsTowardMinusInfinity) {
  EXPECT_EQ(WindowIndexOf(0, 900), 0);
  EXPECT_EQ(WindowIndexOf(899, 900), 0);
  EXPECT_EQ(WindowIndexOf(900, 900), 1);
  EXPECT_EQ(WindowIndexOf(-1, 900), -1);
  EXPECT_EQ(WindowIndexOf(-900, 900), -1);
  EXPECT_EQ(WindowIndexOf(-901, 900), -2);
}

TEST(WindowIndex, StartInvertsIndex) {
  for (int64_t t : {-5000, -1, 0, 1, 899, 12345}) {
    const int64_t w = WindowIndexOf(t, 900);
    EXPECT_LE(WindowStart(w, 900), t);
    EXPECT_GT(WindowStart(w + 1, 900), t);
  }
}

TEST(RunawayDistance, ScalesWithWindowAndSpeed) {
  EXPECT_DOUBLE_EQ(RunawayDistanceMeters(900, 33.0), 29700.0);
  EXPECT_DOUBLE_EQ(RunawayDistanceMeters(60, 10.0), 600.0);
}

TEST(WindowSegmentTree, EmptyTree) {
  const WindowSegmentTree t = WindowSegmentTree::Build({});
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.total_records(), 0u);
  EXPECT_FALSE(t.DominatingCell(0, 100, 0).has_value());
}

TEST(WindowSegmentTree, SingleLeaf) {
  const CellId c = Cell(12, 100, 200);
  const WindowSegmentTree t = WindowSegmentTree::Build({{5, c, 3}});
  EXPECT_FALSE(t.empty());
  EXPECT_EQ(t.num_windows(), 1u);
  EXPECT_EQ(t.min_window(), 5);
  EXPECT_EQ(t.max_window(), 5);
  EXPECT_EQ(t.total_records(), 3u);
  EXPECT_EQ(t.DominatingCell(5, 6, 12).value(), c);
  EXPECT_FALSE(t.DominatingCell(6, 10, 12).has_value());
  EXPECT_EQ(t.RangeRecordCount(0, 100), 3u);
}

TEST(WindowSegmentTree, DuplicateEntriesAreSummed) {
  const CellId c = Cell(12, 1, 1);
  const WindowSegmentTree t =
      WindowSegmentTree::Build({{3, c, 2}, {3, c, 5}});
  EXPECT_EQ(t.total_records(), 7u);
  const auto counts = t.RangeCellCounts(3, 4, 12);
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0].second, 7u);
}

TEST(WindowSegmentTree, DominatingCellPicksMaxCount) {
  const CellId a = Cell(12, 10, 10);
  const CellId b = Cell(12, 20, 20);
  const WindowSegmentTree t = WindowSegmentTree::Build({
      {0, a, 3},
      {0, b, 2},
      {1, b, 4},
  });
  EXPECT_EQ(t.DominatingCell(0, 1, 12).value(), a);   // 3 vs 2
  EXPECT_EQ(t.DominatingCell(0, 2, 12).value(), b);   // 3 vs 6
  EXPECT_EQ(t.DominatingCell(1, 2, 12).value(), b);
}

TEST(WindowSegmentTree, DominatingCellTieBreaksDeterministically) {
  const CellId a = Cell(12, 10, 10);
  const CellId b = Cell(12, 20, 20);
  const WindowSegmentTree t =
      WindowSegmentTree::Build({{0, a, 2}, {0, b, 2}});
  // Equal counts -> smaller cell id wins.
  EXPECT_EQ(t.DominatingCell(0, 1, 12).value(), std::min(a, b));
}

TEST(WindowSegmentTree, CoarserLevelAggregatesSiblings) {
  // Two sibling leaf cells with 2+2 records vs a distant cell with 3:
  // at the leaf level the distant cell dominates, at the parent level the
  // siblings' combined count (4) wins.
  const CellId parent = Cell(11, 100, 100);
  const CellId sib0 = parent.Child(0);
  const CellId sib1 = parent.Child(1);
  const CellId far = Cell(12, 1000, 1000);
  const WindowSegmentTree t = WindowSegmentTree::Build({
      {0, sib0, 2},
      {0, sib1, 2},
      {0, far, 3},
  });
  EXPECT_EQ(t.DominatingCell(0, 1, 12).value(), far);
  EXPECT_EQ(t.DominatingCell(0, 1, 11).value(), parent);
}

TEST(WindowSegmentTree, SparseWindowsQueryCorrectly) {
  const CellId a = Cell(10, 5, 5);
  const CellId b = Cell(10, 6, 6);
  const WindowSegmentTree t = WindowSegmentTree::Build({
      {-100, a, 1},
      {0, b, 2},
      {1000, a, 5},
  });
  EXPECT_EQ(t.min_window(), -100);
  EXPECT_EQ(t.max_window(), 1000);
  EXPECT_EQ(t.RangeRecordCount(-100, 1001), 8u);
  EXPECT_EQ(t.RangeRecordCount(-99, 1000), 2u);
  EXPECT_EQ(t.DominatingCell(500, 1001, 10).value(), a);
}

// Property test: range queries must agree with a brute-force recomputation
// over random leaf data, for random ranges and levels. The entries repeat
// (window, cell) pairs and arrive unsorted; the same entries sorted take
// the build's no-sort path, and both indexes must give the same answers.
class WindowTreeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WindowTreeProperty, RangeCountsMatchBruteForce) {
  Rng rng(GetParam());
  std::vector<WindowedCellCount> entries;
  const int n = 200;
  for (int k = 0; k < n; ++k) {
    // A 16 x 16 patch of cells and counts 1..3 make equal maximal counts
    // (ties) common at every query level.
    entries.push_back(
        {rng.NextInt64(-50, 50),
         Cell(14, rng.NextUint64(16) + 1000, rng.NextUint64(16) + 1000),
         static_cast<uint32_t>(rng.NextInt64(1, 3))});
  }
  for (int k = 0; k < n / 4; ++k) {
    entries.push_back(entries[rng.NextUint64(n)]);
  }
  const auto before = [](const WindowedCellCount& a,
                         const WindowedCellCount& b) {
    return a.window != b.window ? a.window < b.window : a.cell < b.cell;
  };
  ASSERT_FALSE(std::is_sorted(entries.begin(), entries.end(), before));
  std::vector<WindowedCellCount> sorted = entries;
  std::sort(sorted.begin(), sorted.end(), before);
  const WindowSegmentTree unsorted_tree = WindowSegmentTree::Build(entries);
  const WindowSegmentTree sorted_tree = WindowSegmentTree::Build(sorted);

  for (int q = 0; q < 50; ++q) {
    const int64_t lo = rng.NextInt64(-60, 60);
    const int64_t hi = lo + rng.NextInt64(0, 40);
    const int level = static_cast<int>(rng.NextInt64(8, 14));

    // Brute force.
    std::map<CellId, uint32_t> expect;
    uint64_t expect_total = 0;
    for (const auto& e : entries) {
      if (e.window >= lo && e.window < hi) {
        expect[e.cell.Parent(level)] += e.count;
        expect_total += e.count;
      }
    }
    // The dominating cell: the first, so smallest, cell of maximal count.
    uint32_t best_count = 0;
    CellId best;
    for (const auto& [cell, count] : expect) {
      if (count > best_count) {
        best_count = count;
        best = cell;
      }
    }

    for (const WindowSegmentTree* tree : {&unsorted_tree, &sorted_tree}) {
      const auto got = tree->RangeCellCounts(lo, hi, level);
      ASSERT_EQ(got, WindowSegmentTree::CellCounts(expect.begin(),
                                                   expect.end()))
          << "range [" << lo << "," << hi << ")";
      EXPECT_EQ(tree->RangeRecordCount(lo, hi), expect_total);
      const auto dom = tree->DominatingCell(lo, hi, level);
      if (expect.empty()) {
        EXPECT_FALSE(dom.has_value());
      } else {
        EXPECT_EQ(dom, best) << "range [" << lo << "," << hi << ") level "
                             << level;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowTreeProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace slim
