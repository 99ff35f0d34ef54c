#include "lsh/signature.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/candidates.h"
#include "core/history.h"
#include "core/linkage_context.h"
#include "stats/lambert_w.h"
#include "test_util.h"

namespace slim {
namespace {

CellId Cell(int level, uint64_t i, uint64_t j) {
  return CellId::FromIndices(level, i, j);
}

WindowSegmentTree TreeOf(std::vector<WindowedCellCount> entries) {
  return WindowSegmentTree::Build(std::move(entries));
}

TEST(Signature, PaperIllustrativeExample) {
  // Fig. 3: 12 leaf windows, queries of 3 windows -> signature length 4.
  // "Circle" dominates query 1 for entity u (3 visits vs 2).
  const CellId circle = Cell(12, 100, 100);
  const CellId square = Cell(12, 200, 200);
  const WindowSegmentTree tree = TreeOf({
      {0, circle, 1}, {0, square, 1}, {1, circle, 1}, {1, square, 1},
      {2, circle, 1},                                      // query 1: c=3,s=2
      {3, square, 1}, {4, square, 1}, {5, circle, 1},      // query 2: s=2,c=1
      // query 3 (windows 6-8): empty -> placeholder
      {9, circle, 1}, {10, circle, 1}, {11, circle, 1},    // query 4: c=3
  });
  const LshSignature sig = BuildSignature(tree, 0, 12, 3, 12);
  ASSERT_EQ(sig.size(), 4u);
  EXPECT_EQ(sig.cells[0], circle.raw());
  EXPECT_EQ(sig.cells[1], square.raw());
  EXPECT_TRUE(sig.IsPlaceholder(2));
  EXPECT_EQ(sig.cells[3], circle.raw());
}

TEST(Signature, EmptyTreeIsAllPlaceholders) {
  const WindowSegmentTree tree = WindowSegmentTree::Build({});
  const LshSignature sig = BuildSignature(tree, 0, 10, 2, 12);
  ASSERT_EQ(sig.size(), 5u);
  for (size_t k = 0; k < sig.size(); ++k) EXPECT_TRUE(sig.IsPlaceholder(k));
}

TEST(Signature, CoarserSpatialLevelAggregates) {
  const CellId parent = Cell(11, 50, 50);
  const WindowSegmentTree tree = TreeOf({
      {0, parent.Child(0), 1},
      {0, parent.Child(1), 1},
      {0, Cell(12, 900, 900), 1},
  });
  // At leaf level the lone far cell ties at 1-1-1 (smallest id wins); at
  // level 11 the two siblings merge to 2 and the parent dominates.
  const LshSignature coarse = BuildSignature(tree, 0, 1, 1, 11);
  EXPECT_EQ(coarse.cells[0], parent.raw());
}

TEST(Signature, SimilarityCountsMatchingPositions) {
  LshSignature a{{1, 2, 3, 4}};
  LshSignature b{{1, 9, 3, 8}};
  EXPECT_DOUBLE_EQ(SignatureSimilarity(a, b), 0.5);
  EXPECT_DOUBLE_EQ(SignatureSimilarity(a, a), 1.0);
}

TEST(Signature, PlaceholdersNeverMatch) {
  LshSignature a{{kSignaturePlaceholder, 2}};
  LshSignature b{{kSignaturePlaceholder, 2}};
  // Only position 1 counts; the shared placeholder is not evidence.
  EXPECT_DOUBLE_EQ(SignatureSimilarity(a, b), 0.5);
}

TEST(Signature, SimilarityDiesOnSizeMismatch) {
  LshSignature a{{1, 2}};
  LshSignature b{{1}};
  EXPECT_DEATH(SignatureSimilarity(a, b), "mismatch");
}

TEST(Banding, NumBandsMatchesLambertSizing) {
  // b = e^{W(-s ln t)} rounded into [1, s].
  for (const auto& [s, t] : std::vector<std::pair<size_t, double>>{
           {4, 0.6}, {16, 0.6}, {64, 0.5}, {100, 0.8}, {8, 0.2}}) {
    const int b = ComputeNumBands(s, t);
    EXPECT_GE(b, 1);
    EXPECT_LE(b, static_cast<int>(s));
    const double exact = std::exp(
        LambertW0(-static_cast<double>(s) * std::log(t)));
    EXPECT_NEAR(b, exact, 0.51) << "s=" << s << " t=" << t;
  }
}

TEST(Banding, MoreBandsForLowerThresholds) {
  // Lower t -> hash more aggressively (more bands, shorter rows).
  EXPECT_GE(ComputeNumBands(64, 0.3), ComputeNumBands(64, 0.8));
}

TEST(Banding, CollisionProbabilityIsAnSCurve) {
  const int r = 4, b = 16;
  double prev = -1.0;
  for (double t = 0.0; t <= 1.0; t += 0.05) {
    const double p = BandCollisionProbability(t, r, b);
    EXPECT_GE(p, prev - 1e-12);  // monotone
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
  EXPECT_NEAR(BandCollisionProbability(0.0, r, b), 0.0, 1e-12);
  EXPECT_NEAR(BandCollisionProbability(1.0, r, b), 1.0, 1e-12);
  // Around the approximate threshold the curve is in its steep middle.
  const double t_star = ApproximateThreshold(r, b);
  const double p_star = BandCollisionProbability(t_star, r, b);
  EXPECT_GT(p_star, 0.3);
  EXPECT_LT(p_star, 0.9);
}

TEST(Banding, ApproximateThresholdFormula) {
  EXPECT_NEAR(ApproximateThreshold(2, 4), std::pow(0.25, 0.5), 1e-12);
  EXPECT_NEAR(ApproximateThreshold(5, 20), std::pow(0.05, 0.2), 1e-12);
}

TEST(Signature, QueriesAlignAcrossHistories) {
  // Two trees over different window subsets must produce signatures whose
  // positions refer to the same query ranges.
  const CellId a = Cell(12, 1, 1);
  const CellId b = Cell(12, 2, 2);
  const WindowSegmentTree t1 = TreeOf({{0, a, 1}, {5, b, 1}});
  const WindowSegmentTree t2 = TreeOf({{1, a, 1}, {4, b, 1}});
  const LshSignature s1 = BuildSignature(t1, 0, 6, 3, 12);
  const LshSignature s2 = BuildSignature(t2, 0, 6, 3, 12);
  ASSERT_EQ(s1.size(), 2u);
  ASSERT_EQ(s2.size(), 2u);
  // Query 0 covers windows [0,3): both entities dominated by cell a.
  EXPECT_EQ(s1.cells[0], a.raw());
  EXPECT_EQ(s2.cells[0], a.raw());
  EXPECT_EQ(s1.cells[1], b.raw());
  EXPECT_EQ(s2.cells[1], b.raw());
  EXPECT_DOUBLE_EQ(SignatureSimilarity(s1, s2), 1.0);
}

TEST(Signature, StepLargerThanSpanYieldsSingleQuery) {
  const WindowSegmentTree tree = TreeOf({{0, Cell(12, 1, 1), 1}});
  const LshSignature sig = BuildSignature(tree, 0, 3, 100, 12);
  EXPECT_EQ(sig.size(), 1u);
}

// The pipeline's signatures (BuildSignature over each store's index on the
// GlobalWindowSpan grid) against an aggregation made here from each
// entity's GroupRecordsIntoBins output: per step, the records of every bin
// in the step summed under its cell's ancestor at the signature level; the
// most records win, the smaller cell on a tie, and a step without records
// is a placeholder.
TEST(Signature, ContextSignaturesMatchAPerStepAggregationOfTheBins) {
  constexpr int64_t kWindow = 900;
  auto random_dataset = [](uint64_t seed, const char* name) {
    Rng rng(seed);
    LocationDataset ds(name);
    for (EntityId e = 0; e < 12; ++e) {
      for (int i = 0; i < 80; ++i) {
        // Pre-epoch windows too, and a few entities with no record in most
        // steps.
        const int64_t window = e % 4 == 0 ? rng.NextInt64(30, 33)
                                          : rng.NextInt64(-20, 60);
        ds.Add(e, testing::RandomPointInBox(&rng),
               window * kWindow + rng.NextInt64(0, kWindow - 1));
      }
    }
    ds.Finalize();
    return ds;
  };
  const LocationDataset a = random_dataset(11, "a");
  const LocationDataset b = random_dataset(12, "b");
  HistoryConfig config;
  config.spatial_level = 14;
  config.window_seconds = kWindow;
  const LinkageContext ctx = LinkageContext::Build(a, b, config, 3);
  const LshWindowSpan span = GlobalWindowSpan(ctx);
  ASSERT_FALSE(span.empty());

  for (const auto& [step, level] :
       std::vector<std::pair<int, int>>{{1, 14}, {3, 14}, {8, 11}, {48, 9}}) {
    for (const auto& [store, ds] : {std::pair{&ctx.store_e, &a},
                                    std::pair{&ctx.store_i, &b}}) {
      for (EntityIdx u = 0; u < store->size(); ++u) {
        const std::vector<TimeLocationBin> bins = GroupRecordsIntoBins(
            ds->RecordsOf(store->entity_id(u)), config);
        std::vector<uint64_t> expect;
        for (int64_t lo = span.lo; lo < span.end; lo += step) {
          const int64_t hi = std::min(span.end, lo + step);
          std::map<CellId, uint64_t> counts;
          for (const TimeLocationBin& bin : bins) {
            if (bin.window >= lo && bin.window < hi) {
              counts[bin.cell.Parent(level)] += bin.record_count;
            }
          }
          uint64_t best = kSignaturePlaceholder;
          uint64_t best_count = 0;
          for (const auto& [cell, count] : counts) {
            if (count > best_count) {
              best = cell.raw();
              best_count = count;
            }
          }
          expect.push_back(best);
        }
        const LshSignature sig =
            BuildSignature(store->tree(u), span.lo, span.end, step, level);
        EXPECT_EQ(sig.cells, expect)
            << "entity " << u << " step " << step << " level " << level;
      }
    }
  }
}

}  // namespace
}  // namespace slim
