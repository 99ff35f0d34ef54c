// Mobility-history binning (core/history.h) and the per-dataset history
// statistics a HistoryStore (core/linkage_context.h) derives from it: bin
// holder counts, IDF (Eq. 3) and the BM25-style length norm (Eq. 2).
#include "core/history.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/linkage_context.h"
#include "test_util.h"

namespace slim {
namespace {

constexpr int64_t kWindow = 900;

HistoryConfig Config(int level = 12) {
  HistoryConfig c;
  c.spatial_level = level;
  c.window_seconds = kWindow;
  return c;
}

// Sorted distinct windows of (window, cell)-sorted bins.
std::vector<int64_t> WindowsOf(const std::vector<TimeLocationBin>& bins) {
  std::vector<int64_t> windows;
  for (const TimeLocationBin& bin : bins) {
    if (windows.empty() || windows.back() != bin.window) {
      windows.push_back(bin.window);
    }
  }
  return windows;
}

// The dataset on both sides: one store, its statistics over the dataset
// alone.
LinkageContext SymmetricContext(const LocationDataset& ds,
                                const HistoryConfig& config) {
  return LinkageContext::Build(ds, ds, config);
}

TEST(GroupRecordsIntoBins, EmptyRecords) {
  EXPECT_TRUE(GroupRecordsIntoBins({}, Config()).empty());
}

TEST(GroupRecordsIntoBins, GroupsRecordsIntoBins) {
  const LatLng p{37.7, -122.4};
  std::vector<Record> recs = {
      {1, p, 100},   // window 0
      {1, p, 200},   // window 0, same cell -> same bin, count 2
      {1, p, 1000},  // window 1
  };
  const auto bins = GroupRecordsIntoBins(recs, Config());
  ASSERT_EQ(bins.size(), 2u);
  EXPECT_EQ(bins[0].record_count + bins[1].record_count, 3u);
  EXPECT_EQ(WindowsOf(bins), (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(bins[0].window, 0);
  EXPECT_EQ(bins[0].record_count, 2u);
  EXPECT_EQ(bins[0].cell, CellId::FromLatLng(p, 12));
}

TEST(GroupRecordsIntoBins, DistinctCellsSameWindowAreDistinctBins) {
  std::vector<Record> recs = {
      {1, {37.70, -122.40}, 100},
      {1, {37.80, -122.50}, 200},  // far enough for a different level-12 cell
  };
  const auto bins = GroupRecordsIntoBins(recs, Config());
  ASSERT_EQ(bins.size(), 2u);
  EXPECT_EQ(bins[0].window, 0);
  EXPECT_EQ(bins[1].window, 0);
}

TEST(GroupRecordsIntoBins, BinsSortedByWindowThenCell) {
  Rng rng(3);
  std::vector<Record> recs;
  for (int i = 0; i < 200; ++i) {
    recs.push_back({1, testing::RandomPointInBox(&rng),
                    rng.NextInt64(0, 50) * kWindow + 10});
  }
  const auto bins = GroupRecordsIntoBins(recs, Config());
  for (size_t i = 1; i < bins.size(); ++i) {
    const auto& prev = bins[i - 1];
    const auto& cur = bins[i];
    EXPECT_TRUE(prev.window < cur.window ||
                (prev.window == cur.window && prev.cell < cur.cell));
  }
}

TEST(GroupRecordsIntoBins, TreeAgreesWithBins) {
  Rng rng(4);
  LocationDataset ds("t");
  for (int i = 0; i < 100; ++i) {
    ds.Add(1, testing::RandomPointInBox(&rng),
           rng.NextInt64(0, 20) * kWindow + 5);
  }
  ds.Finalize();
  const auto bins = GroupRecordsIntoBins(ds.RecordsOf(1), Config());
  const LinkageContext ctx = SymmetricContext(ds, Config());
  const HistoryStore& store = ctx.store_e;
  EXPECT_EQ(store.tree(0).total_records(), 100u);
  EXPECT_EQ(store.tree(0).num_windows(), WindowsOf(bins).size());
  EXPECT_EQ(store.windows(0).size(), WindowsOf(bins).size());
}

TEST(HistoryStore, BuildsAllEntities) {
  LocationDataset ds("t");
  ds.Add(1, {37.7, -122.4}, 100);
  ds.Add(2, {37.7, -122.4}, 100);
  ds.Add(2, {37.7, -122.4}, 2000);
  ds.Finalize();
  const LinkageContext ctx = SymmetricContext(ds, Config());
  const HistoryStore& store = ctx.store_e;
  EXPECT_EQ(store.size(), 2u);
  ASSERT_TRUE(store.IndexOf(1).has_value());
  ASSERT_TRUE(store.IndexOf(2).has_value());
  EXPECT_FALSE(store.IndexOf(3).has_value());
  EXPECT_EQ(store.num_bins(*store.IndexOf(2)), 2u);
  EXPECT_DOUBLE_EQ(store.avg_bins(), 1.5);
}

// The statistics dataset on the left, plus a right side holding one bin
// the left never visits. Only an interned bin has a BinId, so the right
// side is what makes "a bin this store does not hold" addressable.
struct StatsFixture {
  LatLng shared{37.70, -122.40};
  LatLng lonely{37.80, -122.50};
  LocationDataset left{"t"};
  LocationDataset right{"r"};

  StatsFixture(int64_t right_only_window, bool right_at_shared) {
    left.Add(1, shared, 100);
    left.Add(2, shared, 200);
    left.Add(3, shared, 300);
    left.Add(3, lonely, 400);
    left.Finalize();
    right.Add(9, right_at_shared ? shared : lonely,
              right_only_window * kWindow + 10);
    right.Finalize();
  }
};

TEST(HistoryStore, BinEntityCounts) {
  const StatsFixture f(7, /*right_at_shared=*/true);
  const LinkageContext ctx = LinkageContext::Build(f.left, f.right, Config());
  const CellId shared_cell = CellId::FromLatLng(f.shared, 12);
  const CellId lonely_cell = CellId::FromLatLng(f.lonely, 12);
  const auto shared_bin = ctx.vocab.Find(0, shared_cell);
  const auto lonely_bin = ctx.vocab.Find(0, lonely_cell);
  const auto right_only = ctx.vocab.Find(7, shared_cell);
  ASSERT_TRUE(shared_bin && lonely_bin && right_only);
  EXPECT_EQ(ctx.store_e.bin_entity_count(*shared_bin), 3u);
  EXPECT_EQ(ctx.store_e.bin_entity_count(*lonely_bin), 1u);
  EXPECT_EQ(ctx.store_e.bin_entity_count(*right_only), 0u);
}

TEST(HistoryStore, IdfFormula) {
  const StatsFixture f(42, /*right_at_shared=*/false);
  const LinkageContext ctx = LinkageContext::Build(f.left, f.right, Config());
  const CellId shared_cell = CellId::FromLatLng(f.shared, 12);
  const CellId lonely_cell = CellId::FromLatLng(f.lonely, 12);
  // idf = log(N / holders): shared bin held by all 3 -> log(1) = 0.
  EXPECT_NEAR(ctx.store_e.idf(*ctx.vocab.Find(0, shared_cell)), 0.0, 1e-12);
  EXPECT_NEAR(ctx.store_e.idf(*ctx.vocab.Find(0, lonely_cell)), std::log(3.0),
              1e-12);
  // A bin only the other side holds gets the maximal idf log(N).
  EXPECT_NEAR(ctx.store_e.idf(*ctx.vocab.Find(42, lonely_cell)),
              std::log(3.0), 1e-12);
}

TEST(HistoryStore, LengthNormBm25Shape) {
  LocationDataset ds("t");
  // Entity 1: 1 bin. Entity 2: 3 bins. Average = 2.
  ds.Add(1, {37.7, -122.4}, 100);
  ds.Add(2, {37.7, -122.4}, 100);
  ds.Add(2, {37.7, -122.4}, 1000);
  ds.Add(2, {37.7, -122.4}, 2000);
  ds.Finalize();
  const LinkageContext ctx = SymmetricContext(ds, Config());
  const HistoryStore& store = ctx.store_e;
  const EntityIdx h1 = *store.IndexOf(1);
  const EntityIdx h2 = *store.IndexOf(2);
  // b = 0: lengths ignored.
  EXPECT_DOUBLE_EQ(store.LengthNorm(h1, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(store.LengthNorm(h2, 0.0), 1.0);
  // b = 1: pure relative size.
  EXPECT_DOUBLE_EQ(store.LengthNorm(h1, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(store.LengthNorm(h2, 1.0), 1.5);
  // b = 0.5: halfway.
  EXPECT_DOUBLE_EQ(store.LengthNorm(h1, 0.5), 0.75);
  EXPECT_DOUBLE_EQ(store.LengthNorm(h2, 0.5), 1.25);
}

// Property sweep: for any spatial level, total bin records equal dataset
// records, and bin cells carry the configured level.
class HistoryLevelProperty : public ::testing::TestWithParam<int> {};

TEST_P(HistoryLevelProperty, BinInvariantsHold) {
  const int level = GetParam();
  Rng rng(100 + static_cast<uint64_t>(level));
  LocationDataset ds("t");
  for (int e = 0; e < 5; ++e) {
    for (int i = 0; i < 50; ++i) {
      ds.Add(e, testing::RandomPointInBox(&rng),
             rng.NextInt64(0, 30) * kWindow + rng.NextInt64(0, kWindow - 1));
    }
  }
  ds.Finalize();
  const LinkageContext ctx = SymmetricContext(ds, Config(level));
  const HistoryStore& store = ctx.store_e;
  for (EntityIdx u = 0; u < store.size(); ++u) {
    uint64_t records = 0;
    const auto bins = store.bins(u);
    const auto counts = store.counts(u);
    for (size_t k = 0; k < bins.size(); ++k) {
      EXPECT_EQ(ctx.vocab.cell(bins[k]).level(), level);
      EXPECT_GT(counts[k], 0u);
      records += counts[k];
    }
    EXPECT_EQ(records, 50u);
    EXPECT_EQ(store.total_records(u), 50u);
    // Bins per window sum to total bins.
    size_t bins_via_windows = 0;
    for (size_t k = 0; k < store.windows(u).size(); ++k) {
      const auto [begin, end] = store.WindowBinRange(u, k);
      bins_via_windows += end - begin;
    }
    EXPECT_EQ(bins_via_windows, store.num_bins(u));
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, HistoryLevelProperty,
                         ::testing::Values(4, 8, 12, 16, 20, 24));

}  // namespace
}  // namespace slim
