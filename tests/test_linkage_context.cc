// Tests of the dense interned core (core/linkage_context.h): vocabulary
// ordering and lookup, and the CSR layout and per-bin statistics checked
// against an independent reference built here — GroupRecordsIntoBins per
// entity plus a std::map holder count.
#include "core/linkage_context.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/history.h"
#include "data/cab_generator.h"
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

LocationDataset RandomDataset(uint64_t seed, int entities, int records,
                              const char* name) {
  Rng rng(seed);
  LocationDataset ds(name);
  for (int e = 0; e < entities; ++e) {
    for (int i = 0; i < records; ++i) {
      ds.Add(e, testing::RandomPointInBox(&rng),
             rng.NextInt64(0, 40) * kWindow + rng.NextInt64(0, kWindow - 1));
    }
  }
  ds.Finalize();
  return ds;
}

// The reference a store must agree with: each entity's binned records, in
// entity-id order, and how many entities hold each (window, cell) bin.
struct ReferenceHistories {
  std::vector<std::vector<TimeLocationBin>> bins;  // per entity
  std::map<std::pair<int64_t, CellId>, uint32_t> holders;
  size_t total_bins = 0;

  ReferenceHistories(const LocationDataset& ds, const HistoryConfig& config) {
    for (const EntityId id : ds.entity_ids()) {
      bins.push_back(GroupRecordsIntoBins(ds.RecordsOf(id), config));
      total_bins += bins.back().size();
      for (const TimeLocationBin& bin : bins.back()) {
        ++holders[{bin.window, bin.cell}];
      }
    }
  }

  uint32_t Holders(int64_t window, CellId cell) const {
    const auto it = holders.find({window, cell});
    return it == holders.end() ? 0 : it->second;
  }
  double AvgBins() const {
    return static_cast<double>(total_bins) / static_cast<double>(bins.size());
  }
};

TEST(BinVocabulary, IdsAreDenseAndOrderedByWindowThenCell) {
  const LocationDataset a = RandomDataset(1, 6, 40, "a");
  const LocationDataset b = RandomDataset(2, 6, 40, "b");
  const LinkageContext ctx = LinkageContext::Build(a, b, Config());
  ASSERT_GT(ctx.vocab.size(), 0u);
  for (BinId bin = 1; bin < ctx.vocab.size(); ++bin) {
    const bool ordered =
        ctx.vocab.window(bin - 1) < ctx.vocab.window(bin) ||
        (ctx.vocab.window(bin - 1) == ctx.vocab.window(bin) &&
         ctx.vocab.cell(bin - 1) < ctx.vocab.cell(bin));
    EXPECT_TRUE(ordered) << "bin " << bin;
  }
  // Find() inverts the id assignment, and misses report nullopt.
  for (BinId bin = 0; bin < ctx.vocab.size(); ++bin) {
    const auto found = ctx.vocab.Find(ctx.vocab.window(bin),
                                      ctx.vocab.cell(bin));
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, bin);
  }
  EXPECT_FALSE(ctx.vocab.Find(999999, ctx.vocab.cell(0)).has_value());
}

TEST(HistoryStore, CsrLayoutMatchesPerEntityBinning) {
  const LocationDataset a = RandomDataset(3, 8, 60, "a");
  const LocationDataset b = RandomDataset(4, 8, 60, "b");
  const LinkageContext ctx = LinkageContext::Build(a, b, Config());
  const ReferenceHistories ref(a, Config());

  ASSERT_EQ(ctx.store_e.size(), ref.bins.size());
  for (EntityIdx u = 0; u < ctx.store_e.size(); ++u) {
    const EntityId id = a.entity_ids()[u];
    const std::vector<TimeLocationBin>& ref_bins = ref.bins[u];
    ASSERT_EQ(ctx.store_e.entity_id(u), id);
    EXPECT_EQ(*ctx.store_e.IndexOf(id), u);
    ASSERT_EQ(ctx.store_e.num_bins(u), ref_bins.size());
    EXPECT_EQ(ctx.store_e.total_records(u), a.RecordsOf(id).size());

    // Bin spans must decode to the reference bins, in the same order.
    const auto bins = ctx.store_e.bins(u);
    const auto counts = ctx.store_e.counts(u);
    for (size_t k = 0; k < bins.size(); ++k) {
      EXPECT_EQ(ctx.vocab.window(bins[k]), ref_bins[k].window);
      EXPECT_EQ(ctx.vocab.cell(bins[k]), ref_bins[k].cell);
      EXPECT_EQ(counts[k], ref_bins[k].record_count);
      if (k > 0) {
        EXPECT_LT(bins[k - 1], bins[k]);  // ascending BinIds
      }
    }

    // Window index: the reference's distinct windows, and per window as
    // many bins as the reference files under it.
    std::vector<int64_t> ref_windows;
    std::vector<size_t> ref_window_bins;
    for (const TimeLocationBin& bin : ref_bins) {
      if (ref_windows.empty() || ref_windows.back() != bin.window) {
        ref_windows.push_back(bin.window);
        ref_window_bins.push_back(0);
      }
      ++ref_window_bins.back();
    }
    const auto windows = ctx.store_e.windows(u);
    ASSERT_EQ(std::vector<int64_t>(windows.begin(), windows.end()),
              ref_windows);
    for (size_t k = 0; k < windows.size(); ++k) {
      const auto [begin, end] = ctx.store_e.WindowBinRange(u, k);
      ASSERT_EQ(end - begin, ref_window_bins[k]);
      for (uint32_t pos = begin; pos < end; ++pos) {
        EXPECT_EQ(ctx.vocab.window(ctx.store_e.bin_ids()[pos]), windows[k]);
      }
    }

    // Trees carry the aggregates of a tree over the reference bins.
    std::vector<WindowedCellCount> entries;
    for (const TimeLocationBin& bin : ref_bins) {
      entries.push_back({bin.window, bin.cell, bin.record_count});
    }
    const WindowSegmentTree ref_tree =
        WindowSegmentTree::Build(std::move(entries));
    EXPECT_EQ(ctx.store_e.tree(u).total_records(), ref_tree.total_records());
    EXPECT_EQ(ctx.store_e.tree(u).num_windows(), ref_tree.num_windows());
  }
  EXPECT_DOUBLE_EQ(ctx.store_e.avg_bins(), ref.AvgBins());
}

TEST(HistoryStore, WindowMaskCoversEveryOccupiedWindow) {
  const LocationDataset a = RandomDataset(31, 8, 60, "a");
  const LocationDataset b = RandomDataset(32, 8, 60, "b");
  const LinkageContext ctx = LinkageContext::Build(a, b, Config());
  for (const HistoryStore* store : {&ctx.store_e, &ctx.store_i}) {
    for (EntityIdx u = 0; u < store->size(); ++u) {
      const uint64_t* mask = store->window_mask(u);
      // The fingerprint is a superset summary: every occupied window must
      // have its (window mod 512) bit set, or the scoring prefilter could
      // wrongly prove an intersection empty.
      for (const int64_t w : store->windows(u)) {
        const uint64_t uw = static_cast<uint64_t>(w);
        const uint64_t word = mask[(uw >> 6) % HistoryStore::kWindowMaskWords];
        EXPECT_NE(word & (uint64_t{1} << (uw & 63)), 0u)
            << "entity " << u << " window " << w;
      }
      // And an empty history must have an all-zero mask, so the prefilter
      // also covers the empty case.
      if (store->windows(u).empty()) {
        for (size_t k = 0; k < HistoryStore::kWindowMaskWords; ++k) {
          EXPECT_EQ(mask[k], 0u);
        }
      }
    }
  }
}

TEST(HistoryStore, FlatStatisticsMatchAReferenceHolderCount) {
  const LocationDataset a = RandomDataset(5, 10, 50, "a");
  const LocationDataset b = RandomDataset(6, 10, 50, "b");
  const LinkageContext ctx = LinkageContext::Build(a, b, Config());
  const ReferenceHistories ref_e(a, Config());
  const ReferenceHistories ref_i(b, Config());

  // idf = log(n / holders), or log(n) for a bin only the other side holds.
  auto ref_idf = [](const ReferenceHistories& ref, uint32_t holders) {
    const double n = static_cast<double>(ref.bins.size());
    return holders == 0 ? std::log(n)
                        : std::log(n / static_cast<double>(holders));
  };
  for (BinId bin = 0; bin < ctx.vocab.size(); ++bin) {
    const int64_t w = ctx.vocab.window(bin);
    const CellId cell = ctx.vocab.cell(bin);
    const uint32_t holders_e = ref_e.Holders(w, cell);
    const uint32_t holders_i = ref_i.Holders(w, cell);
    EXPECT_EQ(ctx.store_e.bin_entity_count(bin), holders_e);
    EXPECT_EQ(ctx.store_i.bin_entity_count(bin), holders_i);
    // Bit-equal, not approximately equal: the dense store must keep the
    // formula's arithmetic exactly.
    EXPECT_EQ(ctx.store_e.idf(bin), ref_idf(ref_e, holders_e)) << "bin " << bin;
    EXPECT_EQ(ctx.store_i.idf(bin), ref_idf(ref_i, holders_i)) << "bin " << bin;
  }
  // Length normalisation L = (1 - b) + b * |H_u| / avg|H|, at a few b.
  for (double bee : {0.0, 0.5, 1.0}) {
    for (EntityIdx u = 0; u < ctx.store_e.size(); ++u) {
      const double rel =
          static_cast<double>(ref_e.bins[u].size()) / ref_e.AvgBins();
      EXPECT_EQ(ctx.store_e.LengthNorm(u, bee), (1.0 - bee) + bee * rel);
    }
  }
}

TEST(HistoryStore, LookupMissesReturnNullopt) {
  const LocationDataset a = RandomDataset(7, 3, 20, "a");
  const LocationDataset b = RandomDataset(8, 3, 20, "b");
  const LinkageContext ctx = LinkageContext::Build(a, b, Config());
  EXPECT_FALSE(ctx.store_e.IndexOf(12345).has_value());
  EXPECT_TRUE(ctx.store_e.IndexOf(0).has_value());
}

TEST(LinkageContext, EmptyDatasetsBuildEmptyStores) {
  LocationDataset a("a"), b("b");
  a.Finalize();
  b.Finalize();
  const LinkageContext ctx = LinkageContext::Build(a, b, Config());
  EXPECT_EQ(ctx.vocab.size(), 0u);
  EXPECT_EQ(ctx.store_e.size(), 0u);
  EXPECT_EQ(ctx.store_i.size(), 0u);
  EXPECT_DOUBLE_EQ(ctx.store_e.avg_bins(), 0.0);
}

TEST(LinkageContext, RegionRecordsFanOutAcrossCells) {
  // A region record must intern one bin per covered leaf cell, mirroring
  // the sparse representation's Sec. 2.1 extension.
  LocationDataset a("a"), b("b");
  a.Add(0, {37.7, -122.4}, 100);
  b.Add(0, {37.7, -122.4}, 100);
  a.Finalize();
  b.Finalize();
  HistoryConfig point_cfg = Config(14);
  HistoryConfig region_cfg = Config(14);
  region_cfg.region_radius_meters = 3000.0;
  const LinkageContext points = LinkageContext::Build(a, b, point_cfg);
  const LinkageContext regions = LinkageContext::Build(a, b, region_cfg);
  EXPECT_EQ(points.store_e.num_bins(0), 1u);
  EXPECT_GT(regions.store_e.num_bins(0), 1u);
  EXPECT_EQ(regions.store_e.total_records(0), 1u);
}

}  // namespace
}  // namespace slim
