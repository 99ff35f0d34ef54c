#include "geo/covering.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/history.h"

namespace slim {
namespace {

TEST(Covering, SingleCellForTinyRect) {
  const LatLng p{37.7, -122.4};
  const CellId home = CellId::FromLatLng(p, 12);
  LatLngRect r;
  r.lat_lo = p.lat_deg - 1e-7;
  r.lat_hi = p.lat_deg + 1e-7;
  r.lng_lo = p.lng_deg - 1e-7;
  r.lng_hi = p.lng_deg + 1e-7;
  const auto cells = CellsCoveringRect(r, 12);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0], home);
}

TEST(Covering, RectSpanningCellBoundaryGetsBothCells) {
  const CellId c = CellId::FromLatLng({37.7, -122.4}, 12);
  const LatLngRect b = c.Bounds();
  LatLngRect r;
  r.lat_lo = b.lat_hi - 1e-6;  // straddles the northern edge
  r.lat_hi = b.lat_hi + 1e-6;
  r.lng_lo = b.lng_lo + 1e-6;
  r.lng_hi = b.lng_lo + 2e-6;
  const auto cells = CellsCoveringRect(r, 12);
  EXPECT_EQ(cells.size(), 2u);
}

TEST(Covering, CellsContainTheirPartOfTheRect) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    LatLngRect r;
    const double lat = rng.NextDouble(-60, 60);
    const double lng = rng.NextDouble(-170, 170);
    r.lat_lo = lat;
    r.lat_hi = lat + rng.NextDouble(0.0, 0.2);
    r.lng_lo = lng;
    r.lng_hi = lng + rng.NextDouble(0.0, 0.2);
    const int level = 10;
    const auto cells = CellsCoveringRect(r, level);
    ASSERT_FALSE(cells.empty());
    // The rect's corners must be inside the covering.
    for (const LatLng corner : {LatLng{r.lat_lo, r.lng_lo},
                                LatLng{r.lat_hi, r.lng_hi},
                                LatLng{r.lat_lo, r.lng_hi},
                                LatLng{r.lat_hi, r.lng_lo}}) {
      const CellId c = CellId::FromLatLng(corner, level);
      EXPECT_NE(std::find(cells.begin(), cells.end(), c), cells.end());
    }
    // No duplicates.
    auto sorted = cells;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  }
}

TEST(Covering, WrapsAcrossAntimeridian) {
  LatLngRect r;
  r.lat_lo = 0.0;
  r.lat_hi = 0.01;
  r.lng_lo = 179.95;
  r.lng_hi = -179.95;  // crosses the antimeridian
  const auto cells = CellsCoveringRect(r, 12);
  EXPECT_GE(cells.size(), 2u);
  bool east = false, west = false;
  for (const CellId c : cells) {
    const double lng = c.CenterLatLng().lng_deg;
    east |= lng > 0;
    west |= lng < 0;
  }
  EXPECT_TRUE(east);
  EXPECT_TRUE(west);
}

TEST(Covering, DiscContainsItsCenterCell) {
  Rng rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    const LatLng center{rng.NextDouble(-60, 60), rng.NextDouble(-170, 170)};
    const auto cells = CellsCoveringDisc(center, 5000.0, 12);
    const CellId cc = CellId::FromLatLng(center, 12);
    EXPECT_NE(std::find(cells.begin(), cells.end(), cc), cells.end());
  }
}

TEST(Covering, DiscCoverageGrowsWithRadius) {
  const LatLng center{37.7, -122.4};
  const auto small = CellsCoveringDisc(center, 100.0, 14);
  const auto big = CellsCoveringDisc(center, 10000.0, 14);
  EXPECT_LT(small.size(), big.size());
}

TEST(Covering, ZeroRadiusDiscIsOneCell) {
  const auto cells = CellsCoveringDisc({37.7, -122.4}, 0.0, 12);
  EXPECT_EQ(cells.size(), 1u);
}

TEST(Covering, DiesWhenExceedingMaxCells) {
  LatLngRect r;
  r.lat_lo = -80;
  r.lat_hi = 80;
  r.lng_lo = -179;
  r.lng_hi = 179;
  EXPECT_DEATH(CellsCoveringRect(r, 20, 1024), "max_cells");
}

// --- The region-records extension (paper Sec. 2.1) through histories. ---

TEST(RegionRecords, RecordSpansMultipleBins) {
  LocationDataset ds("region");
  ds.Add(1, {37.7, -122.4}, 100);
  ds.Finalize();

  HistoryConfig point_cfg;
  point_cfg.spatial_level = 14;
  HistoryConfig region_cfg = point_cfg;
  region_cfg.region_radius_meters = 3000.0;  // level-14 cells are ~1.2 km

  const auto points = GroupRecordsIntoBins(ds.RecordsOf(1), point_cfg);
  const auto regions = GroupRecordsIntoBins(ds.RecordsOf(1), region_cfg);
  EXPECT_EQ(points.size(), 1u);
  EXPECT_GT(regions.size(), 4u);
  // All bins sit in the same window.
  for (const auto& bin : regions) {
    EXPECT_EQ(bin.window, 0);
  }
}

TEST(RegionRecords, RegionOverlapMakesBoundaryNeighborsMatchExactly) {
  // Two entities on either side of a cell boundary: as points they occupy
  // different cells; as regions their bins overlap and proximity becomes
  // exact (distance 0 via a shared cell).
  const CellId cell = CellId::FromLatLng({37.7, -122.4}, 14);
  const LatLngRect b = cell.Bounds();
  LocationDataset ds("region");
  ds.Add(1, {b.lat_hi - 1e-5, -122.4}, 100);  // just south of the edge
  ds.Add(2, {b.lat_hi + 1e-5, -122.4}, 100);  // just north of the edge
  ds.Finalize();

  HistoryConfig cfg;
  cfg.spatial_level = 14;
  cfg.region_radius_meters = 500.0;
  // The two entities share at least one bin.
  const auto b1 = GroupRecordsIntoBins(ds.RecordsOf(1), cfg);
  const auto b2 = GroupRecordsIntoBins(ds.RecordsOf(2), cfg);
  bool shared = false;
  for (const auto& x : b1) {
    for (const auto& y : b2) shared |= (x.cell == y.cell);
  }
  EXPECT_TRUE(shared);
}

}  // namespace
}  // namespace slim
