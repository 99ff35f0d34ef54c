#include "data/dataset.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace slim {
namespace {

LocationDataset SmallDataset() {
  LocationDataset ds("t");
  ds.Add(2, {37.1, -122.1}, 300);
  ds.Add(1, {37.2, -122.2}, 100);
  ds.Add(2, {37.3, -122.3}, 100);
  ds.Add(1, {37.4, -122.4}, 200);
  ds.Add(3, {37.5, -122.5}, 50);
  ds.Finalize();
  return ds;
}

TEST(LocationDataset, FinalizeSortsByEntityThenTime) {
  const LocationDataset ds = SmallDataset();
  const auto& r = ds.records();
  ASSERT_EQ(r.size(), 5u);
  EXPECT_EQ(r[0].entity, 1);
  EXPECT_EQ(r[0].timestamp, 100);
  EXPECT_EQ(r[1].entity, 1);
  EXPECT_EQ(r[1].timestamp, 200);
  EXPECT_EQ(r[2].entity, 2);
  EXPECT_EQ(r[2].timestamp, 100);
  EXPECT_EQ(r[4].entity, 3);
}

TEST(LocationDataset, EntityIdsSortedAndCounted) {
  const LocationDataset ds = SmallDataset();
  EXPECT_EQ(ds.num_entities(), 3u);
  EXPECT_EQ(ds.entity_ids(), (std::vector<EntityId>{1, 2, 3}));
}

TEST(LocationDataset, RecordsOfReturnsContiguousSpan) {
  const LocationDataset ds = SmallDataset();
  const auto span = ds.RecordsOf(2);
  ASSERT_EQ(span.size(), 2u);
  EXPECT_EQ(span[0].timestamp, 100);
  EXPECT_EQ(span[1].timestamp, 300);
  EXPECT_TRUE(ds.RecordsOf(99).empty());
}

TEST(LocationDataset, ContainsEntity) {
  const LocationDataset ds = SmallDataset();
  EXPECT_TRUE(ds.ContainsEntity(1));
  EXPECT_FALSE(ds.ContainsEntity(42));
}

TEST(LocationDataset, TimeRange) {
  const LocationDataset ds = SmallDataset();
  const auto [lo, hi] = ds.TimeRange();
  EXPECT_EQ(lo, 50);
  EXPECT_EQ(hi, 300);
}

TEST(LocationDataset, AvgRecordsPerEntity) {
  const LocationDataset ds = SmallDataset();
  EXPECT_NEAR(ds.AvgRecordsPerEntity(), 5.0 / 3.0, 1e-12);
}

TEST(LocationDataset, FilterMinRecordsDropsSparseEntities) {
  LocationDataset ds = SmallDataset();
  const size_t removed = ds.FilterMinRecords(2);
  EXPECT_EQ(removed, 1u);  // entity 3 had one record
  EXPECT_EQ(ds.num_entities(), 2u);
  EXPECT_FALSE(ds.ContainsEntity(3));
  EXPECT_EQ(ds.num_records(), 4u);
}

TEST(LocationDataset, FilterMinRecordsKeepsEverythingAtOne) {
  LocationDataset ds = SmallDataset();
  EXPECT_EQ(ds.FilterMinRecords(1), 0u);
  EXPECT_EQ(ds.num_entities(), 3u);
}

TEST(LocationDataset, FromRecordsFinalizes) {
  std::vector<Record> recs = {{7, {1.0, 2.0}, 10}, {7, {1.0, 2.0}, 5}};
  const LocationDataset ds = LocationDataset::FromRecords("x", recs);
  EXPECT_TRUE(ds.finalized());
  EXPECT_EQ(ds.records()[0].timestamp, 5);
  EXPECT_EQ(ds.name(), "x");
}

TEST(LocationDataset, EmptyDatasetBehaves) {
  LocationDataset ds("empty");
  ds.Finalize();
  EXPECT_EQ(ds.num_entities(), 0u);
  EXPECT_EQ(ds.num_records(), 0u);
  EXPECT_DOUBLE_EQ(ds.AvgRecordsPerEntity(), 0.0);
}

TEST(LocationDataset, AddAfterFinalizeRequiresRefinalize) {
  LocationDataset ds = SmallDataset();
  ds.Add(9, {37.0, -122.0}, 1);
  EXPECT_FALSE(ds.finalized());
  ds.Finalize();
  EXPECT_EQ(ds.num_entities(), 4u);
}

// Every read accessor of `grown` equals FromRecords over `all`.
void ExpectReadsLikeFromRecords(const LocationDataset& grown,
                                const std::vector<Record>& all) {
  const LocationDataset fresh = LocationDataset::FromRecords("fresh", all);
  EXPECT_EQ(grown.records(), fresh.records());
  EXPECT_EQ(grown.entity_ids(), fresh.entity_ids());
  for (const EntityId e : fresh.entity_ids()) {
    const auto g = grown.RecordsOf(e);
    const auto f = fresh.RecordsOf(e);
    EXPECT_TRUE(std::equal(g.begin(), g.end(), f.begin(), f.end()))
        << "entity " << e;
  }
}

// A dataset grown in rounds of Add + Finalize (the serve daemon's pattern,
// where Finalize merges each round into the sorted prefix) reads exactly
// like FromRecords over every record added so far.
TEST(LocationDataset, RoundsOfAddAndFinalizeEqualFromRecords) {
  LocationDataset grown("grown");
  std::vector<Record> all;
  const auto add = [&](EntityId entity, double lat, int64_t timestamp) {
    const Record r{entity, {lat, -122.0}, timestamp};
    grown.Add(r);
    all.push_back(r);
  };
  const auto finalize_and_compare = [&] {
    grown.Finalize();
    ExpectReadsLikeFromRecords(grown, all);
  };
  // Out of order within and across entities.
  add(2, 37.1, 300);
  add(1, 37.2, 100);
  add(2, 37.3, 100);
  add(1, 37.4, 200);
  finalize_and_compare();
  // A new entity (3), an exact duplicate of a round-1 record, and a
  // timestamp tie on entity 2 broken by location.
  add(3, 37.6, 10);
  add(1, 37.2, 100);
  add(2, 37.0, 300);
  add(3, 37.5, 5);
  finalize_and_compare();
  // Entity 2's new records all sort before its old ones, and entity 0
  // sorts before every existing entity.
  add(2, 37.7, 50);
  add(0, 37.8, 1000);
  add(2, 37.9, 20);
  finalize_and_compare();

  EXPECT_EQ(grown.entity_ids(), (std::vector<EntityId>{0, 1, 2, 3}));
  ASSERT_EQ(grown.RecordsOf(2).size(), 5u);
  EXPECT_EQ(grown.RecordsOf(2).front().timestamp, 20);
}

// The same equality over seeded random rounds with dense ties: few
// entities, few timestamps, few locations, and repeated records.
TEST(LocationDataset, RandomRoundsOfAddAndFinalizeEqualFromRecords) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    LocationDataset grown("grown");
    std::vector<Record> all;
    const size_t num_rounds = 1 + rng.NextUint64(6);
    for (size_t round = 0; round < num_rounds; ++round) {
      const size_t size = rng.NextUint64(40);
      for (size_t k = 0; k < size; ++k) {
        Record r;
        r.entity = static_cast<EntityId>(rng.NextUint64(6));
        r.location = {static_cast<double>(rng.NextUint64(3)),
                      static_cast<double>(rng.NextUint64(3))};
        r.timestamp = static_cast<int64_t>(rng.NextUint64(8));
        // A quarter of the records repeat an earlier one exactly.
        if (!all.empty() && rng.NextUint64(4) == 0) {
          r = all[rng.NextUint64(all.size())];
        }
        grown.Add(r);
        all.push_back(r);
      }
      grown.Finalize();
      ExpectReadsLikeFromRecords(grown, all);
    }
  }
}

TEST(LocationDataset, DeathOnUnfinalizedRead) {
  LocationDataset ds("u");
  ds.Add(1, {0, 0}, 0);
  EXPECT_DEATH((void)ds.records(), "finalized");
}

}  // namespace
}  // namespace slim
