#include "eval/robustness.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/slim.h"
#include "data/commute_generator.h"
#include "data/sampler.h"
#include "eval/metrics.h"
#include "geo/latlng.h"

namespace slim {
namespace {

// One small commute-workload linkage experiment, generated once: dense,
// distinctive traces whose baseline linkage is (near-)perfect, so every
// quality loss in these tests is attributable to the degradation applied.
const LocationDataset& Master() {
  static const LocationDataset ds = [] {
    CommuteGeneratorOptions opt;
    opt.num_commuters = 40;
    opt.duration_days = 5.0;
    return GenerateCommuteDataset(opt);
  }();
  return ds;
}

const LinkedPairSample& Pair() {
  static const LinkedPairSample sample = [] {
    PairSampleOptions opt;
    opt.seed = 7;
    auto s = SampleLinkedPair(Master(), opt);
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    return *std::move(s);
  }();
  return sample;
}

TEST(DegradeDataset, IdentitySpecIsANoOp) {
  const DegradationSpec identity;
  EXPECT_TRUE(IsIdentityDegradation(identity));
  const LocationDataset out = DegradeDataset(Master(), identity);
  EXPECT_EQ(out.records(), Master().records());
}

TEST(DegradeDataset, NonIdentitySpecsAreDetected) {
  DegradationSpec spec;
  spec.gps_noise_meters = 10.0;
  EXPECT_FALSE(IsIdentityDegradation(spec));
  spec = DegradationSpec();
  spec.record_keep_probability = 0.9;
  EXPECT_FALSE(IsIdentityDegradation(spec));
  spec = DegradationSpec();
  spec.entity_keep_fraction = 0.9;
  EXPECT_FALSE(IsIdentityDegradation(spec));
  spec = DegradationSpec();
  spec.truncate_keep_fraction = 0.9;
  EXPECT_FALSE(IsIdentityDegradation(spec));
}

TEST(DegradeDataset, DeterministicPerSeed) {
  DegradationSpec spec;
  spec.gps_noise_meters = 50.0;
  spec.record_keep_probability = 0.5;
  const LocationDataset a = DegradeDataset(Master(), spec);
  const LocationDataset b = DegradeDataset(Master(), spec);
  EXPECT_EQ(a.records(), b.records());
  spec.seed += 1;
  const LocationDataset c = DegradeDataset(Master(), spec);
  EXPECT_NE(a.records(), c.records());
}

TEST(DegradeDataset, TruncationKeepsPerEntityPrefix) {
  DegradationSpec spec;
  spec.truncate_keep_fraction = 0.5;
  const LocationDataset out = DegradeDataset(Master(), spec);
  EXPECT_EQ(out.num_entities(), Master().num_entities());
  for (EntityId e : Master().entity_ids()) {
    const auto full = Master().RecordsOf(e);
    const auto kept = out.RecordsOf(e);
    const size_t expect = static_cast<size_t>(
        std::ceil(0.5 * static_cast<double>(full.size())));
    ASSERT_EQ(kept.size(), expect) << "entity " << e;
    for (size_t k = 0; k < kept.size(); ++k) {
      EXPECT_EQ(kept[k], full[k]) << "entity " << e << " record " << k;
    }
  }
}

TEST(DegradeDataset, EntityDropKeepsExactCount) {
  DegradationSpec spec;
  spec.entity_keep_fraction = 0.4;
  const LocationDataset out = DegradeDataset(Master(), spec);
  const size_t expect = static_cast<size_t>(std::ceil(
      0.4 * static_cast<double>(Master().num_entities())));
  EXPECT_EQ(out.num_entities(), expect);
  // Survivors keep their full, unmodified histories.
  for (EntityId e : out.entity_ids()) {
    const auto full = Master().RecordsOf(e);
    const auto kept = out.RecordsOf(e);
    ASSERT_EQ(kept.size(), full.size()) << "entity " << e;
    for (size_t k = 0; k < kept.size(); ++k) EXPECT_EQ(kept[k], full[k]);
  }
}

TEST(DegradeDataset, DownsampleKeepsApproximateFraction) {
  DegradationSpec spec;
  spec.record_keep_probability = 0.5;
  const LocationDataset out = DegradeDataset(Master(), spec);
  const double fraction = static_cast<double>(out.num_records()) /
                          static_cast<double>(Master().num_records());
  EXPECT_NEAR(fraction, 0.5, 0.05);
  // Every kept record is an original record of the same entity.
  for (EntityId e : out.entity_ids()) {
    const auto full = Master().RecordsOf(e);
    for (const Record& r : out.RecordsOf(e)) {
      EXPECT_TRUE(std::find(full.begin(), full.end(), r) != full.end());
    }
  }
}

TEST(DegradeDataset, NoiseDisplacesLocationsOnly) {
  DegradationSpec spec;
  spec.gps_noise_meters = 50.0;
  const LocationDataset out = DegradeDataset(Master(), spec);
  ASSERT_EQ(out.num_records(), Master().num_records());
  double sum_disp = 0.0;
  const auto& before = Master().records();
  const auto& after = out.records();
  for (size_t k = 0; k < before.size(); ++k) {
    EXPECT_EQ(after[k].entity, before[k].entity);
    EXPECT_EQ(after[k].timestamp, before[k].timestamp);
    sum_disp += HaversineMeters(before[k].location, after[k].location);
  }
  // Half-normal displacement with sigma 50 m has mean ~40 m.
  const double mean_disp = sum_disp / static_cast<double>(before.size());
  EXPECT_GT(mean_disp, 15.0);
  EXPECT_LT(mean_disp, 150.0);
}

TEST(RobustnessSweep, ZeroDegradationLinksNearPerfectly) {
  const SweepOptions options;
  const SweepPoint point =
      RunSweepPoint(Pair().a, Pair().b, Pair().truth,
                    DegradationAxis::kGpsNoise, 0.0, options);
  EXPECT_GE(point.quality.f1, 0.95);
  EXPECT_GE(point.quality.precision, 0.95);
  EXPECT_GE(point.quality.recall, 0.95);
}

TEST(RobustnessSweep, F1MonotoneNonIncreasingAlongEveryAxis) {
  // The core metamorphic property: more degradation must not (materially)
  // improve linkage. Real curves wobble by a few hundredths from RNG, so
  // allow a small tolerance per step.
  const SweepOptions options;
  const double tolerance = 0.05;
  const struct {
    DegradationAxis axis;
    std::vector<double> grid;
  } sweeps[] = {
      {DegradationAxis::kGpsNoise, {0.0, 50.0, 200.0}},
      {DegradationAxis::kDownsample, {1.0, 0.5, 0.25}},
      {DegradationAxis::kEntityDrop, {1.0, 0.6, 0.3}},
      {DegradationAxis::kTruncate, {1.0, 0.5, 0.25}},
  };
  for (const auto& sweep : sweeps) {
    const SweepCurve curve = RunDegradationSweep(
        Pair().a, Pair().b, Pair().truth, sweep.axis, sweep.grid, options);
    ASSERT_EQ(curve.points.size(), sweep.grid.size());
    for (size_t k = 1; k < curve.points.size(); ++k) {
      EXPECT_LE(curve.points[k].quality.f1,
                curve.points[k - 1].quality.f1 + tolerance)
          << DegradationAxisName(sweep.axis) << " value "
          << curve.points[k].value;
    }
  }
}

// Renames every entity id through `offset - rank` (an order-reversing
// bijection), returning the renamed dataset and the id mapping.
std::pair<LocationDataset, std::unordered_map<EntityId, EntityId>>
PermuteIds(const LocationDataset& input, EntityId offset) {
  std::unordered_map<EntityId, EntityId> mapping;
  const auto& ids = input.entity_ids();
  for (size_t rank = 0; rank < ids.size(); ++rank) {
    mapping[ids[rank]] = offset - static_cast<EntityId>(rank);
  }
  std::vector<Record> records = input.records();
  for (Record& r : records) r.entity = mapping.at(r.entity);
  return {LocationDataset::FromRecords(input.name(), std::move(records)),
          std::move(mapping)};
}

TEST(RobustnessSweep, InvariantUnderEntityIdPermutation) {
  // Linkage depends on histories, not on entity naming: renaming every id
  // on both sides (and the truth with them) must produce the same linked
  // pairs under the same renaming, and therefore identical quality.
  DegradationSpec spec;
  spec.gps_noise_meters = 100.0;
  spec.record_keep_probability = 0.7;
  LocationDataset a = DegradeDataset(Pair().a, spec);
  spec.seed += 1;
  LocationDataset b = DegradeDataset(Pair().b, spec);
  a.FilterMinRecords(6);
  b.FilterMinRecords(6);

  const SlimConfig config;
  const SlimLinker linker(config);
  auto base = linker.Link(a, b);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  auto [pa, map_a] = PermuteIds(a, 1000000);
  auto [pb, map_b] = PermuteIds(b, 2000000);
  auto permuted = linker.Link(pa, pb);
  ASSERT_TRUE(permuted.ok()) << permuted.status().ToString();

  std::set<std::pair<EntityId, EntityId>> base_pairs, permuted_pairs;
  for (const LinkedEntityPair& link : base->links) {
    base_pairs.insert({map_a.at(link.u), map_b.at(link.v)});
  }
  for (const LinkedEntityPair& link : permuted->links) {
    permuted_pairs.insert({link.u, link.v});
  }
  EXPECT_EQ(base_pairs, permuted_pairs);

  GroundTruth permuted_truth;
  for (const auto& [ua, ub] : Pair().truth.a_to_b) {
    if (map_a.count(ua) == 0 || map_b.count(ub) == 0) continue;
    permuted_truth.a_to_b[map_a.at(ua)] = map_b.at(ub);
  }
  const LinkageQuality q1 = EvaluateLinks(base->links, Pair().truth);
  const LinkageQuality q2 = EvaluateLinks(permuted->links, permuted_truth);
  EXPECT_EQ(q1.true_positives, q2.true_positives);
  EXPECT_EQ(q1.false_positives, q2.false_positives);
}

TEST(RobustnessSweep, BitIdenticalAcrossThreadCounts) {
  DegradationSpec spec;
  spec.gps_noise_meters = 50.0;
  LocationDataset a = DegradeDataset(Pair().a, spec);
  spec.seed += 1;
  LocationDataset b = DegradeDataset(Pair().b, spec);
  a.FilterMinRecords(6);
  b.FilterMinRecords(6);

  SlimConfig config;
  config.threads = 1;
  auto single = SlimLinker(config).Link(a, b);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  config.threads = 8;
  auto parallel = SlimLinker(config).Link(a, b);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(single->links, parallel->links);
}

TEST(RobustnessSweep, BitIdenticalAcrossShardCounts) {
  DegradationSpec spec;
  spec.record_keep_probability = 0.8;
  LocationDataset a = DegradeDataset(Pair().a, spec);
  spec.seed += 1;
  LocationDataset b = DegradeDataset(Pair().b, spec);
  a.FilterMinRecords(6);
  b.FilterMinRecords(6);

  SlimConfig config;
  auto mono = SlimLinker(config).Link(a, b);
  ASSERT_TRUE(mono.ok()) << mono.status().ToString();
  for (const int shards : {1, 3}) {
    config.shards = shards;
    auto sharded = SlimLinker(config).Link(a, b);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    EXPECT_EQ(mono->links, sharded->links) << shards << " shard(s)";
  }
}

}  // namespace
}  // namespace slim
