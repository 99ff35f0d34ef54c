#include "baselines/st_link.h"

#include <gtest/gtest.h>

#include "data/checkin_generator.h"
#include "data/sampler.h"
#include "test_util.h"

namespace slim {
namespace {

constexpr int64_t kWindow = 900;

const LatLng kSpotA{37.700, -122.450};
const LatLng kSpotB{37.745, -122.430};
const LatLng kSpotC{37.780, -122.410};
const LatLng kFar{38.600, -122.450};  // ~100 km: alibi

// Builds a dataset where each entity emits one record per (window, place).
LocationDataset Make(
    const char* name,
    const std::vector<std::pair<EntityId,
                                std::vector<std::pair<int, LatLng>>>>& spec) {
  LocationDataset ds(name);
  for (const auto& [entity, recs] : spec) {
    for (const auto& [w, loc] : recs) {
      ds.Add(entity, loc, static_cast<int64_t>(w) * kWindow + 450);
    }
  }
  ds.Finalize();
  return ds;
}

StLinkConfig Config() {
  StLinkConfig c;
  c.window_seconds = kWindow;
  c.min_cooccurrences = 3;  // fixed k/l: deterministic tests
  c.min_diversity = 2;
  return c;
}

TEST(StLink, LinksEntitiesWithDiverseCoOccurrences) {
  // u0/v0 co-occur in 4 windows over 3 distinct places.
  const auto e = Make("E", {{0, {{0, kSpotA}, {1, kSpotB}, {2, kSpotC},
                                 {3, kSpotA}}}});
  const auto i = Make("I", {{0, {{0, kSpotA}, {1, kSpotB}, {2, kSpotC},
                                 {3, kSpotA}}}});
  const StLinkLinker linker(Config());
  auto r = linker.Link(e, i);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->links.size(), 1u);
  EXPECT_EQ(r->links[0].u, 0);
  EXPECT_EQ(r->links[0].v, 0);
  EXPECT_EQ(r->k_used, 3u);
  EXPECT_EQ(r->l_used, 2u);
}

TEST(StLink, InsufficientCoOccurrencesNotLinked) {
  const auto e = Make("E", {{0, {{0, kSpotA}, {1, kSpotB}}}});
  const auto i = Make("I", {{0, {{0, kSpotA}, {1, kSpotB}}}});
  const StLinkLinker linker(Config());  // needs k >= 3
  auto r = linker.Link(e, i);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->links.empty());
}

TEST(StLink, LowDiversityNotLinked) {
  // Many co-occurrences but all at one place: l = 1 < 2.
  const auto e = Make("E", {{0, {{0, kSpotA}, {1, kSpotA}, {2, kSpotA},
                                 {3, kSpotA}, {4, kSpotA}}}});
  const auto i = Make("I", {{0, {{0, kSpotA}, {1, kSpotA}, {2, kSpotA},
                                 {3, kSpotA}, {4, kSpotA}}}});
  const StLinkLinker linker(Config());
  auto r = linker.Link(e, i);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->links.empty());
}

TEST(StLink, AlibisDisqualifyThePair) {
  // Good co-occurrences in windows 0-3, but 4 alibi windows on top —
  // beyond the tolerance of 3.
  const auto e = Make(
      "E", {{0, {{0, kSpotA}, {1, kSpotB}, {2, kSpotC}, {3, kSpotA},
                 {4, kSpotA}, {5, kSpotA}, {6, kSpotA}, {7, kSpotA}}}});
  const auto i = Make(
      "I", {{0, {{0, kSpotA}, {1, kSpotB}, {2, kSpotC}, {3, kSpotA},
                 {4, kFar}, {5, kFar}, {6, kFar}, {7, kFar}}}});
  const StLinkLinker linker(Config());
  auto r = linker.Link(e, i);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->links.empty());
}

TEST(StLink, AmbiguousEntitiesAreDropped) {
  // Two right-side entities both qualify against u0: ST-Link refuses to
  // choose and drops all of them.
  const std::vector<std::pair<int, LatLng>> trail = {
      {0, kSpotA}, {1, kSpotB}, {2, kSpotC}, {3, kSpotA}};
  const auto e = Make("E", {{0, trail}});
  const auto i = Make("I", {{0, trail}, {1, trail}});
  const StLinkLinker linker(Config());
  auto r = linker.Link(e, i);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->links.empty());
  EXPECT_GT(r->ambiguous_entities, 0u);
}

TEST(StLink, GraphCarriesCoOccurrenceCounts) {
  const auto e = Make("E", {{0, {{0, kSpotA}, {1, kSpotB}}}});
  const auto i = Make("I", {{0, {{0, kSpotA}, {1, kSpotB}}}});
  const StLinkLinker linker(Config());
  auto r = linker.Link(e, i);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->graph.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(r->graph.edges()[0].weight, 2.0);
  EXPECT_GT(r->record_comparisons, 0u);
}

TEST(StLink, AutoDetectsKAndL) {
  // With auto thresholds (0), values fall back to sane defaults or elbow
  // detections — either way the obvious pair must link and a noise pair
  // with a single co-occurrence must not.
  const auto e = Make(
      "E", {{0, {{0, kSpotA}, {1, kSpotB}, {2, kSpotC}, {3, kSpotA},
                 {4, kSpotB}, {5, kSpotC}}},
            {1, {{0, kSpotB}}}});
  const auto i = Make(
      "I", {{0, {{0, kSpotA}, {1, kSpotB}, {2, kSpotC}, {3, kSpotA},
                 {4, kSpotB}, {5, kSpotC}}},
            {1, {{6, kSpotC}}}});
  StLinkConfig cfg;
  cfg.window_seconds = kWindow;  // auto k, auto l
  const StLinkLinker linker(cfg);
  auto r = linker.Link(e, i);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->links.size(), 1u);
  EXPECT_EQ(r->links[0].u, 0);
  EXPECT_EQ(r->links[0].v, 0);
  EXPECT_GE(r->k_used, 1u);
  EXPECT_GE(r->l_used, 1u);
}

// Regression (PR 8): the candidate graph used to be emitted while
// iterating the merged per-shard unordered_map, so edge order (and
// anything downstream that breaks weight ties positionally, e.g.
// Hit-Precision@k) depended on the stdlib hash layout. Shard results are
// now drained and key-sorted before any consumer runs.
TEST(StLink, CandidateGraphEdgesAreKeySorted) {
  // Three entities per side; each u co-occurs with two v's so the graph
  // has several edges per vertex and ambiguity drops every final link.
  std::vector<std::pair<EntityId, std::vector<std::pair<int, LatLng>>>> spec;
  for (EntityId u = 0; u < 3; ++u) {
    spec.push_back({u, {{0, kSpotA}, {1, kSpotB}, {2, kSpotC},
                        {3, kSpotA}, {4, kSpotB}}});
  }
  const auto e = Make("E", spec);
  const auto i = Make("I", spec);
  const StLinkLinker linker(Config());
  auto r = linker.Link(e, i);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& edges = r->graph.edges();
  ASSERT_GE(edges.size(), 2u);
  for (size_t k = 1; k < edges.size(); ++k) {
    const bool sorted =
        edges[k - 1].u < edges[k].u ||
        (edges[k - 1].u == edges[k].u && edges[k - 1].v < edges[k].v);
    EXPECT_TRUE(sorted) << "edge " << k << " out of (u, v) order";
  }
}

// The per-shard accumulation (pair maps keyed by dense index, drained and
// key-sorted) must give the same result at every thread count, down to
// the bits of every score.
TEST(StLink, IdenticalAtEveryThreadCount) {
  CheckinGeneratorOptions gen;
  gen.num_users = 800;
  gen.seed = 61;
  const LocationDataset master = GenerateCheckinDataset(gen);
  PairSampleOptions sampling;
  sampling.entities_per_side = 300;
  sampling.seed = 62;
  auto sample = SampleLinkedPair(master, sampling);
  ASSERT_TRUE(sample.ok()) << sample.status().ToString();

  StLinkConfig config;  // auto k and l
  config.threads = 1;
  auto reference = StLinkLinker(config).Link(sample->a, sample->b);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_GT(reference->graph.num_edges(), 0u);
  ASSERT_GT(reference->links.size(), 0u);
  for (int threads : {2, 8}) {
    config.threads = threads;
    auto r = StLinkLinker(config).Link(sample->a, sample->b);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // operator== compares the doubles exactly.
    EXPECT_EQ(r->links, reference->links) << threads;
    EXPECT_EQ(r->graph.edges(), reference->graph.edges()) << threads;
    EXPECT_EQ(r->k_used, reference->k_used) << threads;
    EXPECT_EQ(r->l_used, reference->l_used) << threads;
    EXPECT_EQ(r->ambiguous_entities, reference->ambiguous_entities)
        << threads;
    EXPECT_EQ(r->record_comparisons, reference->record_comparisons)
        << threads;
  }
}

TEST(StLink, EmptyDatasetsYieldNoLinks) {
  LocationDataset e("E"), i("I");
  e.Finalize();
  i.Finalize();
  const StLinkLinker linker(Config());
  auto r = linker.Link(e, i);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->links.empty());
}

}  // namespace
}  // namespace slim
