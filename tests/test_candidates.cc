// Tests of the pluggable candidate-generation stage (core/candidates.h):
// the three generators' set semantics, their ordering/uniqueness contract,
// thread-count invariance of construction, and the kind parsing used by
// the --candidates flag.
#include "core/candidates.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/slim.h"
#include "data/cab_generator.h"
#include "test_util.h"

namespace slim {
namespace {

constexpr int64_t kWindow = 900;

HistoryConfig HConfig(int level = 12) {
  HistoryConfig c;
  c.spatial_level = level;
  c.window_seconds = kWindow;
  return c;
}

// Two half-sampled sides of one cab workload — the linkage setting.
struct SampledPair {
  LocationDataset a{"a"};
  LocationDataset b{"b"};
};

SampledPair MakeSampledPair(uint64_t seed, int taxis = 20) {
  CabGeneratorOptions gopt;
  gopt.num_taxis = taxis;
  gopt.duration_days = 1.0;
  gopt.record_interval_seconds = 600.0;
  const LocationDataset master = GenerateCabDataset(gopt);
  Rng rng(seed);
  SampledPair pair;
  for (const Record& r : master.records()) {
    if (rng.NextBernoulli(0.5)) pair.a.Add(r);
    if (rng.NextBernoulli(0.5)) pair.b.Add(r);
  }
  pair.a.Finalize();
  pair.b.Finalize();
  return pair;
}

std::vector<EntityIdx> ToVector(std::span<const EntityIdx> span) {
  return {span.begin(), span.end()};
}

TEST(CandidateKindTest, NamesRoundTripThroughParsing) {
  for (CandidateKind kind :
       {CandidateKind::kLsh, CandidateKind::kBruteForce,
        CandidateKind::kGrid}) {
    auto parsed = ParseCandidateKind(CandidateKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseCandidateKind("unheard-of").ok());
  EXPECT_FALSE(ParseCandidateKind("").ok());
}

TEST(BruteForceCandidatesTest, CoversTheFullCrossProduct) {
  const SampledPair pair = MakeSampledPair(3);
  const LinkageContext ctx =
      LinkageContext::Build(pair.a, pair.b, HConfig());
  const auto gen = MakeCandidateGenerator(
      CandidateKind::kBruteForce, ctx, LshConfig{}, GridBlockingConfig{});
  EXPECT_EQ(gen->name(), "brute");
  EXPECT_EQ(gen->total_candidate_pairs(),
            static_cast<uint64_t>(ctx.store_e.size()) * ctx.store_i.size());
  for (EntityIdx u = 0; u < ctx.store_e.size(); ++u) {
    const auto cands = gen->CandidatesFor(u);
    ASSERT_EQ(cands.size(), ctx.store_i.size());
    for (size_t k = 0; k < cands.size(); ++k) {
      EXPECT_EQ(cands[k], static_cast<EntityIdx>(k));
    }
  }
}

TEST(LshCandidatesTest, MatchesBandEqualityOfTheSignatures) {
  // The reference semantics of banded LSH: with num_buckets = SIZE_MAX a
  // bucket key is the raw 64-bit band hash, so (u, v) must be a candidate
  // iff some band of their signatures has identical rows that are not all
  // placeholders.
  const SampledPair pair = MakeSampledPair(4);
  const LinkageContext ctx =
      LinkageContext::Build(pair.a, pair.b, HConfig());
  LshConfig lc;
  lc.signature_spatial_level = 10;
  lc.temporal_step_windows = 8;
  lc.similarity_threshold = 0.4;
  lc.num_buckets = SIZE_MAX;
  const auto gen = MakeCandidateGenerator(CandidateKind::kLsh, ctx, lc,
                                          GridBlockingConfig{});
  EXPECT_EQ(gen->name(), "lsh");

  const LshWindowSpan span = GlobalWindowSpan(ctx);
  ASSERT_FALSE(span.empty());
  auto signature = [&](const HistoryStore& store, EntityIdx u) {
    return BuildSignature(store.tree(u), span.lo, span.end,
                          lc.temporal_step_windows,
                          lc.signature_spatial_level);
  };
  std::vector<LshSignature> right;
  for (EntityIdx v = 0; v < ctx.store_i.size(); ++v) {
    right.push_back(signature(ctx.store_i, v));
  }
  ASSERT_FALSE(right.empty());
  const size_t size = right.front().size();
  const size_t bands =
      static_cast<size_t>(ComputeNumBands(size, lc.similarity_threshold));
  const size_t rows = (size + bands - 1) / bands;
  ASSERT_GE(bands, 1u);
  ASSERT_GE(bands * rows, size);  // the bands cover the signature

  uint64_t total = 0;
  for (EntityIdx u = 0; u < ctx.store_e.size(); ++u) {
    const LshSignature left = signature(ctx.store_e, u);
    ASSERT_EQ(left.size(), size);
    std::vector<EntityIdx> expected;
    for (EntityIdx v = 0; v < ctx.store_i.size(); ++v) {
      bool collides = false;
      for (size_t band = 0; band < bands && !collides; ++band) {
        const size_t lo = band * rows;
        const size_t hi = std::min(size, lo + rows);
        bool identical = true, evidence = false;
        for (size_t row = lo; row < hi; ++row) {
          identical &= left.cells[row] == right[v].cells[row];
          evidence |= !left.IsPlaceholder(row);
        }
        collides = identical && evidence;
      }
      if (collides) expected.push_back(v);
    }
    EXPECT_EQ(ToVector(gen->CandidatesFor(u)), expected) << "entity idx " << u;
    total += expected.size();
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(gen->total_candidate_pairs(), total);
}

TEST(GridBlockingCandidatesTest, SharedBinImpliesCandidacy) {
  // Entities sharing a (window, leaf cell) bin must be candidates; the
  // sampled sides share the master's records, so every surviving entity
  // co-visits bins with its own counterpart.
  const SampledPair pair = MakeSampledPair(5);
  const LinkageContext ctx =
      LinkageContext::Build(pair.a, pair.b, HConfig());
  const auto gen = MakeCandidateGenerator(CandidateKind::kGrid, ctx,
                                          LshConfig{}, GridBlockingConfig{});
  EXPECT_EQ(gen->name(), "grid");

  uint64_t listed = 0;
  for (EntityIdx u = 0; u < ctx.store_e.size(); ++u) {
    const auto cands = gen->CandidatesFor(u);
    listed += cands.size();
    // Contract: ascending and de-duplicated.
    EXPECT_TRUE(std::is_sorted(cands.begin(), cands.end()));
    EXPECT_EQ(std::adjacent_find(cands.begin(), cands.end()), cands.end());
    // Exactness: v is a candidate iff u and v share at least one bin.
    const auto bins_u = ctx.store_e.bins(u);
    for (EntityIdx v = 0; v < ctx.store_i.size(); ++v) {
      const auto bins_v = ctx.store_i.bins(v);
      std::vector<BinId> shared;
      std::set_intersection(bins_u.begin(), bins_u.end(), bins_v.begin(),
                            bins_v.end(), std::back_inserter(shared));
      const bool is_candidate =
          std::binary_search(cands.begin(), cands.end(), v);
      EXPECT_EQ(is_candidate, !shared.empty())
          << "pair " << u << "," << v;
    }
  }
  EXPECT_EQ(gen->total_candidate_pairs(), listed);
  EXPECT_GT(listed, 0u);
  // And it must actually block: fewer pairs than the cross product.
  EXPECT_LT(listed,
            static_cast<uint64_t>(ctx.store_e.size()) * ctx.store_i.size());
}

TEST(GridBlockingCandidatesTest, DisjointPlacesProduceNoCandidates) {
  Rng rng(6);
  std::vector<LatLng> sf, la;
  for (int k = 0; k < 5; ++k) {
    const LatLng p = testing::RandomPointInBox(&rng);
    sf.push_back(p);
    la.push_back({p.lat_deg - 3.0, p.lng_deg + 4.0});
  }
  const LocationDataset ds_e = testing::MakeAnchoredDataset(sf, 24, kWindow);
  const LocationDataset ds_i = testing::MakeAnchoredDataset(la, 24, kWindow);
  const LinkageContext ctx = LinkageContext::Build(ds_e, ds_i, HConfig());
  const auto gen = MakeCandidateGenerator(CandidateKind::kGrid, ctx,
                                          LshConfig{}, GridBlockingConfig{});
  EXPECT_EQ(gen->total_candidate_pairs(), 0u);
}

TEST(GridBlockingCandidatesTest, HotspotCapDropsCrowdedBins) {
  // All entities share one "home" bin; each also has a private bin shared
  // with nobody. With the cap below the crowd size, the home bin stops
  // blocking and only exact co-visitors remain.
  Rng rng(7);
  std::vector<LatLng> anchors;
  for (int k = 0; k < 8; ++k) {
    anchors.push_back(testing::RandomPointInBox(&rng));
  }
  const LocationDataset ds =
      testing::MakeAnchoredDataset(anchors, 6, kWindow);
  LocationDataset crowded("crowded");
  const LatLng home{37.7, -122.4};
  for (const Record& r : ds.records()) crowded.Add(r);
  for (EntityId e = 0; e < 8; ++e) crowded.Add(e, home, 100 * kWindow + 10);
  crowded.Finalize();

  const LinkageContext ctx =
      LinkageContext::Build(crowded, crowded, HConfig());
  const auto uncapped = MakeCandidateGenerator(
      CandidateKind::kGrid, ctx, LshConfig{}, GridBlockingConfig{});
  GridBlockingConfig cap;
  cap.max_bin_entities = 4;  // the home bin holds 8 entities
  const auto capped =
      MakeCandidateGenerator(CandidateKind::kGrid, ctx, LshConfig{}, cap);
  // Uncapped: the home bin makes everyone everyone's candidate.
  EXPECT_EQ(uncapped->total_candidate_pairs(), 64u);
  // Capped: the home bin is a stop word; only genuine co-visits remain
  // (at least each entity with itself).
  EXPECT_LT(capped->total_candidate_pairs(),
            uncapped->total_candidate_pairs());
  for (EntityIdx u = 0; u < ctx.store_e.size(); ++u) {
    const auto cands = capped->CandidatesFor(u);
    EXPECT_TRUE(std::binary_search(cands.begin(), cands.end(), u));
  }
}

TEST(CandidateGeneratorTest, ConstructionIsThreadCountInvariant) {
  const SampledPair pair = MakeSampledPair(8, 30);
  const LinkageContext ctx =
      LinkageContext::Build(pair.a, pair.b, HConfig());
  LshConfig lc;
  lc.signature_spatial_level = 10;
  lc.temporal_step_windows = 8;
  lc.similarity_threshold = 0.4;
  for (CandidateKind kind :
       {CandidateKind::kLsh, CandidateKind::kBruteForce,
        CandidateKind::kGrid}) {
    const auto reference =
        MakeCandidateGenerator(kind, ctx, lc, GridBlockingConfig{}, 1);
    for (int threads : {2, 8}) {
      const auto gen =
          MakeCandidateGenerator(kind, ctx, lc, GridBlockingConfig{}, threads);
      ASSERT_EQ(gen->total_candidate_pairs(),
                reference->total_candidate_pairs())
          << CandidateKindName(kind) << " at " << threads;
      for (EntityIdx u = 0; u < ctx.store_e.size(); ++u) {
        ASSERT_EQ(ToVector(gen->CandidatesFor(u)),
                  ToVector(reference->CandidatesFor(u)))
            << CandidateKindName(kind) << " threads " << threads << " u " << u;
      }
    }
  }
}

TEST(CandidateGeneratorTest, GridFeedsTheFullPipeline) {
  // End to end: the grid generator must carry a linkage to completion and
  // self-link a symmetric problem perfectly.
  const SampledPair pair = MakeSampledPair(9, 24);
  SlimConfig config;
  config.candidates = CandidateKind::kGrid;
  config.threads = 2;
  auto result = SlimLinker(config).Link(pair.a, pair.b);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->candidates_used, CandidateKind::kGrid);
  EXPECT_LE(result->candidate_pairs, result->possible_pairs);
  EXPECT_GT(result->links.size(), 0u);
  size_t self_links = 0;
  for (const auto& link : result->links) self_links += link.u == link.v;
  // Sampled halves share ids: most links should be the true self pairs.
  EXPECT_GT(self_links, result->links.size() / 2);
}

}  // namespace
}  // namespace slim
