// Tests of the pluggable candidate-generation stage (core/candidates.h):
// the three generators' set semantics, their ordering/uniqueness contract,
// thread-count invariance of construction, and the kind parsing used by
// the --candidates flag.
#include "core/candidates.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
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

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// The band hash of rows [lo, hi), restated from core/candidates.cc: rows
// that are placeholders are skipped, every other row's position takes part,
// and a band that is all placeholders has no hash.
std::optional<uint64_t> BandHash(const LshSignature& sig, size_t lo,
                                 size_t hi, uint64_t seed) {
  uint64_t h = seed ^ Mix(lo * 0x9e3779b97f4a7c15ULL);
  bool evidence = false;
  for (size_t row = lo; row < hi; ++row) {
    if (sig.IsPlaceholder(row)) continue;
    evidence = true;
    h = Mix(h ^ Mix((row + 1) * 0xd1b54a32d192ed03ULL) ^ sig.cells[row]);
  }
  if (!evidence) return std::nullopt;
  return h;
}

TEST(LshCandidatesTest, MatchesBandEqualityOfTheSignatures) {
  // The reference semantics of banded LSH: (u, v) is a candidate iff, in
  // one band, neither signature is all placeholders and the two band hashes
  // are equal mod num_buckets. At one bucket every band's keys share the
  // bucket, so only the band index keeps the bands apart; at SIZE_MAX a
  // bucket is the raw 64-bit band hash, so a collision means identical rows.
  const SampledPair pair = MakeSampledPair(4);
  const LinkageContext ctx =
      LinkageContext::Build(pair.a, pair.b, HConfig());
  LshConfig lc;
  lc.signature_spatial_level = 10;
  lc.temporal_step_windows = 8;
  lc.similarity_threshold = 0.4;

  const LshWindowSpan span = GlobalWindowSpan(ctx);
  ASSERT_FALSE(span.empty());
  auto signatures = [&](const HistoryStore& store) {
    std::vector<LshSignature> out;
    for (EntityIdx u = 0; u < store.size(); ++u) {
      out.push_back(BuildSignature(store.tree(u), span.lo, span.end,
                                   lc.temporal_step_windows,
                                   lc.signature_spatial_level));
    }
    return out;
  };
  const std::vector<LshSignature> left = signatures(ctx.store_e);
  const std::vector<LshSignature> right = signatures(ctx.store_i);
  ASSERT_FALSE(left.empty());
  ASSERT_FALSE(right.empty());
  const size_t size = right.front().size();
  const size_t bands =
      static_cast<size_t>(ComputeNumBands(size, lc.similarity_threshold));
  const size_t rows = (size + bands - 1) / bands;
  ASSERT_GE(bands, 2u);
  ASSERT_GE(bands * rows, size);  // the bands cover the signature
  auto band_hashes = [&](const std::vector<LshSignature>& sigs) {
    std::vector<std::vector<std::optional<uint64_t>>> out;
    for (const LshSignature& sig : sigs) {
      EXPECT_EQ(sig.size(), size);
      out.emplace_back();
      for (size_t band = 0; band < bands; ++band) {
        out.back().push_back(BandHash(sig, band * rows,
                                      std::min(size, (band + 1) * rows),
                                      lc.hash_seed));
      }
    }
    return out;
  };
  const auto left_hashes = band_hashes(left);
  const auto right_hashes = band_hashes(right);

  for (const size_t buckets : {size_t{1}, size_t{7}, SIZE_MAX}) {
    lc.num_buckets = buckets;
    const auto gen = MakeCandidateGenerator(CandidateKind::kLsh, ctx, lc,
                                            GridBlockingConfig{});
    EXPECT_EQ(gen->name(), "lsh");
    uint64_t total = 0;
    uint64_t both_hashed = 0;  // pairs with some hashed band on each side
    for (EntityIdx u = 0; u < ctx.store_e.size(); ++u) {
      std::vector<EntityIdx> expected;
      for (EntityIdx v = 0; v < ctx.store_i.size(); ++v) {
        bool collides = false, identical = false;
        bool left_hashed = false, right_hashed = false;
        for (size_t band = 0; band < bands; ++band) {
          const auto& hl = left_hashes[u][band];
          const auto& hr = right_hashes[v][band];
          left_hashed |= hl.has_value();
          right_hashed |= hr.has_value();
          if (!hl || !hr) continue;
          collides |= *hl % buckets == *hr % buckets;
          const size_t lo = band * rows;
          const size_t hi = std::min(size, lo + rows);
          identical |= std::equal(left[u].cells.begin() + lo,
                                  left[u].cells.begin() + hi,
                                  right[v].cells.begin() + lo);
        }
        if (buckets == SIZE_MAX) {
          EXPECT_EQ(collides, identical) << "pair " << u << "," << v;
        }
        both_hashed += left_hashed && right_hashed;
        if (collides) expected.push_back(v);
      }
      EXPECT_EQ(ToVector(gen->CandidatesFor(u)), expected)
          << "entity idx " << u << ", buckets " << buckets;
      total += expected.size();
    }
    EXPECT_GT(total, 0u) << buckets;
    EXPECT_EQ(gen->total_candidate_pairs(), total) << buckets;
    if (buckets == 1) {
      // Some pairs hash bands on both sides but never the same band: a join
      // that ignored the band index would list them too.
      EXPECT_LT(total, both_hashed);
    }
  }
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

TEST(GridBlockingCandidatesTest, MinOverlapKeepsExactlyThePairsWithEnoughMass) {
  // Reference: each entity's history as a std::map from BinId to record
  // count; a pair's co-visit mass is the sum over shared bins of the
  // smaller count, and the filter keeps the pair iff that mass is >= m.
  const SampledPair pair = MakeSampledPair(5);
  const LinkageContext ctx = LinkageContext::Build(pair.a, pair.b, HConfig());
  const auto histories = [](const HistoryStore& store) {
    std::vector<std::map<BinId, uint32_t>> out(store.size());
    for (EntityIdx u = 0; u < store.size(); ++u) {
      const auto bins = store.bins(u);
      const auto counts = store.counts(u);
      for (size_t k = 0; k < bins.size(); ++k) out[u][bins[k]] = counts[k];
    }
    return out;
  };
  const auto left = histories(ctx.store_e);
  const auto right = histories(ctx.store_i);
  const auto mass = [](const std::map<BinId, uint32_t>& a,
                       const std::map<BinId, uint32_t>& b) {
    uint64_t sum = 0;
    for (const auto& [bin, count] : a) {
      const auto it = b.find(bin);
      if (it != b.end()) sum += std::min(count, it->second);
    }
    return sum;
  };

  std::vector<uint64_t> kept;
  for (const uint32_t m : {1u, 2u, 5u}) {
    GridBlockingConfig grid;
    grid.min_overlap_records = m;
    const auto gen =
        MakeCandidateGenerator(CandidateKind::kGrid, ctx, LshConfig{}, grid);
    uint64_t total = 0;
    for (EntityIdx u = 0; u < ctx.store_e.size(); ++u) {
      std::vector<EntityIdx> expected;
      for (EntityIdx v = 0; v < ctx.store_i.size(); ++v) {
        if (mass(left[u], right[v]) >= m) expected.push_back(v);
      }
      EXPECT_EQ(ToVector(gen->CandidatesFor(u)), expected)
          << "entity idx " << u << ", m " << m;
      total += expected.size();
    }
    EXPECT_EQ(gen->total_candidate_pairs(), total) << m;
    kept.push_back(total);
  }
  // Each floor must bite on this workload, or the test proves nothing.
  EXPECT_GT(kept[0], kept[1]);
  EXPECT_GT(kept[1], kept[2]);
  EXPECT_GT(kept[2], 0u);
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
