// Differential tests for the scoring primitives (core/score_kernel.h).
//
// The intersection layer's contract is exactness: the linear merge, the
// IntersectSorted* entry points and the galloping path must all emit the
// same matched positions as a naive reference, and SimilarityEngine must
// score bit-identically (0 ULP) with and without its reusable scratch.
// These tests enforce that contract three ways:
//
//   1. primitive-level differentials against a naive reference, over
//      adversarial span shapes (empty, length 1, disjoint, nested,
//      all-shared, short tails, extreme values);
//   2. engine-level differentials: SimilarityEngine scores on a generated
//      linkage problem must agree bitwise between the shared scratch and
//      the call-local fallback, on every ablation config, and with a
//      test-local Eq. 2 reference on both cell-distance paths (the dense
//      table and the per-worker cache, taken for either of its two
//      reasons);
//   3. seeded fuzz-style *_Stress cases (larger iteration counts in
//      Release) that print their seed on failure — rerun with
//      SLIM_KERNEL_STRESS_SEED=<seed> to replay a single failing draw.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "slim.h"

namespace slim {
namespace {

using MatchPairs = std::vector<std::pair<uint32_t, uint32_t>>;

// Naive quadratic reference: emit (i, j) with a[i] == b[j] in ascending i
// order. For strictly ascending inputs this equals the two-pointer merge.
template <typename T>
MatchPairs NaiveIntersect(const std::vector<T>& a, const std::vector<T>& b) {
  MatchPairs out;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      if (a[i] == b[j]) {
        out.emplace_back(static_cast<uint32_t>(i), static_cast<uint32_t>(j));
      }
    }
  }
  return out;
}

// Runs one intersection entry point (`i64` or `u32`, picked by T) and
// returns its matched position pairs.
template <typename T, typename I64, typename U32>
MatchPairs RunIntersect(I64 i64, U32 u32, const std::vector<T>& a,
                        const std::vector<T>& b) {
  const size_t cap = std::min(a.size(), b.size());
  std::vector<uint32_t> out_a(cap), out_b(cap);
  size_t n;
  if constexpr (std::is_same_v<T, int64_t>) {
    n = i64(a.data(), a.size(), b.data(), b.size(), out_a.data(),
            out_b.data());
  } else {
    n = u32(a.data(), a.size(), b.data(), b.size(), out_a.data(),
            out_b.data());
  }
  MatchPairs pairs;
  pairs.reserve(n);
  for (size_t k = 0; k < n; ++k) pairs.emplace_back(out_a[k], out_b[k]);
  return pairs;
}

template <typename T>
MatchPairs RunLinear(const std::vector<T>& a, const std::vector<T>& b) {
  return RunIntersect(IntersectLinearI64, IntersectLinearU32, a, b);
}

template <typename T>
MatchPairs RunSorted(const std::vector<T>& a, const std::vector<T>& b) {
  return RunIntersect(IntersectSortedI64, IntersectSortedU32, a, b);
}

template <typename T>
MatchPairs RunGallop(const std::vector<T>& a, const std::vector<T>& b) {
  return RunIntersect(IntersectGallopI64, IntersectGallopU32, a, b);
}

// Checks the linear merge, the IntersectSorted* entry point AND the
// galloping path against the naive reference on one span pair.
template <typename T>
void ExpectAllPathsAgree(const std::vector<T>& a, const std::vector<T>& b) {
  const auto expected = NaiveIntersect(a, b);
  EXPECT_EQ(RunLinear(a, b), expected)
      << "linear lens " << a.size() << "x" << b.size();
  EXPECT_EQ(RunSorted(a, b), expected)
      << "sorted lens " << a.size() << "x" << b.size();
  EXPECT_EQ(RunGallop(a, b), expected)
      << "gallop lens " << a.size() << "x" << b.size();
}

// Strictly ascending random span: `len` values starting near `start` with
// random gaps in [1, max_gap].
template <typename T>
std::vector<T> RandomSpan(std::mt19937_64& rng, size_t len, T start,
                          int max_gap) {
  std::uniform_int_distribution<int> gap(1, max_gap);
  std::vector<T> out;
  out.reserve(len);
  T value = start;
  for (size_t k = 0; k < len; ++k) {
    value = static_cast<T>(value + static_cast<T>(gap(rng)));
    out.push_back(value);
  }
  return out;
}

// Random subset of `base` keeping order (strictly ascending stays so).
template <typename T>
std::vector<T> RandomSubset(std::mt19937_64& rng, const std::vector<T>& base,
                            double keep) {
  std::bernoulli_distribution coin(keep);
  std::vector<T> out;
  for (const T v : base) {
    if (coin(rng)) out.push_back(v);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Adversarial fixed cases.
// ---------------------------------------------------------------------------

TEST(ScoreKernelIntersect, EmptyAndSingletonSpans) {
  using V64 = std::vector<int64_t>;
  ExpectAllPathsAgree(V64{}, V64{});
  ExpectAllPathsAgree(V64{}, V64{1, 2, 3, 4, 5});
  ExpectAllPathsAgree(V64{1, 2, 3, 4, 5}, V64{});
  ExpectAllPathsAgree(V64{3}, V64{3});
  ExpectAllPathsAgree(V64{3}, V64{4});
  ExpectAllPathsAgree(V64{3}, V64{1, 2, 3, 4, 5, 6, 7, 8, 9});
  ExpectAllPathsAgree(V64{10}, V64{1, 2, 3, 4, 5, 6, 7, 8, 9});
  using V32 = std::vector<uint32_t>;
  ExpectAllPathsAgree(V32{}, V32{});
  ExpectAllPathsAgree(V32{7}, V32{7});
  ExpectAllPathsAgree(V32{7}, V32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
}

TEST(ScoreKernelIntersect, DisjointAndInterleavedSpans) {
  using V64 = std::vector<int64_t>;
  // Fully disjoint ranges (one entirely below the other).
  ExpectAllPathsAgree(V64{1, 2, 3, 4, 5, 6, 7, 8},
                         V64{100, 101, 102, 103, 104, 105, 106, 107});
  // Interleaved, no matches (evens vs odds).
  V64 evens, odds;
  for (int64_t k = 0; k < 40; ++k) {
    evens.push_back(2 * k);
    odds.push_back(2 * k + 1);
  }
  ExpectAllPathsAgree(evens, odds);
  // Nested: b entirely inside a's range, partial matches.
  V64 outer, inner;
  for (int64_t k = 0; k < 64; ++k) outer.push_back(k * 3);
  for (int64_t k = 20; k < 40; ++k) inner.push_back(k);  // hits multiples of 3
  ExpectAllPathsAgree(outer, inner);
  ExpectAllPathsAgree(inner, outer);
}

TEST(ScoreKernelIntersect, AllSharedSpans) {
  for (const size_t len : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u,
                           31u, 32u, 33u, 100u}) {
    std::vector<int64_t> a64;
    std::vector<uint32_t> a32;
    for (size_t k = 0; k < len; ++k) {
      a64.push_back(static_cast<int64_t>(k * k + 1));
      a32.push_back(static_cast<uint32_t>(k * 7 + 3));
    }
    ExpectAllPathsAgree(a64, a64);  // idempotence: (k, k) for all k
    ExpectAllPathsAgree(a32, a32);
  }
}

TEST(ScoreKernelIntersect, EveryShortLengthPair) {
  // Every length pair up to 17 a side, dense values so matches are
  // frequent and land at the ends of both spans.
  std::mt19937_64 rng(1234);
  for (size_t la = 0; la <= 17; ++la) {
    for (size_t lb = 0; lb <= 17; ++lb) {
      const auto a64 = RandomSpan<int64_t>(rng, la, 0, 3);
      const auto b64 = RandomSpan<int64_t>(rng, lb, 0, 3);
      ExpectAllPathsAgree(a64, b64);
      const auto a32 = RandomSpan<uint32_t>(rng, la, 0u, 3);
      const auto b32 = RandomSpan<uint32_t>(rng, lb, 0u, 3);
      ExpectAllPathsAgree(a32, b32);
    }
  }
}

TEST(ScoreKernelIntersect, ExtremeValues) {
  const int64_t i64max = std::numeric_limits<int64_t>::max();
  const int64_t i64min = std::numeric_limits<int64_t>::min();
  ExpectAllPathsAgree<int64_t>(
      {i64min, i64min + 1, -5, 0, 7, i64max - 1, i64max},
      {i64min, -5, 1, 7, i64max});
  const uint32_t u32max = std::numeric_limits<uint32_t>::max();
  ExpectAllPathsAgree<uint32_t>(
      {0, 1, 2, u32max - 2, u32max - 1, u32max},
      {0, 2, 3, u32max - 1, u32max});
}

TEST(ScoreKernelIntersect, SymmetryMirrorsMatches) {
  std::mt19937_64 rng(99);
  const auto base = RandomSpan<int64_t>(rng, 120, 1000, 4);
  const auto a = RandomSubset(rng, base, 0.7);
  const auto b = RandomSubset(rng, base, 0.5);
  const auto ab = NaiveIntersect(a, b);
  const struct {
    const char* name;
    MatchPairs (*run)(const std::vector<int64_t>&, const std::vector<int64_t>&);
  } paths[] = {{"linear", RunLinear<int64_t>},
               {"sorted", RunSorted<int64_t>},
               {"gallop", RunGallop<int64_t>}};
  for (const auto& path : paths) {
    const MatchPairs forward = path.run(a, b);
    MatchPairs backward = path.run(b, a);
    for (auto& [x, y] : backward) std::swap(x, y);
    EXPECT_EQ(forward, ab) << path.name;
    EXPECT_EQ(backward, ab) << path.name;
  }
}

TEST(ScoreKernelIntersect, GallopHeuristicDispatchIsOutputInvariant) {
  // Skewed lengths trigger galloping inside IntersectSorted*; the output
  // must be what the linear merge produces.
  std::mt19937_64 rng(7);
  const auto large = RandomSpan<int64_t>(rng, 2000, 0, 3);
  const auto small = RandomSubset(rng, large, 0.01);  // far beyond the ratio
  ASSERT_GT(large.size(), small.size() * kGallopSpanRatio);
  const auto expected = NaiveIntersect(small, large);
  EXPECT_EQ(RunSorted(small, large), expected);
  EXPECT_EQ(RunLinear(small, large), expected);
}

// ---------------------------------------------------------------------------
// Co-visit overlap mass.
// ---------------------------------------------------------------------------

TEST(ScoreKernelOverlap, SumsMinCountsOverSharedBins) {
  const std::vector<uint32_t> bins_a = {2, 5, 9, 14};
  const std::vector<uint32_t> counts_a = {3, 10, 1, 70000};
  const std::vector<uint32_t> bins_b = {1, 5, 9, 14, 20};
  const std::vector<uint32_t> counts_b = {8, 4, 7, 4000000000u, 2};
  // Shared: bin 5 (min 4), bin 9 (min 1), bin 14 (min 70000 — a count
  // past u16 counts in full).
  std::vector<uint32_t> scratch_a, scratch_b;
  EXPECT_EQ(OverlapMass(bins_a, counts_a, bins_b, counts_b, &scratch_a,
                        &scratch_b),
            4u + 1u + 70000u);
  // No shared bins -> 0; empty side -> 0.
  EXPECT_EQ(OverlapMass(bins_a, counts_a, {}, {}, &scratch_a, &scratch_b),
            0u);
  EXPECT_EQ(OverlapMass(std::vector<uint32_t>{1}, std::vector<uint32_t>{9},
                        std::vector<uint32_t>{2}, std::vector<uint32_t>{9},
                        &scratch_a, &scratch_b),
            0u);
}

TEST(ScoreKernelOverlap, SumIsExactPastU32) {
  const std::vector<uint32_t> bins = {3, 4};
  const std::vector<uint32_t> counts = {4000000000u, 4000000000u};
  std::vector<uint32_t> scratch_a, scratch_b;
  EXPECT_EQ(OverlapMass(bins, counts, bins, counts, &scratch_a, &scratch_b),
            uint64_t{8000000000});
}

// ---------------------------------------------------------------------------
// Engine-level differential: SimilarityEngine must score bit-identically
// with and without the reusable scratch, on a real generated linkage
// problem.
// ---------------------------------------------------------------------------

const LinkageContext& EngineContext() {
  static const LinkageContext* ctx = [] {
    CheckinGeneratorOptions gen;
    gen.num_users = 260;
    gen.seed = 4242;
    const LocationDataset master = GenerateCheckinDataset(gen);
    PairSampleOptions sampling;
    sampling.entities_per_side = 120;
    sampling.intersection_ratio = 0.5;
    sampling.inclusion_probability = 0.5;
    sampling.seed = 4243;
    auto sample = SampleLinkedPair(master, sampling);
    SLIM_CHECK_MSG(sample.ok(), "sampling the kernel test problem failed");
    return new LinkageContext(LinkageContext::Build(
        sample->a, sample->b, HistoryConfig{}, /*threads=*/1));
  }();
  return *ctx;
}

TEST(ScoreKernelEngine, AblationConfigsMatchWithAndWithoutScratch) {
  const LinkageContext& ctx = EngineContext();
  // The stock config plus the ablation toggles: the IDF-off path, the
  // all-pairs pairing, and the normalisation-off divisor.
  std::vector<SimilarityConfig> configs(4);
  configs[1].use_idf = false;
  configs[2].pairing = PairingKind::kAllPairs;
  configs[3].use_normalization = false;
  configs[3].use_mfn = false;
  for (size_t c = 0; c < configs.size(); ++c) {
    const SimilarityEngine engine(ctx, configs[c]);
    // Call-local reference scores + stats over every cross pair.
    SimilarityStats ref_stats;
    std::vector<double> ref_scores;
    ref_scores.reserve(ctx.store_e.size() * ctx.store_i.size());
    for (EntityIdx u = 0; u < ctx.store_e.size(); ++u) {
      for (EntityIdx v = 0; v < ctx.store_i.size(); ++v) {
        ref_scores.push_back(engine.ScoreIndexed(u, v, &ref_stats));
      }
    }
    ASSERT_GT(ref_stats.record_comparisons, 0u) << "config " << c;

    // The same pairs through one shared scratch, which carries buffers
    // of every earlier pair into the next.
    SimilarityStats stats;
    ScoreScratch scratch;
    size_t pos = 0;
    for (EntityIdx u = 0; u < ctx.store_e.size(); ++u) {
      for (EntityIdx v = 0; v < ctx.store_i.size(); ++v) {
        ASSERT_EQ(engine.ScoreIndexed(u, v, &stats, nullptr, &scratch),
                  ref_scores[pos])
            << "config " << c << " pair (" << u << ", " << v << ")";
        ++pos;
      }
    }
    EXPECT_EQ(stats.record_comparisons, ref_stats.record_comparisons);
    EXPECT_EQ(stats.alibi_pairs, ref_stats.alibi_pairs);
    EXPECT_EQ(stats.entity_pairs, ref_stats.entity_pairs);
  }
}

// ---------------------------------------------------------------------------
// Both distance paths against an independent Eq. 2 reference. The engine
// reads cell distances from its dense table when the vocabulary has at most
// kCellDistanceTableMaxCells distinct cells and at least K(K+1)/2 bins, and
// from the caller's CellDistanceCache otherwise; either way every score
// must carry the bits of a direct computation.
// ---------------------------------------------------------------------------

using WindowBins = std::map<int64_t, std::vector<BinId>>;

// Each entity's bins grouped by window, from vocab.window() alone.
std::vector<WindowBins> GroupByWindow(const LinkageContext& ctx,
                                      const HistoryStore& store) {
  std::vector<WindowBins> out(store.size());
  for (EntityIdx u = 0; u < store.size(); ++u) {
    for (const BinId b : store.bins(u)) {
      out[u][ctx.vocab.window(b)].push_back(b);
    }
  }
  return out;
}

// Test-local Eq. 2: bins grouped per window (GroupByWindow), direct
// MinDistanceMeters in canonical order (smaller raw id first),
// SpatialProximity, the fused pairing, and the engine's summation order
// (windows ascending; N's pairs in selection order, then N''s alibis; the
// all-pairs ablation in row-major order). Also counts the bin pairs whose
// distance it computes outside a 1x1 same-bin window (`lookups`).
struct ReferenceCounts {
  uint64_t record_comparisons = 0;
  uint64_t alibi_pairs = 0;
  uint64_t lookups = 0;
};

double ReferenceScore(const LinkageContext& ctx, const SimilarityConfig& cfg,
                      EntityIdx u, EntityIdx v, const WindowBins& windows_u,
                      const WindowBins& windows_v, ReferenceCounts* counts) {
  const double runaway =
      RunawayMeters(cfg.proximity, ctx.config.window_seconds);
  const double norm = cfg.use_normalization
                          ? ctx.store_e.LengthNorm(u, cfg.b) *
                                ctx.store_i.LengthNorm(v, cfg.b)
                          : 1.0;
  MutualPairing pairing;
  double score = 0.0;
  for (const auto& [window, bins_u] : windows_u) {
    const auto it = windows_v.find(window);
    if (it == windows_v.end()) continue;
    const std::vector<BinId>& bins_v = it->second;
    const size_t m = bins_u.size();
    const size_t n = bins_v.size();
    std::vector<double> dist(m * n);
    for (size_t r = 0; r < m; ++r) {
      for (size_t c = 0; c < n; ++c) {
        const CellId a = ctx.vocab.cell(bins_u[r]);
        const CellId b = ctx.vocab.cell(bins_v[c]);
        dist[r * n + c] = a.raw() <= b.raw() ? MinDistanceMeters(a, b)
                                             : MinDistanceMeters(b, a);
      }
    }
    counts->record_comparisons += m * n;
    if (!(m == 1 && n == 1 && bins_u[0] == bins_v[0])) counts->lookups += m * n;
    auto contribution = [&](size_t r, size_t c) {
      const double d = dist[r * n + c];
      const double p =
          SpatialProximity(d, runaway, cfg.proximity.clamp_epsilon);
      if (IsAlibi(d, runaway)) ++counts->alibi_pairs;
      const double idf =
          cfg.use_idf ? std::min(ctx.store_e.idf_values()[bins_u[r]],
                                 ctx.store_i.idf_values()[bins_v[c]])
                      : 1.0;
      return p * idf / norm;
    };
    if (cfg.pairing == PairingKind::kAllPairs) {
      for (size_t r = 0; r < m; ++r) {
        for (size_t c = 0; c < n; ++c) score += contribution(r, c);
      }
      continue;
    }
    MutualNearestAndFurthestPairs(dist, m, n, cfg.use_mfn, &pairing);
    for (const auto& [r, c] : pairing.nearest) score += contribution(r, c);
    for (const BinPair& pair : pairing.furthest) {
      if (std::find(pairing.nearest.begin(), pairing.nearest.end(), pair) !=
          pairing.nearest.end()) {
        continue;
      }
      const double delta = contribution(pair.first, pair.second);
      if (delta < 0.0) score += delta;
    }
  }
  return score;
}

// A wide-area problem: 40 entities per side with one to three records per
// window at 24 windows, scattered over hundreds of kilometres, so the
// vocabulary holds thousands of distinct level-12 cells. Right entities
// 0-29 retrace their left namesake within ~1 km (positive scores); the
// rest move independently (alibis).
LinkageContext WideAreaContext() {
  Rng rng(77);
  LocationDataset e("E"), i("I");
  const HistoryConfig config;
  for (EntityId k = 0; k < 40; ++k) {
    const double base_lat = rng.NextDouble(30.0, 48.0);
    const double base_lng = rng.NextDouble(-120.0, -75.0);
    for (int64_t w = 0; w < 24; ++w) {
      const int64_t records = 1 + static_cast<int64_t>(rng.NextUint64(3));
      for (int64_t j = 0; j < records; ++j) {
        const LatLng at{base_lat + rng.NextDouble(-1.5, 1.5),
                        base_lng + rng.NextDouble(-1.5, 1.5)};
        const int64_t t = w * config.window_seconds + 60 * j;
        e.Add(k, at, t);
        const LatLng seen =
            k < 30 ? LatLng{at.lat_deg + rng.NextDouble(-0.005, 0.005),
                            at.lng_deg + rng.NextDouble(-0.005, 0.005)}
                   : LatLng{rng.NextDouble(30.0, 48.0),
                            rng.NextDouble(-120.0, -75.0)};
        i.Add(k, seen, t + 30);
      }
    }
  }
  e.Finalize();
  i.Finalize();
  return LinkageContext::Build(e, i, config, /*threads=*/1);
}

// A commute pair (20 per side from a 40-commuter metro): dense
// trajectories over few distinct cells and many bins, the shape that takes
// the table path.
LinkageContext CommuteContext() {
  CommuteGeneratorOptions gen;
  gen.num_commuters = 40;
  gen.seed = 2302;
  const LocationDataset master = GenerateCommuteDataset(gen);
  PairSampleOptions sampling;
  sampling.entities_per_side = 20;
  sampling.intersection_ratio = 0.5;
  sampling.inclusion_probability = 0.5;
  sampling.seed = 1;
  auto sample = SampleLinkedPair(master, sampling);
  SLIM_CHECK_MSG(sample.ok(), "sampling the commute test problem failed");
  return LinkageContext::Build(sample->a, sample->b, HistoryConfig{},
                               /*threads=*/1);
}

// One history shape per entity, on both sides, for the two window
// intersections: bitmap entities (at least kBitmapMinWindows windows, word
// span at most the window count) and merge entities, with pre-epoch windows
// across the word boundaries at -65/-64, -1/0 and 63/64.
std::vector<std::vector<int64_t>> MixedDensityWindows() {
  auto range = [](int64_t begin, int64_t end, int64_t step) {
    std::vector<int64_t> w;
    for (int64_t x = begin; x < end; x += step) w.push_back(x);
    return w;
  };
  std::vector<std::vector<int64_t>> shapes;
  shapes.push_back(range(0, 200, 1));     // dense, 4 words
  shapes.push_back(range(-130, 131, 1));  // dense, pre-epoch, 6 words
  shapes.push_back(range(-200, 201, 2));  // dense, every other window
  std::vector<int64_t> boundary = {-65, -64, -1, 0, 63, 64};
  for (int64_t w = 100; w < 170; ++w) boundary.push_back(w);
  shapes.push_back(boundary);  // dense, 76 windows over 5 words
  std::vector<int64_t> far = range(0, 150, 1);
  far.push_back(10'000'000);   // a dense history plus one far window
  shapes.push_back(far);
  shapes.push_back(range(0, 80 * 97, 97));  // sparse: 80 windows, 120 words
  shapes.push_back(range(-40, -10, 1));     // dense span, under 64 windows
  return shapes;
}

// Every shape on each side, one to five records per window drawn from ten
// spots — eight within a few kilometres, so distances tie often, and two
// about 100 km off, so alibis occur. The windows' bin counts then cover
// 1x1, 1xN, Mx1, and M x N windows from 2x2 up to 5x5.
LinkageContext MixedDensityContext() {
  const std::vector<std::vector<int64_t>> shapes = MixedDensityWindows();
  std::vector<LatLng> spots;
  for (int k = 0; k < 8; ++k) {
    spots.push_back({40.70 + 0.012 * (k % 4), -74.00 + 0.015 * (k / 4)});
  }
  spots.push_back({41.60, -74.00});
  spots.push_back({40.70, -72.80});
  Rng rng(2606);
  LocationDataset e("E"), i("I");
  const HistoryConfig config;
  for (LocationDataset* side : {&e, &i}) {
    for (size_t k = 0; k < shapes.size(); ++k) {
      for (const int64_t w : shapes[k]) {
        const int64_t records = 1 + static_cast<int64_t>(rng.NextUint64(5));
        for (int64_t j = 0; j < records; ++j) {
          side->Add(static_cast<EntityId>(k),
                    spots[static_cast<size_t>(rng.NextUint64(spots.size()))],
                    w * config.window_seconds + 30 + 60 * j);
        }
      }
    }
    side->Finalize();
  }
  return LinkageContext::Build(e, i, config, /*threads=*/1);
}

size_t DistinctCells(const BinVocabulary& vocab) {
  std::set<uint64_t> cells;
  for (BinId b = 0; b < vocab.size(); ++b) cells.insert(vocab.cell(b).raw());
  return cells.size();
}

// Scores every cross pair the way SlimLinker's scoring loop does (one
// CellDistanceCache and ScoreScratch, the cache's counters added to the
// stats) and checks scores, counters and the distance path against the
// reference. Returns the cache misses, which tell the two paths apart.
uint64_t ExpectMatchesReference(const LinkageContext& ctx) {
  std::vector<SimilarityConfig> configs(4);
  configs[1].use_idf = false;
  configs[2].pairing = PairingKind::kAllPairs;
  configs[3].use_normalization = false;
  configs[3].use_mfn = false;
  const std::vector<WindowBins> groups_e = GroupByWindow(ctx, ctx.store_e);
  const std::vector<WindowBins> groups_i = GroupByWindow(ctx, ctx.store_i);
  uint64_t misses = 0;
  for (size_t c = 0; c < configs.size(); ++c) {
    const SimilarityEngine engine(ctx, configs[c]);
    SimilarityStats stats;
    CellDistanceCache cache;
    ScoreScratch scratch;
    ReferenceCounts ref;
    size_t nonzero = 0;
    for (EntityIdx u = 0; u < ctx.store_e.size(); ++u) {
      for (EntityIdx v = 0; v < ctx.store_i.size(); ++v) {
        const double want = ReferenceScore(ctx, configs[c], u, v,
                                           groups_e[u], groups_i[v], &ref);
        const double got =
            engine.ScoreIndexed(u, v, &stats, &cache, &scratch);
        EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
            << "config " << c << " pair (" << u << ", " << v << "): " << got
            << " vs " << want;
        if (want != 0.0) ++nonzero;
      }
    }
    stats.cache_hits += cache.hits();
    stats.cache_misses += cache.misses();
    EXPECT_GT(nonzero, 0u) << "config " << c;
    EXPECT_GT(ref.lookups, 0u) << "config " << c;
    EXPECT_EQ(stats.record_comparisons, ref.record_comparisons)
        << "config " << c;
    EXPECT_EQ(stats.alibi_pairs, ref.alibi_pairs) << "config " << c;
    EXPECT_EQ(stats.cache_hits + stats.cache_misses, ref.lookups)
        << "config " << c;
    misses += stats.cache_misses;
  }
  return misses;
}

TEST(ScoreKernelEngine, TablePathMatchesTheReference) {
  const LinkageContext ctx = CommuteContext();
  const size_t cells = DistinctCells(ctx.vocab);
  ASSERT_LE(cells, kCellDistanceTableMaxCells);
  ASSERT_LE(cells * (cells + 1) / 2, ctx.vocab.size());
  // Every distance came from the table: no MinDistanceMeters call, so no
  // miss.
  EXPECT_EQ(ExpectMatchesReference(ctx), 0u);
}

TEST(ScoreKernelEngine, MemoPathMatchesTheReference) {
  // No table, so the caller's cache computed (and missed) every new pair:
  // once for too many distinct cells ...
  const LinkageContext wide = WideAreaContext();
  ASSERT_GT(DistinctCells(wide.vocab), kCellDistanceTableMaxCells);
  EXPECT_GT(ExpectMatchesReference(wide), 0u);
  // ... and once for too few bins to repay the fill.
  const LinkageContext& small = EngineContext();
  const size_t cells = DistinctCells(small.vocab);
  ASSERT_LE(cells, kCellDistanceTableMaxCells);
  ASSERT_GT(cells * (cells + 1) / 2, small.vocab.size());
  EXPECT_GT(ExpectMatchesReference(small), 0u);
}

// Bitmap and merge intersections against the reference, on every pairing
// of dense, sparse, under-64-window and far-window histories.
TEST(ScoreKernelEngine, BitmapAndMergePathsMatchTheReference) {
  const LinkageContext ctx = MixedDensityContext();
  const std::vector<std::vector<int64_t>> shapes = MixedDensityWindows();
  const SimilarityEngine engine(ctx, SimilarityConfig{});
  // The density rule, restated: at least kBitmapMinWindows windows, and no
  // more 64-window words spanned than windows held.
  auto dense = [&](const HistoryStore& store, EntityIdx u) {
    const auto w = store.windows(u);
    return w.size() >= kBitmapMinWindows &&
           (w.back() >> 6) - (w.front() >> 6) + 1 <=
               static_cast<int64_t>(w.size());
  };
  ASSERT_EQ(ctx.store_e.size(), shapes.size());
  for (EntityIdx u = 0; u < shapes.size(); ++u) {
    ASSERT_EQ(std::vector<int64_t>(ctx.store_e.windows(u).begin(),
                                   ctx.store_e.windows(u).end()),
              shapes[u]);
    EXPECT_EQ(engine.HasWindowBitmap(LinkageSide::kE, u),
              dense(ctx.store_e, u))
        << "entity " << u;
    EXPECT_EQ(engine.HasWindowBitmap(LinkageSide::kI, u),
              dense(ctx.store_i, u))
        << "entity " << u;
  }
  // The far window moves only its own entity off the bitmap path.
  EXPECT_TRUE(engine.HasWindowBitmap(LinkageSide::kE, 0));
  EXPECT_FALSE(engine.HasWindowBitmap(LinkageSide::kE, 4));
  EXPECT_FALSE(engine.HasWindowBitmap(LinkageSide::kE, 6));
  size_t by_kind[3] = {0, 0, 0};  // sparse x sparse, mixed, dense x dense
  for (EntityIdx u = 0; u < ctx.store_e.size(); ++u) {
    for (EntityIdx v = 0; v < ctx.store_i.size(); ++v) {
      SimilarityStats stats;
      if (engine.ScoreIndexed(u, v, &stats) == 0.0) continue;
      ++by_kind[(engine.HasWindowBitmap(LinkageSide::kE, u) ? 1 : 0) +
                (engine.HasWindowBitmap(LinkageSide::kI, v) ? 1 : 0)];
    }
  }
  EXPECT_GT(by_kind[0], 0u);
  EXPECT_GT(by_kind[1], 0u);
  EXPECT_GT(by_kind[2], 0u);
  ExpectMatchesReference(ctx);
}

// ---------------------------------------------------------------------------
// Seeded fuzz-style stress. Larger draws in Release; the Debug (sanitizer)
// legs run a reduced count of the same cases. Every iteration derives its
// own seed and reports it via SCOPED_TRACE on failure; set
// SLIM_KERNEL_STRESS_SEED to replay exactly one draw.
// ---------------------------------------------------------------------------

#ifdef NDEBUG
constexpr int kStressIterations = 500;
#else
constexpr int kStressIterations = 60;
#endif

std::vector<uint64_t> StressSeeds(uint64_t base) {
  if (const char* env = std::getenv("SLIM_KERNEL_STRESS_SEED");
      env != nullptr && env[0] != '\0') {
    return {static_cast<uint64_t>(std::strtoull(env, nullptr, 10))};
  }
  std::vector<uint64_t> seeds;
  std::mt19937_64 rng(base);
  for (int k = 0; k < kStressIterations; ++k) seeds.push_back(rng());
  return seeds;
}

TEST(ScoreKernelIntersect, RandomSpans_Stress) {
  for (const uint64_t seed : StressSeeds(0x511351aab5ULL)) {
    SCOPED_TRACE("SLIM_KERNEL_STRESS_SEED=" + std::to_string(seed));
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<size_t> len_dist(0, 300);
    std::uniform_int_distribution<int> gap_dist(1, 6);
    std::uniform_int_distribution<int64_t> start_dist(-1000, 1000);
    // Correlated spans: subsets of one base sequence (high overlap), plus
    // an independent tail (misses), lengths on both sides of the
    // galloping ratio.
    const auto base = RandomSpan<int64_t>(rng, 400, start_dist(rng),
                                          gap_dist(rng));
    auto a = RandomSubset(rng, base, 0.6);
    auto b = RandomSubset(rng, base, 0.4);
    a.resize(std::min(a.size(), len_dist(rng)));
    b.resize(std::min(b.size(), len_dist(rng)));
    ExpectAllPathsAgree(a, b);
    // Independent u32 spans with occasional accidental overlap.
    const auto ua = RandomSpan<uint32_t>(rng, len_dist(rng), 0u, 4);
    const auto ub = RandomSpan<uint32_t>(rng, len_dist(rng), 2u, 4);
    ExpectAllPathsAgree(ua, ub);
    if (::testing::Test::HasFailure()) break;
  }
}

}  // namespace
}  // namespace slim
