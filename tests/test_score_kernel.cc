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
//      the call-local fallback, on every ablation config;
//   3. seeded fuzz-style *_Stress cases (larger iteration counts in
//      Release) that print their seed on failure — rerun with
//      SLIM_KERNEL_STRESS_SEED=<seed> to replay a single failing draw.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <random>
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
// Quantized counts.
// ---------------------------------------------------------------------------

TEST(ScoreKernelQuantize, SaturatesAtU16Boundary) {
  EXPECT_EQ(QuantizeCountSaturating(0), 0);
  EXPECT_EQ(QuantizeCountSaturating(1), 1);
  EXPECT_EQ(QuantizeCountSaturating(65534), 65534);
  EXPECT_EQ(QuantizeCountSaturating(65535), 65535);
  EXPECT_EQ(QuantizeCountSaturating(65536), 65535);  // guard: clamp, no wrap
  EXPECT_EQ(QuantizeCountSaturating(1u << 31), 65535);
  EXPECT_EQ(QuantizeCountSaturating(std::numeric_limits<uint32_t>::max()),
            65535);

  const std::vector<uint32_t> counts = {0, 5, 65535, 65536, 4000000000u};
  std::vector<uint16_t> q(counts.size());
  QuantizeCountsSaturating(counts, q.data());
  EXPECT_EQ(q, (std::vector<uint16_t>{0, 5, 65535, 65535, 65535}));
}

TEST(ScoreKernelQuantize, OverlapSumsMinCountsOverSharedBins) {
  const std::vector<uint32_t> bins_a = {2, 5, 9, 14};
  const std::vector<uint16_t> counts_a = {3, 10, 1, 65535};
  const std::vector<uint32_t> bins_b = {1, 5, 9, 14, 20};
  const std::vector<uint16_t> counts_b = {8, 4, 7, 65535, 2};
  // Shared: bin 5 (min 4), bin 9 (min 1), bin 14 (min 65535 — saturated on
  // both sides stays exact in the u64 sum).
  std::vector<uint32_t> scratch_a, scratch_b;
  EXPECT_EQ(QuantizedOverlap(bins_a, counts_a, bins_b, counts_b, &scratch_a,
                             &scratch_b),
            4u + 1u + 65535u);
  // No shared bins -> 0; empty side -> 0.
  EXPECT_EQ(QuantizedOverlap(bins_a, counts_a, {}, {}, &scratch_a, &scratch_b),
            0u);
  EXPECT_EQ(QuantizedOverlap(std::vector<uint32_t>{1}, std::vector<uint16_t>{9},
                             std::vector<uint32_t>{2}, std::vector<uint16_t>{9},
                             &scratch_a, &scratch_b),
            0u);
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
