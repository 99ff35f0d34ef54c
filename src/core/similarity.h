// Mobility-history similarity score (paper Eq. 2 and Alg. 1's inner loops).
//
//   S(u, v) = sum over {e, i} in N(u, v) of
//             P(e, i) * min(idf(e, E), idf(i, I)) / (L(u, E) * L(v, I))
//
// plus the optional mutually-furthest-neighbor pass that adds the *negative*
// contributions (alibis) the nearest pairing missed. The engine runs on the
// dense interned representation (core/linkage_context.h): per-entity CSR
// bin spans, flat IDF arrays indexed by BinId, and precomputed length
// normalisations — no hash-map lookup anywhere on the scoring path. It also
// keeps the instrumentation the evaluation reports: number of bin-pair
// distance computations ("record comparisons") and number of alibi pairs
// detected.
#ifndef SLIM_CORE_SIMILARITY_H_
#define SLIM_CORE_SIMILARITY_H_

#include <cstdint>
#include <vector>

#include "core/linkage_context.h"
#include "core/proximity.h"
#include "core/score_kernel.h"
#include "geo/distance_cache.h"

namespace slim {

/// Which pairing function N uses (Fig. 10 ablation).
enum class PairingKind {
  kMutuallyNearest,  // the paper's N (default)
  kAllPairs,         // Cartesian product ablation
};

/// Similarity score configuration. The boolean toggles exist for the
/// ablation study (Fig. 10); production use keeps them all on.
struct SimilarityConfig {
  /// BM25-style length-normalisation strength b in [0, 1] (Eq. 2;
  /// paper default 0.5).
  double b = 0.5;

  /// Proximity / alibi parameters (Eq. 1).
  ProximityConfig proximity;

  PairingKind pairing = PairingKind::kMutuallyNearest;
  /// Enables the mutually-furthest-neighbor alibi pass of Alg. 1.
  bool use_mfn = true;
  /// Enables the idf multiplier (off -> multiplier 1).
  bool use_idf = true;
  /// Enables the L(u,E)*L(v,I) normalisation (off -> divisor 1).
  bool use_normalization = true;

  /// Provenance name of the scoring kernel (core/score_kernel.h). There is
  /// one kernel; bench records report this name and nothing reads it to
  /// choose a code path.
  ScoreKernel kernel = ScoreKernel::kScalar;
};

/// Instrumentation accumulated while scoring; all counters are additive so
/// per-shard instances can be merged.
struct SimilarityStats {
  /// Bin-pair distance computations (the evaluation's "record
  /// comparisons" axis).
  uint64_t record_comparisons = 0;
  /// Same-window bin pairs found beyond the runaway distance.
  uint64_t alibi_pairs = 0;
  /// Entity pairs scored.
  uint64_t entity_pairs = 0;
  /// CellDistanceCache hits/misses over the scoring loop. NOTE: the split
  /// between hits and misses depends on how entities shard over worker
  /// threads (each shard warms its own cache), so unlike every other
  /// counter these are NOT invariant across thread counts — only
  /// hits + misses is. (Same-bin pairs are scored without a cache lookup —
  /// their distance is 0 by construction — so hits + misses counts the
  /// distance-computed bin pairs, a subset of record_comparisons.)
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  SimilarityStats& operator+=(const SimilarityStats& other) {
    record_comparisons += other.record_comparisons;
    alibi_pairs += other.alibi_pairs;
    entity_pairs += other.entity_pairs;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    return *this;
  }
};

/// Reusable per-thread scoring buffers. ScoreIndexed fills and reuses these
/// instead of allocating per call; pass one instance per worker thread
/// alongside its CellDistanceCache (nullptr falls back to a call-local
/// instance). Contents between calls are scratch — never read them.
struct ScoreScratch {
  std::vector<uint32_t> match_a;  // window-intersection positions, left
  std::vector<uint32_t> match_b;  // window-intersection positions, right
  std::vector<double> dist;       // per-window distance matrix
  std::vector<char> in_mnn;       // MNN membership mask
};

/// Scores pairs of entities across the two stores of a LinkageContext
/// (dataset E on the left, dataset I on the right). Thread-safe: scoring is
/// const and all mutable state lives in the caller-provided
/// stats/cache/scratch.
class SimilarityEngine {
 public:
  /// The context must outlive the engine.
  SimilarityEngine(const LinkageContext& context,
                   const SimilarityConfig& config);

  const SimilarityConfig& config() const { return config_; }

  /// S(u, v) per Eq. 2 over dense indices (u into store_e, v into store_i).
  /// `cache` memoises cell distances across calls (pass one per worker
  /// thread); nullptr computes distances directly. `scratch` provides the
  /// reusable buffers (one per worker thread); nullptr allocates locally.
  double ScoreIndexed(EntityIdx u, EntityIdx v, SimilarityStats* stats,
                      CellDistanceCache* cache = nullptr,
                      ScoreScratch* scratch = nullptr) const;

  /// Convenience entity-id overload; unknown entities score 0.
  double Score(EntityId u, EntityId v, SimilarityStats* stats,
               CellDistanceCache* cache = nullptr,
               ScoreScratch* scratch = nullptr) const;

 private:
  const LinkageContext& ctx_;
  SimilarityConfig config_;
  double runaway_m_;
  // Precomputed L(u, E) / L(v, I) per entity (empty when normalisation is
  // disabled or a side is empty).
  std::vector<double> norm_e_;
  std::vector<double> norm_i_;
};

}  // namespace slim

#endif  // SLIM_CORE_SIMILARITY_H_
