// Mobility-history similarity score (paper Eq. 2 and Alg. 1's inner loops).
//
//   S(u, v) = sum over {e, i} in N(u, v) of
//             P(e, i) * min(idf(e, E), idf(i, I)) / (L(u, E) * L(v, I))
//
// plus the optional mutually-furthest-neighbor pass that adds the *negative*
// contributions (alibis) the nearest pairing missed. The engine runs on the
// dense interned representation (core/linkage_context.h): per-entity CSR
// bin spans, flat IDF arrays indexed by BinId, and precomputed length
// normalisations.
//
// Every pair first passes the 512-bit window-fingerprint gate (disjoint
// fingerprints prove an empty intersection). Its shared windows then come
// from one of two intersections, chosen per pair from the two entities'
// shapes:
//
//   bitmap — both entities have at least kBitmapMinWindows windows and are
//            dense: an entity is dense when its windows span at most as
//            many globally aligned 64-window words (word w >> 6, bit
//            w & 63; floor division, so pre-epoch windows work) as it has
//            windows. The engine keeps one occupancy word per spanned
//            word for each dense entity, plus the count of its windows in
//            earlier words (at most 12 B per window). The pair intersects
//            by an AND over the words both span; a set bit's position in
//            each window list is that count plus the popcount of the word
//            below the bit. Dense GPS-like histories (commute) take it.
//   merge  — every other pair: the sorted-list merge of
//            core/score_kernel.h. Sparse check-in histories take it; one
//            far timestamp stretches its own entity's word span and moves
//            only that entity here.
//
// Both emit the shared windows' positions in the same ascending order, so
// the path never changes a score. A shared window with one bin on either
// side takes the first nearest and the first furthest bin directly
// (SingleRowExtremes, the rule of MutualNearestAndFurthestPairs' fast path;
// core/pairing.h) without a distance matrix or a pairing call.
//
// Cell distances come from one of two places, chosen by the engine from
// the vocabulary's distinct-cell count K:
//
//   table — K <= kCellDistanceTableMaxCells and K(K+1)/2 <= the
//           vocabulary's bin count: the engine interns the cells once (a
//           dense cell index per BinId) and fills one shared, read-only
//           K x K table of MinDistanceMeters and its Eq. 1 proximity;
//           scoring reads it.
//   memo  — otherwise (wide-area inputs, where K^2 does not fit, and
//           problems too small to repay the fill): the caller's
//           per-worker CellDistanceCache (geo/distance_cache.h).
//
// Both yield the same bits, so the path never changes a score. The engine
// also keeps the instrumentation the evaluation reports: number of bin-pair
// distance computations ("record comparisons") and number of alibi pairs
// detected.
#ifndef SLIM_CORE_SIMILARITY_H_
#define SLIM_CORE_SIMILARITY_H_

#include <cstdint>
#include <vector>

#include "core/linkage_context.h"
#include "core/pairing.h"
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
  /// Cell-distance lookups over the scoring loop. hits + misses counts the
  /// distance-computed bin pairs: record_comparisons minus the 1x1
  /// same-bin pairs, which are scored without a lookup (their distance is
  /// 0 by construction). On the table path the engine counts every table
  /// read as a hit and makes no MinDistanceMeters call, so misses stay 0.
  /// On the memo path the scoring loop adds its CellDistanceCache's
  /// hits/misses; there the split depends on which worker thread scored
  /// which entities (each worker warms its own cache), so unlike every
  /// other counter it is NOT invariant across thread counts or runs — only
  /// hits + misses is.
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
  MutualPairing pairing;          // per-window N / N' pairs and buffers
};

/// Largest distinct-cell count K for which SimilarityEngine fills its
/// dense K x K cell-distance table: 16 MB (a distance and a proximity per
/// entry) and 524,800 MinDistanceMeters calls at the limit. The engine
/// also requires K(K+1)/2 to be at most the vocabulary's bin count.
inline constexpr size_t kCellDistanceTableMaxCells = 1024;

/// Fewest windows an entity needs for the bitmap intersection (see the file
/// comment). The pair test reads both window counts, which the merge loads
/// anyway, before it touches a bitmap, so sparse pairs never pay for one.
inline constexpr size_t kBitmapMinWindows = 64;

/// Scores pairs of entities across the two stores of a LinkageContext
/// (dataset E on the left, dataset I on the right). Thread-safe: scoring is
/// const and all mutable state lives in the caller-provided
/// stats/cache/scratch.
class SimilarityEngine {
 public:
  /// The context must outlive the engine. On the table path (see the file
  /// comment) builds the cell index and the distance table, its rows
  /// filled in parallel on the shared pool.
  SimilarityEngine(const LinkageContext& context,
                   const SimilarityConfig& config);

  const SimilarityConfig& config() const { return config_; }

  /// Whether entity `idx` of `side` is dense and keeps a window bitmap, so
  /// its pairs with other such entities take the bitmap intersection.
  bool HasWindowBitmap(LinkageSide side, EntityIdx idx) const {
    const WindowBitmaps& maps = side == LinkageSide::kE ? bitmaps_e_
                                                        : bitmaps_i_;
    return maps.spans[idx].words != 0;
  }

  /// S(u, v) per Eq. 2 over dense indices (u into store_e, v into store_i).
  /// `cache` memoises cell distances across calls on the memo path (pass
  /// one per worker thread); nullptr computes distances directly. The
  /// table path ignores it. `scratch` provides the reusable buffers (one
  /// per worker thread); nullptr allocates locally.
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
  // The table path: every BinId's cell as its rank among the vocabulary's
  // distinct cells (ascending raw id), and the symmetric row-major
  // num_cells_ x num_cells_ table over those cells. Each entry holds
  // MinDistanceMeters with the smaller raw id first (the order
  // CellDistanceCache uses) and its SpatialProximity under runaway_m_.
  // Both empty on the memo path.
  struct CellPairEntry {
    double distance;
    double proximity;
  };
  static_assert(kCellDistanceTableMaxCells <= 65536,
                "cell ranks must fit the 16-bit cell index");
  std::vector<uint16_t> cell_index_;
  std::vector<CellPairEntry> cell_table_;
  size_t num_cells_ = 0;
  // The bitmap path: one store's dense entities as occupancy words over
  // [first_word, first_word + words), with `rank` holding the entity's
  // windows in earlier words. words == 0 marks an entity without one.
  struct WindowBitmaps {
    struct Span {
      int64_t first_word = 0;
      uint32_t offset = 0;  // into bits / rank
      uint32_t words = 0;
    };
    std::vector<Span> spans;  // per entity
    std::vector<uint64_t> bits;
    std::vector<uint32_t> rank;
  };
  static WindowBitmaps BuildWindowBitmaps(const HistoryStore& store);
  static size_t IntersectWindowBitmaps(const WindowBitmaps& a, EntityIdx u,
                                       const WindowBitmaps& b, EntityIdx v,
                                       uint32_t* out_a, uint32_t* out_b);
  WindowBitmaps bitmaps_e_;
  WindowBitmaps bitmaps_i_;
};

}  // namespace slim

#endif  // SLIM_CORE_SIMILARITY_H_
