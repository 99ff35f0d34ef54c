// Pairing functions over the bins of one shared temporal window
// (paper Sec. 3.1.2 and Alg. 1).
//
// N_w(u, v)  — mutually-nearest pairing: repeatedly select the bin pair with
//              the smallest cell distance, remove both bins, until the
//              smaller side is exhausted. This blocks over-counting that a
//              Cartesian product would cause.
// N'_w(u, v) — mutually-furthest pairing: same procedure with the largest
//              distance; used only to catch alibi pairs the nearest pairing
//              misses (Alg. 1's optional inner loop).
//
// All functions consume a precomputed row-major distance matrix so the
// similarity engine computes each cell distance exactly once per window.
// (The all-pairs ablation of Fig. 10 needs no pairing function: the engine
// walks the window's Cartesian product in row-major order.)
#ifndef SLIM_CORE_PAIRING_H_
#define SLIM_CORE_PAIRING_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace slim {

/// An index pair (row e in u's bins, column i in v's bins).
using BinPair = std::pair<size_t, size_t>;

/// Mutually-nearest-neighbor pairing over an m x n distance matrix
/// (row-major). Returns min(m, n) disjoint pairs, deterministically
/// (distance ties break on (row, col)).
std::vector<BinPair> MutuallyNearestPairs(const std::vector<double>& dist,
                                          size_t m, size_t n);

/// Mutually-furthest-neighbor pairing: as above with maximal distances.
std::vector<BinPair> MutuallyFurthestPairs(const std::vector<double>& dist,
                                           size_t m, size_t n);

/// Both pairings from one shared sort of the distance matrix — the scoring
/// hot path (Alg. 1 needs N and N' for every common window), and the only
/// pairing the similarity engine runs. Fast paths handle the ubiquitous
/// 1x1, 1xN and Mx1 windows without sorting.
///
/// `nearest` always equals MutuallyNearestPairs(). `furthest` equals
/// MutuallyFurthestPairs() whenever the distances are distinct, and in
/// every 1xN or Mx1 window (both take the first maximum). In a larger
/// window it walks the ascending order backwards, so among equal distances
/// it takes the LARGER row-major index (row * n + col) first, where
/// MutuallyFurthestPairs() takes the smaller. The two can then select
/// different distances, not just different cells: on [[5, 5], [5, 1]] the
/// reference selects {5, 1} and this function {5, 5}, at (1, 0) and
/// (0, 1). Scores (and the goldens) follow this function's rule.
///
/// The result lands in caller-owned storage. Keep one MutualPairing per
/// worker thread and reuse it: its vectors keep their capacity, so a warm
/// instance pairs a window without allocating. Every call overwrites
/// `nearest` and `furthest` (`furthest` stays empty unless
/// `need_furthest`); `order`, `row_used` and `col_used` are scratch.
struct MutualPairing {
  std::vector<BinPair> nearest;
  std::vector<BinPair> furthest;
  std::vector<uint32_t> order;  // ascending (distance, row-major index)
  std::vector<char> row_used;
  std::vector<char> col_used;
};
void MutualNearestAndFurthestPairs(std::span<const double> dist, size_t m,
                                   size_t n, bool need_furthest,
                                   MutualPairing* out);

}  // namespace slim

#endif  // SLIM_CORE_PAIRING_H_
