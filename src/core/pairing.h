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

/// Both pairings of a window with one bin on a side (1xN or Mx1): N is
/// the first entry in row-major order at the smallest distance, N' the
/// first at the largest. Add() the window's distances in row-major order.
/// MutualNearestAndFurthestPairs' fast path and the similarity engine,
/// which scores such windows without building a distance matrix, both use
/// this one rule.
class SingleRowExtremes {
 public:
  void Add(double d) {
    if (count_ == 0 || d < min_) {
      arg_min_ = count_;
      min_ = d;
    }
    if (count_ == 0 || d > max_) {
      arg_max_ = count_;
      max_ = d;
    }
    ++count_;
  }
  /// Row-major index and distance of the entry N pairs.
  size_t arg_min() const { return arg_min_; }
  double min_distance() const { return min_; }
  /// Row-major index and distance of the entry N' pairs.
  size_t arg_max() const { return arg_max_; }
  double max_distance() const { return max_; }

 private:
  size_t count_ = 0;
  size_t arg_min_ = 0;
  size_t arg_max_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Both pairings from one shared sort of the distance matrix — the scoring
/// hot path (Alg. 1 needs N and N' for every common window), and the only
/// pairing the similarity engine runs on windows with at least two bins a
/// side. Fast paths handle 1x1, 1xN and Mx1 windows without sorting.
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
