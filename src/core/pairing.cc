#include "core/pairing.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"

namespace slim {
namespace {

// Shared greedy selection: order all (row, col) pairs by distance (ascending
// for nearest, descending for furthest; ties on (row, col)), then take pairs
// whose row and column are both unused until min(m, n) pairs are selected.
std::vector<BinPair> GreedyDisjointPairs(const std::vector<double>& dist,
                                         size_t m, size_t n, bool nearest) {
  SLIM_CHECK_MSG(dist.size() == m * n, "distance matrix shape mismatch");
  std::vector<BinPair> result;
  if (m == 0 || n == 0) return result;

  std::vector<size_t> order(m * n);
  for (size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (dist[a] != dist[b]) {
      return nearest ? dist[a] < dist[b] : dist[a] > dist[b];
    }
    return a < b;
  });

  std::vector<char> row_used(m, 0), col_used(n, 0);
  const size_t want = std::min(m, n);
  result.reserve(want);
  for (size_t k : order) {
    const size_t r = k / n;
    const size_t c = k % n;
    if (row_used[r] || col_used[c]) continue;
    row_used[r] = 1;
    col_used[c] = 1;
    result.emplace_back(r, c);
    if (result.size() == want) break;
  }
  return result;
}

}  // namespace

std::vector<BinPair> MutuallyNearestPairs(const std::vector<double>& dist,
                                          size_t m, size_t n) {
  return GreedyDisjointPairs(dist, m, n, /*nearest=*/true);
}

std::vector<BinPair> MutuallyFurthestPairs(const std::vector<double>& dist,
                                           size_t m, size_t n) {
  return GreedyDisjointPairs(dist, m, n, /*nearest=*/false);
}

void MutualNearestAndFurthestPairs(std::span<const double> dist, size_t m,
                                   size_t n, bool need_furthest,
                                   MutualPairing* out) {
  SLIM_CHECK_MSG(dist.size() == m * n, "distance matrix shape mismatch");
  out->nearest.clear();
  out->furthest.clear();
  if (m == 0 || n == 0) return;

  // Fast path: one bin on either side (SingleRowExtremes); no sort.
  if (m == 1 || n == 1) {
    SingleRowExtremes extremes;
    for (const double d : dist) extremes.Add(d);
    out->nearest.emplace_back(extremes.arg_min() / n, extremes.arg_min() % n);
    if (need_furthest) {
      out->furthest.emplace_back(extremes.arg_max() / n,
                                 extremes.arg_max() % n);
    }
    return;
  }

  // One shared ascending sort serves both pairings: nearest consumes it
  // front-to-back, furthest back-to-front.
  std::vector<uint32_t>& order = out->order;
  order.resize(m * n);
  for (size_t k = 0; k < order.size(); ++k) {
    order[k] = static_cast<uint32_t>(k);
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (dist[a] != dist[b]) return dist[a] < dist[b];
    return a < b;
  });

  const size_t want = std::min(m, n);
  std::vector<char>& row_used = out->row_used;
  std::vector<char>& col_used = out->col_used;
  row_used.assign(m, 0);
  col_used.assign(n, 0);
  for (uint32_t k : order) {
    const size_t r = k / n;
    const size_t c = k % n;
    if (row_used[r] || col_used[c]) continue;
    row_used[r] = 1;
    col_used[c] = 1;
    out->nearest.emplace_back(r, c);
    if (out->nearest.size() == want) break;
  }
  if (need_furthest) {
    row_used.assign(m, 0);
    col_used.assign(n, 0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const size_t r = *it / n;
      const size_t c = *it % n;
      if (row_used[r] || col_used[c]) continue;
      row_used[r] = 1;
      col_used[c] = 1;
      out->furthest.emplace_back(r, c);
      if (out->furthest.size() == want) break;
    }
  }
}

}  // namespace slim
