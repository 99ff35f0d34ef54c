// Memoised cell-to-cell distances.
//
// Pairwise similarity scoring recomputes MinDistanceMeters for the same
// cell pairs constantly (hotspot cells recur across windows and entity
// pairs), and the underlying spherical trigonometry dominates the scoring
// profile. This cache keys on the unordered cell pair and is bounded: past
// `capacity` entries new pairs are computed without being stored.
//
// Not thread-safe by design — the scoring loop keeps one cache per worker
// shard.
#ifndef SLIM_GEO_DISTANCE_CACHE_H_
#define SLIM_GEO_DISTANCE_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "geo/cell_id.h"

namespace slim {

/// Bounded memo table over MinDistanceMeters(a, b).
class CellDistanceCache {
 public:
  /// `capacity` bounds the number of stored pairs (0 disables storage,
  /// turning Get into a plain computation). The default keeps the table
  /// around ~50 MB worst case; fine-grained workloads overflow it and fall
  /// back to direct computation for the long tail of rare pairs.
  explicit CellDistanceCache(size_t capacity = 1 << 20)
      : capacity_(capacity) {}

  /// Minimum geographic distance between the two cells, in meters.
  double Get(CellId a, CellId b) {
    if (a.raw() > b.raw()) std::swap(a, b);
    const Key key{a.raw(), b.raw()};
    const auto it = map_.find(key);
    if (it != map_.end()) {
      ++hits_;
      return it->second;
    }
    const double d = MinDistanceMeters(a, b);
    if (map_.size() < capacity_) {
      // Buckets are reserved on the first insert, so a cache that is never
      // filled (the scoring engine's distance-table path) allocates none.
      if (map_.empty()) map_.reserve(std::min<size_t>(capacity_, 1 << 16));
      map_.emplace(key, d);
    }
    ++misses_;
    return d;
  }

  size_t size() const { return map_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  using Key = std::pair<uint64_t, uint64_t>;
  struct KeyHash {
    size_t operator()(const Key& k) const noexcept {
      uint64_t z = k.first * 0x9e3779b97f4a7c15ULL ^ k.second;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return static_cast<size_t>(z ^ (z >> 31));
    }
  };

  size_t capacity_;
  std::unordered_map<Key, double, KeyHash> map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace slim

#endif  // SLIM_GEO_DISTANCE_CACHE_H_
