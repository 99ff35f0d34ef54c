// Hierarchical spatial grid, standing in for Google S2 (docs/ARCHITECTURE.md,
// "geo — the spatial grid", says why).
//
// The Earth's surface is partitioned by a lat/lng quadtree: level 0 is the
// whole surface, and each level splits every cell into a 2x2 grid, so level
// L is a 2^L x 2^L equirectangular grid. At the maximum level (28) a cell
// spans ~7.5 cm of latitude — finer than any positioning system SLIM
// ingests, and comparable to S2's leaf resolution for our purposes.
//
// SLIM uses exactly three capabilities of the spatial library, all provided
// here: (1) point -> cell id at a configurable level, (2) parent/child
// navigation between levels (for LSH dominating-cell queries at coarser
// levels than the history leaves), and (3) a geographic distance between
// cells (for the proximity function, Eq. 1 of the paper).
#ifndef SLIM_GEO_CELL_ID_H_
#define SLIM_GEO_CELL_ID_H_

#include <cstdint>
#include <functional>
#include <string>

#include "geo/latlng.h"

namespace slim {

/// Latitude/longitude axis-aligned rectangle (degrees), closed on the low
/// edges, open on the high edges (except at the domain boundary).
struct LatLngRect {
  double lat_lo = 0.0;
  double lat_hi = 0.0;
  double lng_lo = 0.0;
  double lng_hi = 0.0;

  LatLng Center() const {
    return {0.5 * (lat_lo + lat_hi), 0.5 * (lng_lo + lng_hi)};
  }
};

/// Identifier of one grid cell. 64-bit value ordering groups cells of the
/// same level; the all-zero value is the invalid sentinel.
///
/// Bit layout: [63:62]=validity tag (01), [61:56]=level, [55:28]=lat index i,
/// [27:0]=lng index j, with i, j in [0, 2^level).
class CellId {
 public:
  static constexpr int kMaxLevel = 28;

  /// Constructs the invalid cell id.
  constexpr CellId() : id_(0) {}

  /// Reconstructs a cell id from its raw 64-bit representation. The result
  /// may be invalid; check IsValid().
  static constexpr CellId FromRaw(uint64_t raw) { return CellId(raw); }

  /// The cell at `level` containing `point` (normalised first).
  /// Requires 0 <= level <= kMaxLevel.
  static CellId FromLatLng(const LatLng& point, int level);

  /// The cell with the given grid indices. Requires valid level and
  /// i, j < 2^level.
  static CellId FromIndices(int level, uint64_t i, uint64_t j);

  /// Parses the hex token produced by ToToken(). Returns invalid on garbage.
  static CellId FromToken(const std::string& token);

  bool IsValid() const;
  /// Hierarchy depth (0..kMaxLevel). Requires IsValid().
  int level() const;
  /// Latitude grid index in [0, 2^level). Requires IsValid().
  uint64_t i() const;
  /// Longitude grid index in [0, 2^level). Requires IsValid().
  uint64_t j() const;
  uint64_t raw() const { return id_; }

  /// Geodetic bounds of this cell. Requires IsValid().
  LatLngRect Bounds() const;
  /// Center point of this cell. Requires IsValid().
  LatLng CenterLatLng() const;

  /// The ancestor at `level` (<= this cell's level). Requires IsValid().
  CellId Parent(int level) const;
  /// The immediate parent; requires level() > 0.
  CellId Parent() const;
  /// Child k (0..3) one level down, in (i,j) bit order. Requires
  /// level() < kMaxLevel.
  CellId Child(int k) const;
  /// True if `other` equals this cell or is a descendant of it.
  bool Contains(CellId other) const;

  /// Lowercase-hex token; round-trips through FromToken().
  std::string ToToken() const;

  friend bool operator==(CellId a, CellId b) { return a.id_ == b.id_; }
  friend bool operator!=(CellId a, CellId b) { return a.id_ != b.id_; }
  friend bool operator<(CellId a, CellId b) { return a.id_ < b.id_; }

 private:
  explicit constexpr CellId(uint64_t id) : id_(id) {}

  uint64_t id_;
};

/// Minimum great-circle distance in meters between the two cells' bounding
/// rectangles (0 when the cells touch or overlap, e.g. for neighbours or an
/// ancestor/descendant pair). This is the `d` of the paper's Eq. 1.
double MinDistanceMeters(CellId a, CellId b);

/// Great-circle distance between the two cells' center points. Provided as
/// an ablation alternative to MinDistanceMeters.
double CenterDistanceMeters(CellId a, CellId b);

/// Approximate edge lengths (meters) of a cell at `level` at the equator:
/// useful for choosing spatial levels. Latitude extent is constant per
/// level; longitude extent shrinks with cos(lat).
double CellLatExtentMeters(int level);

}  // namespace slim

/// Hash support so CellId can key unordered containers.
template <>
struct std::hash<slim::CellId> {
  size_t operator()(slim::CellId c) const noexcept {
    // SplitMix64 finaliser over the raw id.
    uint64_t z = c.raw() + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<size_t>(z ^ (z >> 31));
  }
};

#endif  // SLIM_GEO_CELL_ID_H_
