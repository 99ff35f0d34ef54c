// Mobility-history binning (paper Sec. 2.3).
//
// A mobility history distributes one entity's records over time-location
// bins: the leaf windows of a hierarchical temporal partitioning, each
// holding the set of spatial grid cells the entity visited in that window
// (with record counts). This header holds the binning itself; the dense
// per-dataset store the pipeline runs on — bin IDF (Eq. 3), history length
// normalisation (Eq. 2) and the window trees — is HistoryStore
// (core/linkage_context.h).
#ifndef SLIM_CORE_HISTORY_H_
#define SLIM_CORE_HISTORY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "geo/cell_id.h"

namespace slim {

/// One time-location bin of a history: the entity produced `record_count`
/// records inside spatial cell `cell` during leaf window `window`.
struct TimeLocationBin {
  int64_t window = 0;
  CellId cell;
  uint32_t record_count = 0;

  bool operator==(const TimeLocationBin&) const = default;
};

/// Spatio-temporal resolution of the history representation.
struct HistoryConfig {
  /// Spatial grid level of the leaf cells (paper default 12).
  int spatial_level = 12;
  /// Leaf temporal window width in seconds (paper default 15 minutes).
  int64_t window_seconds = 900;
  /// When > 0, each record is treated as a *region* — a disc of this
  /// radius around its location — and is copied into every leaf cell the
  /// disc intersects (the paper's Sec. 2.1 extension for datasets whose
  /// record locations are regions rather than points). 0 keeps point
  /// semantics.
  double region_radius_meters = 0.0;
};

/// Groups one entity's records into time-location bins, sorted by
/// (window, cell) with per-bin record counts. This is the binning kernel
/// behind every HistoryStore (LinkageContext::Build in
/// core/linkage_context.h).
std::vector<TimeLocationBin> GroupRecordsIntoBins(
    std::span<const Record> records, const HistoryConfig& config);

}  // namespace slim

#endif  // SLIM_CORE_HISTORY_H_
