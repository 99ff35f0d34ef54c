#include "core/history.h"

#include <map>

#include "common/check.h"
#include "geo/covering.h"
#include "temporal/time_window.h"

namespace slim {

std::vector<TimeLocationBin> GroupRecordsIntoBins(
    std::span<const Record> records, const HistoryConfig& config) {
  SLIM_CHECK_MSG(config.spatial_level >= 0 &&
                     config.spatial_level <= CellId::kMaxLevel,
                 "invalid spatial level");
  SLIM_CHECK_MSG(config.window_seconds > 0, "invalid window width");

  std::map<std::pair<int64_t, CellId>, uint32_t> grouped;
  for (const Record& r : records) {
    const int64_t w = WindowIndexOf(r.timestamp, config.window_seconds);
    if (config.region_radius_meters > 0.0) {
      // Region record: copy into every intersecting leaf cell.
      for (const CellId c : CellsCoveringDisc(
               r.location, config.region_radius_meters,
               config.spatial_level)) {
        ++grouped[{w, c}];
      }
    } else {
      const CellId c = CellId::FromLatLng(r.location, config.spatial_level);
      ++grouped[{w, c}];
    }
  }

  std::vector<TimeLocationBin> bins;
  bins.reserve(grouped.size());
  for (const auto& [key, count] : grouped) {
    bins.push_back({key.first, key.second, count});
  }
  return bins;
}

}  // namespace slim
