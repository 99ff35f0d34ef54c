#include "core/history.h"

#include <algorithm>
#include <utility>

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

  // One (window, cell) key per record, or per covered cell of a region
  // record; sorted, each run of equal keys is one bin.
  std::vector<std::pair<int64_t, CellId>> keys;
  keys.reserve(records.size());
  for (const Record& r : records) {
    const int64_t w = WindowIndexOf(r.timestamp, config.window_seconds);
    if (config.region_radius_meters > 0.0) {
      // Region record: copy into every intersecting leaf cell.
      for (const CellId c : CellsCoveringDisc(
               r.location, config.region_radius_meters,
               config.spatial_level)) {
        keys.emplace_back(w, c);
      }
    } else {
      keys.emplace_back(w,
                        CellId::FromLatLng(r.location, config.spatial_level));
    }
  }
  std::sort(keys.begin(), keys.end());

  size_t distinct = keys.empty() ? 0 : 1;
  for (size_t k = 1; k < keys.size(); ++k) {
    distinct += keys[k] != keys[k - 1] ? 1 : 0;
  }
  std::vector<TimeLocationBin> bins;
  bins.reserve(distinct);
  for (size_t k = 0; k < keys.size(); ++k) {
    if (k > 0 && keys[k] == keys[k - 1]) {
      ++bins.back().record_count;
    } else {
      bins.push_back({keys[k].first, keys[k].second, 1});
    }
  }
  return bins;
}

}  // namespace slim
