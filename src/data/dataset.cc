#include "data/dataset.h"

#include <algorithm>
#include <cstddef>

#include "common/check.h"

namespace slim {

LocationDataset LocationDataset::FromRecords(std::string name,
                                             std::vector<Record> records) {
  LocationDataset ds(std::move(name));
  ds.records_ = std::move(records);
  ds.Finalize();
  return ds;
}

void LocationDataset::Add(const Record& r) {
  records_.push_back(r);
  finalized_ = false;
}

void LocationDataset::Add(EntityId entity, const LatLng& location,
                          int64_t timestamp) {
  Add(Record{entity, location, timestamp});
}

void LocationDataset::Finalize() {
  if (finalized_) return;
  // Only the records added since the last Finalize need sorting; a merge
  // with the same order then places them among the sorted prefix.
  const auto order = [](const Record& a, const Record& b) {
    if (a.entity != b.entity) return a.entity < b.entity;
    if (a.timestamp != b.timestamp) return a.timestamp < b.timestamp;
    if (a.location.lat_deg != b.location.lat_deg)
      return a.location.lat_deg < b.location.lat_deg;
    return a.location.lng_deg < b.location.lng_deg;
  };
  const auto added = records_.begin() + static_cast<std::ptrdiff_t>(sorted_);
  std::sort(added, records_.end(), order);
  std::inplace_merge(records_.begin(), added, records_.end(), order);
  sorted_ = records_.size();
  entity_ids_.clear();
  index_.clear();
  size_t start = 0;
  for (size_t i = 0; i <= records_.size(); ++i) {
    if (i == records_.size() ||
        (i > 0 && records_[i].entity != records_[i - 1].entity)) {
      if (i > start) {
        entity_ids_.push_back(records_[start].entity);
        index_[records_[start].entity] = {start, i};
      }
      start = i;
    }
  }
  finalized_ = true;
}

void LocationDataset::RequireFinalized() const {
  SLIM_CHECK_MSG(finalized_, "LocationDataset must be finalized before reads");
}

size_t LocationDataset::num_entities() const {
  RequireFinalized();
  return entity_ids_.size();
}

const std::vector<Record>& LocationDataset::records() const {
  RequireFinalized();
  return records_;
}

const std::vector<EntityId>& LocationDataset::entity_ids() const {
  RequireFinalized();
  return entity_ids_;
}

bool LocationDataset::ContainsEntity(EntityId entity) const {
  RequireFinalized();
  return index_.count(entity) > 0;
}

std::span<const Record> LocationDataset::RecordsOf(EntityId entity) const {
  RequireFinalized();
  const auto it = index_.find(entity);
  if (it == index_.end()) return {};
  return std::span<const Record>(records_.data() + it->second.first,
                                 it->second.second - it->second.first);
}

std::pair<int64_t, int64_t> LocationDataset::TimeRange() const {
  RequireFinalized();
  SLIM_CHECK_MSG(!records_.empty(), "TimeRange of an empty dataset");
  int64_t lo = records_.front().timestamp;
  int64_t hi = lo;
  for (const Record& r : records_) {
    lo = std::min(lo, r.timestamp);
    hi = std::max(hi, r.timestamp);
  }
  return {lo, hi};
}

double LocationDataset::AvgRecordsPerEntity() const {
  RequireFinalized();
  if (entity_ids_.empty()) return 0.0;
  return static_cast<double>(records_.size()) /
         static_cast<double>(entity_ids_.size());
}

size_t LocationDataset::FilterMinRecords(size_t min_records) {
  RequireFinalized();
  std::vector<Record> kept;
  kept.reserve(records_.size());
  size_t removed_entities = 0;
  for (EntityId e : entity_ids_) {
    const auto span = RecordsOf(e);
    if (span.size() >= min_records) {
      kept.insert(kept.end(), span.begin(), span.end());
    } else {
      ++removed_entities;
    }
  }
  records_ = std::move(kept);
  sorted_ = 0;
  finalized_ = false;
  Finalize();
  return removed_entities;
}

}  // namespace slim
