// In-memory location dataset (paper Sec. 2.1): a named collection of
// records, indexed by entity for contiguous per-entity access.
#ifndef SLIM_DATA_DATASET_H_
#define SLIM_DATA_DATASET_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "data/record.h"

namespace slim {

/// A location dataset. Mutation happens through Add(); before any read
/// accessor is used the dataset must be finalized (records are sorted by
/// (entity, timestamp) and the entity index is built). Finalize() is
/// idempotent and called implicitly by the factory helpers. Add() after
/// Finalize() is allowed: the next Finalize() sorts only the new records
/// and merges them in, so a dataset that grows in rounds (the serve
/// daemon's) reads exactly like FromRecords over all of them.
class LocationDataset {
 public:
  LocationDataset() = default;
  explicit LocationDataset(std::string name) : name_(std::move(name)) {}

  /// Builds a finalized dataset from a record vector.
  static LocationDataset FromRecords(std::string name,
                                     std::vector<Record> records);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Appends a record; invalidates finalization.
  void Add(const Record& r);
  void Add(EntityId entity, const LatLng& location, int64_t timestamp);
  void Reserve(size_t n) { records_.reserve(n); }

  /// Sorts records and rebuilds the entity index. Safe to call repeatedly;
  /// records already sorted by an earlier call are not re-sorted.
  void Finalize();
  bool finalized() const { return finalized_; }

  size_t num_records() const { return records_.size(); }
  size_t num_entities() const;

  /// All records, sorted by (entity, timestamp). Requires finalized().
  const std::vector<Record>& records() const;

  /// Sorted list of distinct entity ids. Requires finalized().
  const std::vector<EntityId>& entity_ids() const;

  /// True if the dataset contains at least one record of `entity`.
  bool ContainsEntity(EntityId entity) const;

  /// The records of one entity, sorted by timestamp; empty span when the
  /// entity is absent. Requires finalized().
  std::span<const Record> RecordsOf(EntityId entity) const;

  /// [min, max] record timestamp. Requires finalized() and non-empty.
  std::pair<int64_t, int64_t> TimeRange() const;

  /// num_records / num_entities (0 when empty).
  double AvgRecordsPerEntity() const;

  /// Removes all entities having fewer than `min_records` records (the
  /// paper drops entities with <= 5 records, i.e. min_records = 6). Returns
  /// the number of entities removed. Keeps the dataset finalized.
  size_t FilterMinRecords(size_t min_records);

 private:
  void RequireFinalized() const;

  std::string name_;
  std::vector<Record> records_;
  // records_[0, sorted_) is in Finalize() order; the rest was added since.
  size_t sorted_ = 0;
  std::vector<EntityId> entity_ids_;
  // entity -> [first, last) positions in records_.
  std::unordered_map<EntityId, std::pair<size_t, size_t>> index_;
  bool finalized_ = false;
};

}  // namespace slim

#endif  // SLIM_DATA_DATASET_H_
