// Per-entity temporal aggregation over a mobility history (paper Fig. 1).
//
// The paper's mobility-history tree keeps, in every node, the cell -> count
// map of its subtree, so that any time range is answered by merging
// O(log n) canonical nodes. The only range query SLIM makes of it is the
// LSH layer's *dominating cell* (Sec. 4): "the grid cell containing most
// records of the owner entity in a given time range", optionally at a
// coarser spatial level than the leaf cells, over consecutive fixed-width
// steps of a global grid. Each step reads each leaf once, so aggregated
// inner nodes buy nothing there, and they held most of a context's heap.
//
// The index is therefore flat: only the leaves are kept, in three arrays —
// the sorted distinct occupied windows, a uint32_t offset per window, and
// one (cell, count) array sorted by cell within each window. A range query
// finds its windows by binary search, maps each leaf cell to its ancestor
// at the query level, sorts and sums. The class keeps its segment-tree
// name and API because external callers compile against them.
#ifndef SLIM_TEMPORAL_WINDOW_TREE_H_
#define SLIM_TEMPORAL_WINDOW_TREE_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "geo/cell_id.h"

namespace slim {

/// One leaf observation: `count` records of the entity fell into spatial
/// cell `cell` during time window `window`.
struct WindowedCellCount {
  int64_t window = 0;
  CellId cell;
  uint32_t count = 0;
};

/// Flat leaf index over the occupied windows of one entity.
class WindowSegmentTree {
 public:
  /// An aggregated (cell, record count) entry, sorted by cell id.
  using CellCounts = std::vector<std::pair<CellId, uint32_t>>;

  WindowSegmentTree() = default;

  /// Builds the index from leaf observations. Entries may arrive unsorted
  /// (they are sorted only when not already (window, cell)-ordered) and may
  /// repeat a (window, cell) pair; counts are summed. Invalid cells, zero
  /// counts and mixed cell levels are rejected.
  static WindowSegmentTree Build(std::vector<WindowedCellCount> entries);

  bool empty() const { return windows_.empty(); }

  /// Number of occupied leaf windows.
  size_t num_windows() const { return windows_.size(); }

  /// Smallest / largest occupied window index. Requires !empty().
  int64_t min_window() const;
  int64_t max_window() const;

  /// Total records across the whole history.
  uint64_t total_records() const { return total_records_; }

  /// The cell with the highest record count in [w_begin, w_end), with cells
  /// first mapped to their ancestor at `spatial_level` (which must not
  /// exceed the leaf cells' level). Ties break toward the smaller cell id so
  /// results are deterministic. Returns nullopt if the range holds no
  /// records.
  std::optional<CellId> DominatingCell(int64_t w_begin, int64_t w_end,
                                       int spatial_level) const;

  /// Aggregated per-cell record counts in [w_begin, w_end) at
  /// `spatial_level`; sorted by cell id. Empty if the range holds no records.
  CellCounts RangeCellCounts(int64_t w_begin, int64_t w_end,
                             int spatial_level) const;

  /// Total records with timestamps in [w_begin, w_end).
  uint64_t RangeRecordCount(int64_t w_begin, int64_t w_end) const;

 private:
  // Positions [first, last) in cells_ of the leaves whose windows lie in
  // [w_begin, w_end). Requires !empty().
  std::pair<size_t, size_t> LeafRange(int64_t w_begin, int64_t w_end) const;

  std::vector<int64_t> windows_;   // sorted distinct occupied windows
  std::vector<uint32_t> offsets_;  // windows_.size() + 1 offsets into cells_
  CellCounts cells_;               // per window, sorted by cell, summed
  uint64_t total_records_ = 0;
  int leaf_level_ = -1;
};

}  // namespace slim

#endif  // SLIM_TEMPORAL_WINDOW_TREE_H_
