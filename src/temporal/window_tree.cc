#include "temporal/window_tree.h"

#include <algorithm>

#include "common/check.h"

namespace slim {

WindowSegmentTree WindowSegmentTree::Build(
    std::vector<WindowedCellCount> entries) {
  WindowSegmentTree tree;
  if (entries.empty()) return tree;
  SLIM_CHECK_MSG(entries.size() <= UINT32_MAX,
                 "WindowSegmentTree: more than 2^32 entries");

  int leaf_level = -1;
  for (const auto& e : entries) {
    SLIM_CHECK_MSG(e.cell.IsValid(), "WindowSegmentTree: invalid cell");
    SLIM_CHECK_MSG(e.count > 0, "WindowSegmentTree: zero count");
    if (leaf_level < 0) {
      leaf_level = e.cell.level();
    } else {
      SLIM_CHECK_MSG(e.cell.level() == leaf_level,
                     "WindowSegmentTree: mixed leaf cell levels");
    }
  }
  const auto before = [](const WindowedCellCount& a,
                         const WindowedCellCount& b) {
    return a.window != b.window ? a.window < b.window : a.cell < b.cell;
  };
  if (!std::is_sorted(entries.begin(), entries.end(), before)) {
    std::sort(entries.begin(), entries.end(), before);
  }

  // Size the arrays exactly before filling them: the index lives as long
  // as its context.
  size_t windows = 0, leaves = 0;
  for (size_t k = 0; k < entries.size(); ++k) {
    const bool new_window =
        k == 0 || entries[k].window != entries[k - 1].window;
    windows += new_window ? 1 : 0;
    leaves += new_window || entries[k].cell != entries[k - 1].cell ? 1 : 0;
  }
  tree.windows_.reserve(windows);
  tree.offsets_.reserve(windows + 1);
  tree.cells_.reserve(leaves);
  for (size_t k = 0; k < entries.size(); ++k) {
    const WindowedCellCount& e = entries[k];
    if (k == 0 || e.window != entries[k - 1].window) {
      tree.windows_.push_back(e.window);
      tree.offsets_.push_back(static_cast<uint32_t>(tree.cells_.size()));
    } else if (e.cell == entries[k - 1].cell) {
      tree.cells_.back().second += e.count;  // a repeated (window, cell)
      continue;
    }
    tree.cells_.emplace_back(e.cell, e.count);
  }
  tree.offsets_.push_back(static_cast<uint32_t>(tree.cells_.size()));
  for (const auto& [cell, count] : tree.cells_) tree.total_records_ += count;
  tree.leaf_level_ = leaf_level;
  return tree;
}

int64_t WindowSegmentTree::min_window() const {
  SLIM_CHECK(!empty());
  return windows_.front();
}

int64_t WindowSegmentTree::max_window() const {
  SLIM_CHECK(!empty());
  return windows_.back();
}

std::pair<size_t, size_t> WindowSegmentTree::LeafRange(int64_t w_begin,
                                                       int64_t w_end) const {
  const auto first =
      std::lower_bound(windows_.begin(), windows_.end(), w_begin);
  const auto last = std::lower_bound(first, windows_.end(), w_end);
  return {offsets_[static_cast<size_t>(first - windows_.begin())],
          offsets_[static_cast<size_t>(last - windows_.begin())]};
}

WindowSegmentTree::CellCounts WindowSegmentTree::RangeCellCounts(
    int64_t w_begin, int64_t w_end, int spatial_level) const {
  CellCounts result;
  if (empty() || w_begin >= w_end) return result;
  SLIM_CHECK_MSG(spatial_level >= 0 && spatial_level <= leaf_level_,
                 "query spatial level must be <= leaf level");
  const auto [first, last] = LeafRange(w_begin, w_end);
  result.reserve(last - first);
  for (size_t p = first; p < last; ++p) {
    result.emplace_back(cells_[p].first.Parent(spatial_level),
                        cells_[p].second);
  }
  // Sorted by cell id, one entry per cell: the order DominatingCell's
  // tie-break depends on.
  std::sort(result.begin(), result.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t out = 0;
  for (size_t p = 0; p < result.size(); ++p) {
    if (out > 0 && result[out - 1].first == result[p].first) {
      result[out - 1].second += result[p].second;
    } else {
      result[out++] = result[p];
    }
  }
  result.resize(out);
  return result;
}

std::optional<CellId> WindowSegmentTree::DominatingCell(
    int64_t w_begin, int64_t w_end, int spatial_level) const {
  const CellCounts counts = RangeCellCounts(w_begin, w_end, spatial_level);
  if (counts.empty()) return std::nullopt;
  // Max count; ties -> smaller cell id (counts are sorted by cell).
  const auto best = std::max_element(
      counts.begin(), counts.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  return best->first;
}

uint64_t WindowSegmentTree::RangeRecordCount(int64_t w_begin,
                                             int64_t w_end) const {
  if (empty() || w_begin >= w_end) return 0;
  const auto [first, last] = LeafRange(w_begin, w_end);
  uint64_t total = 0;
  for (size_t p = first; p < last; ++p) total += cells_[p].second;
  return total;
}

}  // namespace slim
