#include "core/linkage_context.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"

namespace slim {
namespace {

// One side's per-entity binning product, before interning.
struct SideBins {
  std::vector<std::vector<TimeLocationBin>> bins;  // per entity, sorted
  std::vector<WindowSegmentTree> trees;
  std::vector<uint64_t> total_records;
};

}  // namespace

// Fills HistoryStore's private CSR arrays; the only construction path.
class HistoryStoreBuilder {
 public:
  static void Fill(const LocationDataset& dataset, const BinVocabulary& vocab,
                   SideBins&& side, int threads, HistoryStore* store);
  // Shared CSR construction from per-entity ascending (BinId, count)
  // lists: fills every flat array of `store` except entity_ids_, trees_,
  // and total_records_ (the caller owns those). Both the batch build and
  // HistoryStore::Compact funnel through here, so an append-then-compact
  // store is field-for-field the batch store over the merged records.
  static void BuildCsr(
      const BinVocabulary& vocab,
      const std::vector<std::vector<std::pair<BinId, uint32_t>>>& entities,
      int threads, HistoryStore* store);
};

namespace {

SideBins BinSide(const LocationDataset& dataset, const HistoryConfig& config,
                 int threads) {
  const std::vector<EntityId>& ids = dataset.entity_ids();
  SideBins side;
  side.bins.resize(ids.size());
  side.trees.resize(ids.size());
  side.total_records.resize(ids.size());
  ParallelFor(
      ids.size(),
      [&](size_t begin, size_t end, int) {
        for (size_t k = begin; k < end; ++k) {
          const auto records = dataset.RecordsOf(ids[k]);
          side.bins[k] = GroupRecordsIntoBins(records, config);
          side.total_records[k] = records.size();
          std::vector<WindowedCellCount> entries;
          entries.reserve(side.bins[k].size());
          for (const TimeLocationBin& bin : side.bins[k]) {
            entries.push_back({bin.window, bin.cell, bin.record_count});
          }
          side.trees[k] = WindowSegmentTree::Build(std::move(entries));
        }
      },
      threads);
  return side;
}

}  // namespace

// Fills one store from its side's binning product. The vocabulary must
// already cover every bin of the side.
void HistoryStoreBuilder::Fill(const LocationDataset& dataset,
                               const BinVocabulary& vocab, SideBins&& side,
                               int threads, HistoryStore* store) {
  const size_t n = dataset.entity_ids().size();
  store->entity_ids_ = dataset.entity_ids();
  store->trees_ = std::move(side.trees);
  store->total_records_ = std::move(side.total_records);

  // Intern each entity's (window, cell)-sorted bins into an ascending
  // BinId list (vocabulary ids share that order); the shared CSR builder
  // does the rest.
  std::vector<std::vector<std::pair<BinId, uint32_t>>> entities(n);
  ParallelFor(
      n,
      [&](size_t begin, size_t end, int) {
        for (size_t k = begin; k < end; ++k) {
          const auto& bins = side.bins[k];
          auto& out = entities[k];
          out.reserve(bins.size());
          for (const TimeLocationBin& bin : bins) {
            const auto id = vocab.Find(bin.window, bin.cell);
            SLIM_CHECK_MSG(id.has_value(), "bin missing from vocabulary");
            out.emplace_back(*id, bin.record_count);
          }
        }
      },
      threads);
  BuildCsr(vocab, entities, threads, store);
}

void HistoryStoreBuilder::BuildCsr(
    const BinVocabulary& vocab,
    const std::vector<std::vector<std::pair<BinId, uint32_t>>>& entities,
    int threads, HistoryStore* store) {
  const size_t n = entities.size();
  // Built into locals and assigned at the end: compaction may be
  // rebuilding a store whose previous arrays are read-only SCTX views,
  // and those must stay readable while we merge out of them.
  std::vector<uint32_t> bin_offsets(n + 1, 0);
  std::vector<uint32_t> window_offsets(n + 1, 0);

  // CSR offsets from per-entity bin counts (exclusive prefix sums), then a
  // parallel fill into the pre-sized flat arrays. Offsets are 32-bit;
  // guard the total before summing into them (the vocabulary has the
  // matching guard on distinct bins).
  uint64_t total_bins64 = 0;
  for (const auto& bins : entities) total_bins64 += bins.size();
  SLIM_CHECK_MSG(total_bins64 <= UINT32_MAX,
                 "history store exceeds 2^32 bin occurrences");
  for (size_t k = 0; k < n; ++k) {
    const auto& bins = entities[k];
    bin_offsets[k + 1] = bin_offsets[k] + static_cast<uint32_t>(bins.size());
    uint32_t entity_windows = 0;
    for (size_t i = 0; i < bins.size(); ++i) {
      if (i == 0 ||
          vocab.window(bins[i].first) != vocab.window(bins[i - 1].first)) {
        ++entity_windows;
      }
    }
    window_offsets[k + 1] = window_offsets[k] + entity_windows;
  }
  const size_t total_bins = bin_offsets[n];
  const size_t total_windows = window_offsets[n];
  std::vector<BinId> bin_ids(total_bins);
  std::vector<uint32_t> bin_counts(total_bins);
  std::vector<int64_t> windows(total_windows);
  std::vector<uint32_t> window_bin_begin(total_windows + 1);
  window_bin_begin[total_windows] = static_cast<uint32_t>(total_bins);
  std::vector<uint64_t> window_masks(n * HistoryStore::kWindowMaskWords, 0);

  ParallelFor(
      n,
      [&](size_t begin, size_t end, int) {
        for (size_t k = begin; k < end; ++k) {
          const auto& bins = entities[k];
          uint32_t bin_pos = bin_offsets[k];
          uint32_t win_pos = window_offsets[k];
          uint64_t* mask =
              window_masks.data() + k * HistoryStore::kWindowMaskWords;
          for (size_t i = 0; i < bins.size(); ++i) {
            const int64_t window = vocab.window(bins[i].first);
            bin_ids[bin_pos] = bins[i].first;
            bin_counts[bin_pos] = bins[i].second;
            if (i == 0 || window != vocab.window(bins[i - 1].first)) {
              windows[win_pos] = window;
              window_bin_begin[win_pos] = bin_pos;
              ++win_pos;
              // Fingerprint bit (window mod 512); the unsigned cast keeps
              // pre-epoch (negative) windows consistent on both stores.
              const uint64_t w = static_cast<uint64_t>(window);
              mask[(w >> 6) & (HistoryStore::kWindowMaskWords - 1)] |=
                  uint64_t{1} << (w & 63);
            }
            ++bin_pos;
          }
        }
      },
      threads);

  // Dataset-level statistics: per-bin holder counts (each entity's bins are
  // distinct, so every occurrence is one holder) and the IDF array.
  std::vector<uint32_t> bin_entity_counts(vocab.size(), 0);
  std::vector<double> idf(vocab.size());
  for (const BinId b : bin_ids) ++bin_entity_counts[b];
  if (n > 0) {
    const double dn = static_cast<double>(n);
    const double max_idf = std::log(dn);
    for (size_t b = 0; b < vocab.size(); ++b) {
      const uint32_t holders = bin_entity_counts[b];
      idf[b] =
          holders == 0 ? max_idf : std::log(dn / static_cast<double>(holders));
    }
  }
  store->avg_bins_ =
      n == 0 ? 0.0
             : static_cast<double>(total_bins) / static_cast<double>(n);
  store->bin_offsets_ = std::move(bin_offsets);
  store->window_offsets_ = std::move(window_offsets);
  store->bin_ids_ = std::move(bin_ids);
  store->bin_counts_ = std::move(bin_counts);
  store->windows_ = std::move(windows);
  store->window_bin_begin_ = std::move(window_bin_begin);
  store->window_masks_ = std::move(window_masks);
  store->bin_entity_counts_ = std::move(bin_entity_counts);
  store->idf_ = std::move(idf);
}


std::optional<BinId> BinVocabulary::Find(int64_t window, CellId cell) const {
  // Lower bound over the (window, cell-raw)-sorted parallel arrays.
  size_t lo = 0, hi = windows_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (windows_[mid] < window ||
        (windows_[mid] == window && cells_[mid] < cell)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < windows_.size() && windows_[lo] == window && cells_[lo] == cell) {
    return static_cast<BinId>(lo);
  }
  return std::nullopt;
}

BinVocabulary BinVocabulary::Build(
    const std::vector<std::vector<TimeLocationBin>>& side_e,
    const std::vector<std::vector<TimeLocationBin>>& side_i) {
  std::vector<std::pair<int64_t, CellId>> keys;
  size_t total = 0;
  for (const auto& bins : side_e) total += bins.size();
  for (const auto& bins : side_i) total += bins.size();
  keys.reserve(total);
  for (const auto* side : {&side_e, &side_i}) {
    for (const auto& bins : *side) {
      for (const TimeLocationBin& bin : bins) {
        keys.emplace_back(bin.window, bin.cell);
      }
    }
  }
  std::sort(keys.begin(), keys.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;
            });
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  SLIM_CHECK_MSG(keys.size() <= static_cast<size_t>(UINT32_MAX),
                 "bin vocabulary exceeds 2^32 entries");

  BinVocabulary vocab;
  std::vector<int64_t>& windows = vocab.windows_.owned();
  std::vector<CellId>& cells = vocab.cells_.owned();
  windows.reserve(keys.size());
  cells.reserve(keys.size());
  for (const auto& [window, cell] : keys) {
    windows.push_back(window);
    cells.push_back(cell);
  }
  return vocab;
}

BinId BinVocabulary::Intern(int64_t window, CellId cell) {
  if (const auto found = Find(window, cell); found.has_value()) return *found;
  const auto key = std::make_pair(window, cell);
  if (const auto it = pending_.find(key); it != pending_.end()) {
    return it->second;
  }
  const size_t id = windows_.size() + pending_.size();
  SLIM_CHECK_MSG(id < static_cast<size_t>(UINT32_MAX),
                 "bin vocabulary exceeds 2^32 entries");
  pending_.emplace(key, static_cast<BinId>(id));
  return static_cast<BinId>(id);
}

std::vector<BinId> BinVocabulary::Compact() {
  const size_t base = windows_.size();
  std::vector<BinId> remap(base + pending_.size());
  if (pending_.empty()) {
    for (size_t b = 0; b < base; ++b) remap[b] = static_cast<BinId>(b);
    return remap;
  }
  // Linear merge of the sorted base arrays with the (key-sorted) pending
  // map. Base and pending keys are disjoint (Intern checks Find first),
  // and base ids keep their relative order, so the remap restricted to
  // base ids is strictly increasing.
  std::vector<int64_t> windows;
  std::vector<CellId> cells;
  windows.reserve(remap.size());
  cells.reserve(remap.size());
  size_t i = 0;
  auto it = pending_.begin();
  while (i < base || it != pending_.end()) {
    const bool take_base =
        it == pending_.end() ||
        (i < base && (windows_[i] < it->first.first ||
                      (windows_[i] == it->first.first &&
                       cells_[i] < it->first.second)));
    const BinId out = static_cast<BinId>(windows.size());
    if (take_base) {
      remap[i] = out;
      windows.push_back(windows_[i]);
      cells.push_back(cells_[i]);
      ++i;
    } else {
      remap[it->second] = out;
      windows.push_back(it->first.first);
      cells.push_back(it->first.second);
      ++it;
    }
  }
  windows_ = std::move(windows);
  cells_ = std::move(cells);
  pending_.clear();
  return remap;
}

std::optional<EntityIdx> HistoryStore::IndexOf(EntityId entity) const {
  const auto it =
      std::lower_bound(entity_ids_.begin(), entity_ids_.end(), entity);
  if (it == entity_ids_.end() || *it != entity) return std::nullopt;
  return static_cast<EntityIdx>(it - entity_ids_.begin());
}

double HistoryStore::LengthNorm(EntityIdx u, double b) const {
  SLIM_CHECK_MSG(b >= 0.0 && b <= 1.0, "length-norm b must be in [0,1]");
  SLIM_CHECK_MSG(avg_bins_ > 0.0, "LengthNorm on an empty HistoryStore");
  const double rel = static_cast<double>(num_bins(u)) / avg_bins_;
  return (1.0 - b) + b * rel;
}

void HistoryStore::Append(
    EntityId entity, std::span<const std::pair<BinId, uint32_t>> delta_bins,
    uint64_t record_count) {
  PendingAppend& pending = pending_[entity];
  pending.bins.insert(pending.bins.end(), delta_bins.begin(),
                      delta_bins.end());
  pending.records += record_count;
}

void HistoryStore::Compact(const BinVocabulary& vocab,
                           std::span<const BinId> remap, int threads) {
  // Merged sorted entity-id list (old ids are sorted; pending_ iterates
  // in id order).
  const size_t old_n = entity_ids_.size();
  std::vector<EntityId> merged_ids;
  merged_ids.reserve(old_n + pending_.size());
  {
    size_t i = 0;
    auto it = pending_.begin();
    while (i < old_n || it != pending_.end()) {
      if (it == pending_.end() ||
          (i < old_n && entity_ids_[i] < it->first)) {
        merged_ids.push_back(entity_ids_[i++]);
      } else {
        if (i < old_n && entity_ids_[i] == it->first) ++i;
        merged_ids.push_back(it->first);
        ++it;
      }
    }
  }
  const size_t n = merged_ids.size();

  // Per-entity merged ascending (BinId, count) lists in the new id space.
  // Renumber + sort + duplicate-sum each delta, then merge-sum it with
  // the renumbered base span: exactly the bins a batch
  // GroupRecordsIntoBins over the union of the entity's records produces
  // (per-(window, cell) record counting is a commutative fold).
  std::vector<std::vector<std::pair<BinId, uint32_t>>> entities(n);
  const bool build_trees = has_trees();
  std::vector<WindowSegmentTree> trees(build_trees ? n : 0);
  std::vector<uint64_t> total_records(n, 0);
  ParallelFor(
      n,
      [&](size_t begin, size_t end, int) {
        for (size_t k = begin; k < end; ++k) {
          const EntityId id = merged_ids[k];
          const auto old_idx = IndexOf(id);
          const auto pit = pending_.find(id);
          auto& out = entities[k];
          if (pit == pending_.end()) {
            // Untouched entity: renumber the existing span (stays
            // ascending — the base remap is strictly increasing) and move
            // its tree over.
            const auto base_bins = bins(*old_idx);
            const auto base_counts = counts(*old_idx);
            out.reserve(base_bins.size());
            for (size_t i = 0; i < base_bins.size(); ++i) {
              out.emplace_back(remap[base_bins[i]], base_counts[i]);
            }
            if (build_trees) trees[k] = std::move(trees_[*old_idx]);
            total_records[k] = total_records_[*old_idx];
            continue;
          }
          std::vector<std::pair<BinId, uint32_t>> delta;
          delta.reserve(pit->second.bins.size());
          for (const auto& [b, c] : pit->second.bins) {
            delta.emplace_back(remap[b], c);
          }
          std::sort(delta.begin(), delta.end(),
                    [](const auto& a, const auto& b) {
                      return a.first < b.first;
                    });
          size_t w = 0;
          for (size_t i = 0; i < delta.size(); ++i) {
            if (w > 0 && delta[w - 1].first == delta[i].first) {
              delta[w - 1].second += delta[i].second;
            } else {
              delta[w++] = delta[i];
            }
          }
          delta.resize(w);
          if (old_idx.has_value()) {
            const auto base_bins = bins(*old_idx);
            const auto base_counts = counts(*old_idx);
            out.reserve(base_bins.size() + delta.size());
            size_t i = 0, j = 0;
            while (i < base_bins.size() || j < delta.size()) {
              if (j == delta.size() ||
                  (i < base_bins.size() &&
                   remap[base_bins[i]] < delta[j].first)) {
                out.emplace_back(remap[base_bins[i]], base_counts[i]);
                ++i;
              } else if (i == base_bins.size() ||
                         delta[j].first < remap[base_bins[i]]) {
                out.push_back(delta[j]);
                ++j;
              } else {
                out.emplace_back(remap[base_bins[i]],
                                 base_counts[i] + delta[j].second);
                ++i;
                ++j;
              }
            }
            total_records[k] = total_records_[*old_idx] + pit->second.records;
          } else {
            out = std::move(delta);
            total_records[k] = pit->second.records;
          }
          if (build_trees) {
            std::vector<WindowedCellCount> entries;
            entries.reserve(out.size());
            for (const auto& [b, c] : out) {
              entries.push_back({vocab.window(b), vocab.cell(b), c});
            }
            trees[k] = WindowSegmentTree::Build(std::move(entries));
          }
        }
      },
      threads);

  entity_ids_ = std::move(merged_ids);
  trees_ = std::move(trees);
  total_records_ = std::move(total_records);
  pending_.clear();
  HistoryStoreBuilder::BuildCsr(vocab, entities, threads, this);
}

LinkageContext LinkageContext::Build(const LocationDataset& dataset_e,
                                     const LocationDataset& dataset_i,
                                     const HistoryConfig& config,
                                     int threads) {
  SLIM_CHECK_MSG(dataset_e.finalized() && dataset_i.finalized(),
                 "datasets must be finalized");
  LinkageContext ctx;
  ctx.config = config;
  if (&dataset_e == &dataset_i) {
    // Symmetric context (the auto-tuner's case): bin and intern once, copy
    // the finished store instead of rebuilding it.
    SideBins bins = BinSide(dataset_e, config, threads);
    ctx.vocab = BinVocabulary::Build(bins.bins, {});
    HistoryStoreBuilder::Fill(dataset_e, ctx.vocab, std::move(bins), threads,
                              &ctx.store_e);
    ctx.store_i = ctx.store_e;
    return ctx;
  }
  SideBins bins_e = BinSide(dataset_e, config, threads);
  SideBins bins_i = BinSide(dataset_i, config, threads);
  ctx.vocab = BinVocabulary::Build(bins_e.bins, bins_i.bins);
  HistoryStoreBuilder::Fill(dataset_e, ctx.vocab, std::move(bins_e), threads,
                            &ctx.store_e);
  HistoryStoreBuilder::Fill(dataset_i, ctx.vocab, std::move(bins_i), threads,
                            &ctx.store_i);
  return ctx;
}

void LinkageContext::AppendRecords(LinkageSide side,
                                   std::span<const Record> records) {
  HistoryStore& store = side == LinkageSide::kE ? store_e : store_i;
  // Deterministic per-entity grouping of the (arbitrarily ordered) batch.
  std::map<EntityId, std::vector<Record>> by_entity;
  for (const Record& r : records) by_entity[r.entity].push_back(r);
  std::vector<std::pair<BinId, uint32_t>> delta;
  for (const auto& [entity, recs] : by_entity) {
    const std::vector<TimeLocationBin> bins =
        GroupRecordsIntoBins(recs, config);
    delta.clear();
    delta.reserve(bins.size());
    for (const TimeLocationBin& bin : bins) {
      delta.emplace_back(vocab.Intern(bin.window, bin.cell),
                         bin.record_count);
    }
    store.Append(entity, delta, recs.size());
  }
}

bool LinkageContext::has_pending() const {
  return vocab.has_pending() || store_e.has_pending() ||
         store_i.has_pending();
}

void LinkageContext::Compact(int threads) {
  if (!has_pending()) return;
  const bool vocab_changed = vocab.has_pending();
  const std::vector<BinId> remap = vocab.Compact();
  // A store with no buffered deltas still needs recompaction when the
  // vocabulary grew: its BinIds renumber and its per-bin statistic arrays
  // (IDF, holder counts) resize.
  if (vocab_changed || store_e.has_pending()) {
    store_e.Compact(vocab, remap, threads);
  }
  if (vocab_changed || store_i.has_pending()) {
    store_i.Compact(vocab, remap, threads);
  }
}

}  // namespace slim
