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

// Fills HistoryStore's private arrays; the only construction path.
class HistoryStoreBuilder {
 public:
  static void Fill(const LocationDataset& dataset, const BinVocabulary& vocab,
                   SideBins&& side, int threads, HistoryStore* store);
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
  const std::vector<std::vector<TimeLocationBin>>& entities = side.bins;
  const size_t n = entities.size();
  store->entity_ids_ = dataset.entity_ids();
  store->trees_ = std::move(side.trees);
  store->total_records_ = std::move(side.total_records);

  // CSR offsets from per-entity bin and window counts (exclusive prefix
  // sums), then a parallel fill into the pre-sized flat arrays. Offsets are
  // 32-bit; guard the total before summing into them (the vocabulary has
  // the matching guard on distinct bins).
  uint64_t total_bins64 = 0;
  for (const auto& bins : entities) total_bins64 += bins.size();
  SLIM_CHECK_MSG(total_bins64 <= UINT32_MAX,
                 "history store exceeds 2^32 bin occurrences");
  std::vector<uint32_t> bin_offsets(n + 1, 0);
  std::vector<uint32_t> window_offsets(n + 1, 0);
  for (size_t k = 0; k < n; ++k) {
    const auto& bins = entities[k];
    bin_offsets[k + 1] = bin_offsets[k] + static_cast<uint32_t>(bins.size());
    uint32_t entity_windows = 0;
    for (size_t i = 0; i < bins.size(); ++i) {
      if (i == 0 || bins[i].window != bins[i - 1].window) ++entity_windows;
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
            // Vocabulary ids share the bins' (window, cell) order, so each
            // entity's BinId span comes out ascending.
            const auto id = vocab.Find(bins[i].window, bins[i].cell);
            SLIM_CHECK_MSG(id.has_value(), "bin missing from vocabulary");
            bin_ids[bin_pos] = *id;
            bin_counts[bin_pos] = bins[i].record_count;
            if (i == 0 || bins[i].window != bins[i - 1].window) {
              const int64_t window = bins[i].window;
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
  const auto run =
      std::lower_bound(run_windows_.begin(), run_windows_.end(), window);
  if (run == run_windows_.end() || *run != window) return std::nullopt;
  const size_t k = static_cast<size_t>(run - run_windows_.begin());
  const CellId* first = cells_.data() + run_starts_[k];
  const CellId* last = cells_.data() + run_starts_[k + 1];
  const CellId* it = std::lower_bound(first, last, cell);
  if (it == last || *it != cell) return std::nullopt;
  return static_cast<BinId>(it - cells_.data());
}

void BinVocabulary::IndexWindowRuns() {
  run_windows_.clear();
  run_starts_.clear();
  for (size_t b = 0; b < windows_.size(); ++b) {
    if (b == 0 || windows_[b] != windows_[b - 1]) {
      run_windows_.push_back(windows_[b]);
      run_starts_.push_back(static_cast<BinId>(b));
    }
  }
  run_starts_.push_back(static_cast<BinId>(windows_.size()));
}

BinVocabulary BinVocabulary::Build(
    const std::vector<std::vector<TimeLocationBin>>& side_e,
    const std::vector<std::vector<TimeLocationBin>>& side_i, int threads) {
  using Key = std::pair<int64_t, CellId>;
  std::vector<const std::vector<TimeLocationBin>*> lists;
  lists.reserve(side_e.size() + side_i.size());
  for (const auto* side : {&side_e, &side_i}) {
    for (const auto& bins : *side) lists.push_back(&bins);
  }
  // Each shard sorts and dedups the bins of its slice of the entities; the
  // distinct runs then merge in shard order into the one sorted set of
  // distinct keys, whatever the shard count.
  std::vector<std::vector<Key>> runs(
      static_cast<size_t>(threads > 0 ? threads : DefaultThreadCount()));
  ParallelFor(
      lists.size(),
      [&](size_t begin, size_t end, int shard) {
        std::vector<Key>& run = runs[static_cast<size_t>(shard)];
        size_t occurrences = 0;
        for (size_t k = begin; k < end; ++k) occurrences += lists[k]->size();
        run.reserve(occurrences);
        for (size_t k = begin; k < end; ++k) {
          for (const TimeLocationBin& bin : *lists[k]) {
            run.emplace_back(bin.window, bin.cell);
          }
        }
        std::sort(run.begin(), run.end());
        run.erase(std::unique(run.begin(), run.end()), run.end());
      },
      static_cast<int>(runs.size()));

  BinVocabulary vocab;
  std::vector<int64_t>& windows = vocab.windows_.owned();
  std::vector<CellId>& cells = vocab.cells_.owned();
  std::vector<size_t> head(runs.size(), 0);
  while (true) {
    const Key* next = nullptr;
    for (size_t s = 0; s < runs.size(); ++s) {
      if (head[s] < runs[s].size() &&
          (next == nullptr || runs[s][head[s]] < *next)) {
        next = &runs[s][head[s]];
      }
    }
    if (next == nullptr) break;
    const Key key = *next;
    windows.push_back(key.first);
    cells.push_back(key.second);
    for (size_t s = 0; s < runs.size(); ++s) {
      if (head[s] < runs[s].size() && runs[s][head[s]] == key) ++head[s];
    }
  }
  SLIM_CHECK_MSG(windows.size() <= static_cast<size_t>(UINT32_MAX),
                 "bin vocabulary exceeds 2^32 entries");
  windows.shrink_to_fit();
  cells.shrink_to_fit();
  vocab.IndexWindowRuns();
  return vocab;
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
    ctx.vocab = BinVocabulary::Build(bins.bins, {}, threads);
    HistoryStoreBuilder::Fill(dataset_e, ctx.vocab, std::move(bins), threads,
                              &ctx.store_e);
    ctx.store_i = ctx.store_e;
    return ctx;
  }
  SideBins bins_e = BinSide(dataset_e, config, threads);
  SideBins bins_i = BinSide(dataset_i, config, threads);
  ctx.vocab = BinVocabulary::Build(bins_e.bins, bins_i.bins, threads);
  HistoryStoreBuilder::Fill(dataset_e, ctx.vocab, std::move(bins_e), threads,
                            &ctx.store_e);
  HistoryStoreBuilder::Fill(dataset_i, ctx.vocab, std::move(bins_i), threads,
                            &ctx.store_i);
  return ctx;
}

}  // namespace slim
