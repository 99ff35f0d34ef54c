// Dense interned representation of a linkage problem — the one history
// representation. Records are binned per entity by GroupRecordsIntoBins
// (core/history.h) and interned here, so the scoring, candidate-filtering
// and baseline paths never pay hash-map costs per lookup:
//
//   BinVocabulary  — interns every (window, cell) time-location bin that
//                    occurs in EITHER dataset into a contiguous BinId, so
//                    bin-level statistics become flat-array lookups shared
//                    across both sides.
//   HistoryStore   — one dataset's histories in a CSR-style flat layout:
//                    per-entity offset spans over BinId/count arrays, a
//                    parallel window index, IDF as a flat array indexed by
//                    BinId, and the per-entity window indexes the LSH
//                    layer queries. Entities are addressed by dense
//                    EntityIdx (their rank in the sorted entity-id list).
//   LinkageContext — the vocabulary plus the two stores; the input to the
//                    similarity engine, every CandidateGenerator, and the
//                    ST-Link baseline.
//
// LinkageContext::Build is the one builder: the batch pipeline and every
// serve epoch (core/incremental.h, over all records ingested so far) run
// it, and an SCTX file (core/sctx.h) stores its output. Construction is
// data-parallel over entities and deterministic: BinIds are assigned in
// (window, cell) order, so a history's bin span is sorted by BinId exactly
// as GroupRecordsIntoBins sorts its bins.
//
// Every flat array lives in a FlatArray<T> (common/flat_array.h): the
// build path owns plain vectors, while a context loaded from an SCTX file
// (core/sctx.h) views the mapped bytes read-only — the scoring and
// candidate layers read either backing transparently. The per-entity
// WindowSegmentTree (temporal/window_tree.h; three flat leaf arrays per
// entity, not a pointered tree) is the one heap structure outside the
// file: the SCTX reader rebuilds it from the CSR arrays without a sort, or
// skips it when the run's candidate generator never queries it (see
// has_trees()).
#ifndef SLIM_CORE_LINKAGE_CONTEXT_H_
#define SLIM_CORE_LINKAGE_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/flat_array.h"
#include "core/history.h"
#include "data/dataset.h"
#include "geo/cell_id.h"
#include "temporal/window_tree.h"

namespace slim {

/// Contiguous id of an interned (window, cell) bin. Ids are dense in
/// [0, BinVocabulary::size()) and ordered by (window, cell).
using BinId = uint32_t;

/// Dense index of an entity inside one HistoryStore: its rank in the
/// store's sorted entity-id list.
using EntityIdx = uint32_t;

class HistoryStoreBuilder;
class SctxIo;

/// The shared (window, cell) -> BinId interning over both datasets.
class BinVocabulary {
 public:
  size_t size() const { return windows_.size(); }
  int64_t window(BinId b) const { return windows_[b]; }
  CellId cell(BinId b) const { return cells_[b]; }

  /// BinId of (window, cell); nullopt when the bin occurs in neither
  /// dataset. A binary search over the distinct windows (a few thousand,
  /// so it stays in cache), then over the cells of that window's run.
  std::optional<BinId> Find(int64_t window, CellId cell) const;

  /// Builds the vocabulary from per-side bin lists (each inner vector is
  /// one entity's (window, cell)-sorted bins): `threads` workers (<= 0
  /// means the library default) sort and dedup one slice of the bin
  /// occurrences each, and the distinct runs merge in shard order, so the
  /// vocabulary is identical at every thread count. Exposed for tests; the
  /// pipeline uses LinkageContext::Build.
  static BinVocabulary Build(
      const std::vector<std::vector<TimeLocationBin>>& side_e,
      const std::vector<std::vector<TimeLocationBin>>& side_i,
      int threads = 0);

 private:
  friend class SctxIo;  // serialisation + mapped views (core/sctx.cc)

  // Indexes Find's window runs from windows_; runs wherever windows_ is
  // set (Build and SctxIo's mapping).
  void IndexWindowRuns();

  // Parallel arrays indexed by BinId, sorted by (window, cell raw).
  FlatArray<int64_t> windows_;
  FlatArray<CellId> cells_;
  // The distinct windows, ascending, and the BinId where each one's run of
  // bins starts, plus a final sentinel (the vocabulary's size).
  std::vector<int64_t> run_windows_;
  std::vector<BinId> run_starts_;
};

/// One dataset's histories in a flat CSR layout plus the dataset-level
/// statistics the similarity score needs, all addressable without hashing.
class HistoryStore {
 public:
  /// Number of entities.
  size_t size() const { return entity_ids_.size(); }
  /// Sorted entity ids; EntityIdx is a position in this vector.
  const FlatArray<EntityId>& entity_ids() const { return entity_ids_; }
  EntityId entity_id(EntityIdx u) const { return entity_ids_[u]; }
  /// Dense index of `entity`; nullopt when absent. O(log size).
  std::optional<EntityIdx> IndexOf(EntityId entity) const;

  /// |H_u|: number of bins of entity u.
  size_t num_bins(EntityIdx u) const {
    return bin_offsets_[u + 1] - bin_offsets_[u];
  }
  /// Entity u's bins as ascending BinIds ((window, cell)-sorted).
  std::span<const BinId> bins(EntityIdx u) const {
    return {bin_ids_.data() + bin_offsets_[u],
            bin_ids_.data() + bin_offsets_[u + 1]};
  }
  /// Record counts parallel to bins(u).
  std::span<const uint32_t> counts(EntityIdx u) const {
    return {bin_counts_.data() + bin_offsets_[u],
            bin_counts_.data() + bin_offsets_[u + 1]};
  }

  /// Sorted distinct occupied windows of entity u.
  std::span<const int64_t> windows(EntityIdx u) const {
    return {windows_.data() + window_offsets_[u],
            windows_.data() + window_offsets_[u + 1]};
  }
  /// 512-bit occupancy fingerprint of windows(u): bit (w mod 512) is set
  /// for every occupied window w. A superset summary — two entities whose
  /// fingerprints share no bit provably share no window, so the scoring
  /// path can reject most zero-overlap candidate pairs on one cache line
  /// instead of merging the window lists. Exactly kWindowMaskWords words.
  const uint64_t* window_mask(EntityIdx u) const {
    return window_masks_.data() + static_cast<size_t>(u) * kWindowMaskWords;
  }
  static constexpr size_t kWindowMaskWords = 8;
  /// The bins of entity u's k-th occupied window (k is a position in
  /// windows(u)), as a [begin, end) span of positions into bin_ids().
  std::pair<uint32_t, uint32_t> WindowBinRange(EntityIdx u, size_t k) const {
    const uint32_t w = window_offsets_[u] + static_cast<uint32_t>(k);
    return {window_bin_begin_[w], window_bin_begin_[w + 1]};
  }
  /// Flat bin-id / count arrays (for WindowBinRange-based iteration).
  const FlatArray<BinId>& bin_ids() const { return bin_ids_; }
  const FlatArray<uint32_t>& bin_counts() const { return bin_counts_; }

  /// Mean |H_u| over the store (0 when empty).
  double avg_bins() const { return avg_bins_; }
  /// Number of this store's histories containing bin b.
  uint32_t bin_entity_count(BinId b) const { return bin_entity_counts_[b]; }
  /// idf(b) = log(|U| / holders) with log(|U|) for absent bins (Eq. 3),
  /// as a flat lookup. Requires a non-empty store.
  double idf(BinId b) const { return idf_[b]; }
  /// The full IDF array (size = vocabulary size) for flat-pointer access on
  /// the scoring hot path.
  const FlatArray<double>& idf_values() const { return idf_; }
  /// The normalisation L(u) = (1 - b) + b * |H_u| / avg|H| of Eq. 2.
  double LengthNorm(EntityIdx u, double b) const;

  /// Whether the per-entity window indexes exist. True for every built
  /// context; false only for an SCTX-loaded context that skipped the
  /// rebuild (ReadSctx with build_trees = false) — such a context serves
  /// every generator except LSH.
  bool has_trees() const { return trees_.size() == entity_ids_.size(); }
  /// Entity u's window index (LSH dominating-cell queries). Requires
  /// has_trees().
  const WindowSegmentTree& tree(EntityIdx u) const {
    SLIM_CHECK_MSG(u < trees_.size(),
                   "window trees unavailable (SCTX loaded without trees)");
    return trees_[u];
  }
  /// Total records of entity u.
  uint64_t total_records(EntityIdx u) const { return total_records_[u]; }

 private:
  friend class HistoryStoreBuilder;  // construction (linkage_context.cc)
  friend class SctxIo;               // serialisation + mapped views

  FlatArray<EntityId> entity_ids_;
  // CSR over bins: entity u owns bin_ids_/bin_counts_ positions
  // [bin_offsets_[u], bin_offsets_[u+1]).
  FlatArray<uint32_t> bin_offsets_;
  FlatArray<BinId> bin_ids_;
  FlatArray<uint32_t> bin_counts_;
  // CSR over occupied windows: entity u owns windows_ positions
  // [window_offsets_[u], window_offsets_[u+1]); window_bin_begin_ maps each
  // window (plus one global sentinel) to where its bins start in bin_ids_.
  FlatArray<uint32_t> window_offsets_;
  FlatArray<int64_t> windows_;
  FlatArray<uint32_t> window_bin_begin_;
  FlatArray<uint64_t> window_masks_;  // kWindowMaskWords per entity
  // Flat per-BinId statistics (size = vocabulary size).
  FlatArray<uint32_t> bin_entity_counts_;
  FlatArray<double> idf_;
  // Heap-only: rebuilt (not mapped) on SCTX load; empty when skipped.
  std::vector<WindowSegmentTree> trees_;
  FlatArray<uint64_t> total_records_;
  double avg_bins_ = 0.0;
};

/// Which side of the linkage a record stream feeds: the left ("E") or
/// right ("I") dataset.
enum class LinkageSide { kE, kI };

/// The dense linkage problem: one shared vocabulary, two history stores.
struct LinkageContext {
  HistoryConfig config;
  BinVocabulary vocab;
  HistoryStore store_e;  // left dataset ("E")
  HistoryStore store_i;  // right dataset ("I")
  /// Keep-alive handle for mapped backings: when the stores view an
  /// SCTX mapping instead of owning heap vectors, this owns the mapping
  /// (an opaque FileContents). Copies of the context share it, so views
  /// stay valid for the lifetime of every copy. Null for built contexts.
  std::shared_ptr<const void> backing;

  /// Builds the context from two finalized datasets. Per-entity binning,
  /// the window indexes and the vocabulary sort are data-parallel over
  /// `threads` workers (<= 0 means the library default); vocabulary
  /// assignment and the dataset statistics are order-fixed merges, so the
  /// context is identical at every thread count.
  static LinkageContext Build(const LocationDataset& dataset_e,
                              const LocationDataset& dataset_i,
                              const HistoryConfig& config, int threads = 0);
};

}  // namespace slim

#endif  // SLIM_CORE_LINKAGE_CONTEXT_H_
