// The block plan of the linkage driver (SlimLinker::Link, core/slim.h).
//
// One candidate index and the full edge set for the whole problem is fine
// at the 10k scale, but the candidate + scoring working set is what caps
// how far one run can go. The driver therefore partitions BOTH sides into
// contiguous EntityIdx ranges over the dense stores — L left shards x K
// right shards — and runs
//
//   context (global)  — vocabulary, CSR stores, IDF: built once over BOTH
//                       full datasets, whatever the plan, because every
//                       score reads dataset-level statistics. With
//                       SlimConfig::sctx_path set the context is
//                       mmap-backed (core/sctx.h) instead of
//                       heap-resident, so this stage costs page cache, not
//                       RSS.
//   per block         — a block-restricted candidate index
//                       (MakeShardCandidateGenerator over one L x K block)
//                       and the scoring of that block on the shared
//                       ThreadPool; the block's positive edges go to one
//                       EdgeSpill (core/edge_spill.h; an external sort when
//                       there is more than one block) and the block's index
//                       is dropped before the next block builds.
//   seal (global)     — the spill yields the canonical edge orders to one
//                       matching + GMM threshold pass; with
//                       SlimConfig::keep_graph false the greedy matcher
//                       consumes the score-ordered stream directly and the
//                       full edge set never lives in memory at once.
//
// Because block candidate sets are exact restrictions of the full
// candidate set (the LSH query grid and the grid-blocking hotspot cap are
// taken from the full context — see core/candidates.h) and the seal fixes
// the same canonical edge orders, the links are bit-identical at every
// (L, K, threads) combination; tests/test_sharded.cc pins this against the
// committed goldens. Peak RSS of the candidate + scoring stages scales
// with the largest block, not the stores — bench_scale measures the
// curves. The default plan is 1 x 1: one block, spill in memory.
//
// K comes from SlimConfig::shards, or — when that is 0 — from
// SlimConfig::shard_memory_budget_bytes via EstimateShardPlan's
// CurrentPeakRssBytes-calibrated per-entity estimate. L comes from
// SlimConfig::left_shards (no budget derivation: the left side splits only
// when explicitly asked, since a left split re-scans right postings).
#ifndef SLIM_CORE_SHARDED_H_
#define SLIM_CORE_SHARDED_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/slim.h"

namespace slim {

/// Contiguous [begin, end) ranges that partition [0, count) into `parts`
/// pieces differing in size by at most one entity (the first count % parts
/// ranges take the extra one). parts is clamped to [1, max(count, 1)];
/// count == 0 yields one empty range.
std::vector<std::pair<EntityIdx, EntityIdx>> BalancedEntityRanges(
    size_t count, int parts);

/// How the two sides split into contiguous EntityIdx shards. The driver
/// scores every left_ranges x ranges block, in (left, right) order.
struct ShardPlan {
  /// Number of right shards K (>= 1; at most the right-store size when
  /// that is non-zero).
  int shards = 1;
  /// [begin, end) dense right EntityIdx range per right shard, in order.
  std::vector<std::pair<EntityIdx, EntityIdx>> ranges;
  /// Number of left shards L (>= 1; at most the left-store size when that
  /// is non-zero).
  int left_shards = 1;
  /// [begin, end) dense left EntityIdx range per left shard, in order.
  std::vector<std::pair<EntityIdx, EntityIdx>> left_ranges;
  /// The per-right-entity working-set estimate behind a budget-derived
  /// plan, in bytes (0 when the shard count was given explicitly).
  uint64_t per_entity_bytes = 0;

  /// Balanced right-side plan with an explicit shard count. Fixed() does
  /// not know the left extent, so left_ranges stays empty (left_shards 1);
  /// EstimateShardPlan balances it over the actual left store.
  static ShardPlan Fixed(size_t rights, int shards);
};

/// Per-right-entity working-set estimate (bytes) for one shard's candidate
/// + scoring block, calibrated against the measured process footprint:
/// `rss_before_context` is CurrentPeakRssBytes() sampled before the context
/// build, so the growth since then — the resident cost of the dense stores
/// themselves — anchors the estimate, with a structural floor computed from
/// the actual CSR sizes. The candidate index, postings/buckets, and edge
/// output of a block are a small multiple of the shard's store bytes; the
/// multiplier is deliberately conservative (docs/BENCHMARKS.md, "Memory
/// budget methodology"). Only shard-count selection consumes this — links
/// never depend on it.
uint64_t EstimateBlockBytesPerEntity(const LinkageContext& context,
                                     uint64_t rss_before_context);

/// The plan the linkage driver executes. K: config.shards when positive,
/// else the smallest K whose estimated per-block working set
/// (per_entity_bytes * shard size) fits config.shard_memory_budget_bytes,
/// else one shard. L: config.left_shards clamped to [1, lefts].
ShardPlan EstimateShardPlan(const LinkageContext& context,
                            const SlimConfig& config,
                            uint64_t rss_before_context);

}  // namespace slim

#endif  // SLIM_CORE_SHARDED_H_
