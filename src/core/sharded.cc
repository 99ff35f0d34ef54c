#include "core/sharded.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/resource.h"

namespace slim {
namespace {

// How much bigger than the shard's resident store bytes the block working
// set (candidate CSR, postings/buckets, per-block edges) is assumed to be.
// Chosen from the block curves bench_scale measures; deliberately
// conservative so a budget is an upper bound, not a target.
constexpr uint64_t kBlockExpansionFactor = 4;

// Structural floor below which no per-entity estimate may fall: one
// candidate-list entry plus one edge per entity is the bare minimum any
// block holds.
constexpr uint64_t kPerEntityFloorBytes = 64;

}  // namespace

std::vector<std::pair<EntityIdx, EntityIdx>> BalancedEntityRanges(
    size_t count, int parts) {
  size_t k = static_cast<size_t>(std::max(1, parts));
  if (count > 0) k = std::min(k, count);
  if (count == 0) k = 1;
  // Balanced contiguous ranges: the first (count % k) parts take one extra
  // entity, so sizes differ by at most one.
  const size_t base = count / k;
  const size_t extra = count % k;
  std::vector<std::pair<EntityIdx, EntityIdx>> ranges;
  ranges.reserve(k);
  EntityIdx begin = 0;
  for (size_t s = 0; s < k; ++s) {
    const EntityIdx end =
        begin + static_cast<EntityIdx>(base + (s < extra ? 1 : 0));
    ranges.emplace_back(begin, end);
    begin = end;
  }
  SLIM_CHECK(ranges.back().second == count);
  return ranges;
}

ShardPlan ShardPlan::Fixed(size_t rights, int shards) {
  ShardPlan plan;
  plan.ranges = BalancedEntityRanges(rights, shards);
  plan.shards = static_cast<int>(plan.ranges.size());
  // Fixed() cannot know the left extent; EstimateShardPlan balances
  // left_ranges over the actual left store.
  return plan;
}

uint64_t EstimateBlockBytesPerEntity(const LinkageContext& context,
                                     uint64_t rss_before_context) {
  const HistoryStore& si = context.store_i;
  const size_t rights = si.size();
  if (rights == 0) return kPerEntityFloorBytes;

  // Structural floor: the right store's own CSR bytes per entity — bin ids,
  // counts, windows, window->bin map — which the block's postings and
  // candidate lists mirror at least once.
  const uint64_t store_bytes =
      si.bin_ids().size() * (sizeof(BinId) + sizeof(uint32_t) * 2) +
      si.entity_ids().size() *
          (sizeof(EntityId) + sizeof(uint32_t) * 2 + sizeof(uint64_t));
  uint64_t per_entity = store_bytes / rights;

  // RSS calibration: the context build's measured growth per entity (both
  // sides) captures allocator overhead and the tree structures the
  // structural count misses. Peak RSS is monotone, so the difference is a
  // true lower bound on what the build added.
  const uint64_t rss_now = CurrentPeakRssBytes();
  const size_t entities = context.store_e.size() + rights;
  if (rss_now > rss_before_context && entities > 0) {
    per_entity = std::max(per_entity,
                          (rss_now - rss_before_context) / entities);
  }
  return std::max(per_entity * kBlockExpansionFactor, kPerEntityFloorBytes);
}

ShardPlan EstimateShardPlan(const LinkageContext& context,
                            const SlimConfig& config,
                            uint64_t rss_before_context) {
  const size_t rights = context.store_i.size();
  ShardPlan plan;
  if (config.shards > 0) {
    plan = ShardPlan::Fixed(rights, config.shards);
  } else if (config.shard_memory_budget_bytes == 0 || rights == 0) {
    plan = ShardPlan::Fixed(rights, 1);
  } else {
    const uint64_t per_entity =
        EstimateBlockBytesPerEntity(context, rss_before_context);
    const uint64_t budget = config.shard_memory_budget_bytes;
    // Smallest K with ceil(rights / K) * per_entity <= budget: at most
    // floor(budget / per_entity) entities fit one shard, so K must cover
    // `rights` in chunks of that size (one entity per shard when even a
    // single entity exceeds the budget — sharding cannot go finer).
    const uint64_t entities_per_shard = budget / per_entity;
    const uint64_t shards =
        entities_per_shard == 0
            ? rights
            : (rights + entities_per_shard - 1) / entities_per_shard;
    plan = ShardPlan::Fixed(
        rights, static_cast<int>(std::min<uint64_t>(
                    shards == 0 ? 1 : shards,
                    static_cast<uint64_t>(std::numeric_limits<int>::max()))));
    plan.per_entity_bytes = per_entity;
  }
  plan.left_ranges =
      BalancedEntityRanges(context.store_e.size(), config.left_shards);
  plan.left_shards = static_cast<int>(plan.left_ranges.size());
  return plan;
}

}  // namespace slim
