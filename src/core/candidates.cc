#include "core/candidates.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "core/score_kernel.h"

namespace slim {
namespace {

// Flat CSR candidate storage shared by the LSH and grid generators.
struct CandidateCsr {
  std::vector<uint64_t> offsets;  // size lefts + 1
  std::vector<EntityIdx> flat;    // ascending within each left span

  std::span<const EntityIdx> SpanOf(EntityIdx u) const {
    return {flat.data() + offsets[u], flat.data() + offsets[u + 1]};
  }

  // Builds the CSR from per-left lists (consumed) in left order.
  static CandidateCsr FromLists(std::vector<std::vector<EntityIdx>> lists) {
    CandidateCsr csr;
    csr.offsets.assign(lists.size() + 1, 0);
    for (size_t k = 0; k < lists.size(); ++k) {
      csr.offsets[k + 1] = csr.offsets[k] + lists[k].size();
    }
    csr.flat.resize(csr.offsets.back());
    for (size_t k = 0; k < lists.size(); ++k) {
      std::copy(lists[k].begin(), lists[k].end(),
                csr.flat.begin() + static_cast<ptrdiff_t>(csr.offsets[k]));
    }
    return csr;
  }
};

// One L×K block: left entities [left_begin, left_end) against right
// entities [right_begin, right_end).
struct Block {
  EntityIdx left_begin;
  EntityIdx left_end;
  EntityIdx right_begin;
  EntityIdx right_end;
};

// Every cross pair of the block: [left_begin, left_end) x [begin, end).
class BruteForceCandidates final : public CandidateGenerator {
 public:
  BruteForceCandidates(EntityIdx left_begin, EntityIdx left_end,
                       EntityIdx begin, EntityIdx end)
      : lefts_(left_end - left_begin), shard_right_(end - begin) {
    std::iota(shard_right_.begin(), shard_right_.end(), begin);
  }

  std::string_view name() const override { return "brute"; }
  std::span<const EntityIdx> CandidatesFor(EntityIdx) const override {
    return shard_right_;
  }
  uint64_t total_candidate_pairs() const override {
    return static_cast<uint64_t>(lefts_) * shard_right_.size();
  }

 private:
  size_t lefts_;
  std::vector<EntityIdx> shard_right_;
};

// The block's candidate lists, whichever key function joined them.
class CsrCandidates final : public CandidateGenerator {
 public:
  CsrCandidates(CandidateKind kind, EntityIdx left_begin,
                std::vector<std::vector<EntityIdx>> lists)
      : name_(CandidateKindName(kind)),
        left_begin_(left_begin),
        csr_(CandidateCsr::FromLists(std::move(lists))) {}

  std::string_view name() const override { return name_; }
  std::span<const EntityIdx> CandidatesFor(EntityIdx u) const override {
    return csr_.SpanOf(u - left_begin_);
  }
  uint64_t total_candidate_pairs() const override { return csr_.flat.size(); }

 private:
  std::string_view name_;
  EntityIdx left_begin_;
  CandidateCsr csr_;
};

// 64-bit mix for band hashes and key slots (SplitMix64 finaliser).
uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// A blocking key (group, value). Two entities join when they yield one key:
// an LSH key is (band, band hash mod num_buckets), a grid key is (0, BinId).
using BlockKey = std::pair<uint32_t, uint64_t>;

// The one blocking join: (u, v) is a candidate when left entity u and right
// entity v yield one key. `keys_of(store, entity, emit)` calls emit(key)
// once per key of the entity; it must depend only on that entity and on
// dataset-level statistics, so that a block's lists are exactly the full
// build's restricted to the block.
template <typename KeysOf>
std::vector<std::vector<EntityIdx>> JoinOnKeys(const LinkageContext& ctx,
                                               const Block& block,
                                               const KeysOf& keys_of,
                                               int threads) {
  std::vector<std::vector<EntityIdx>> lists(block.left_end -
                                            block.left_begin);
  if (lists.empty()) return lists;

  // The right (key, entity) pairs, gathered per shard in entity order.
  using KeyedRight = std::pair<BlockKey, EntityIdx>;
  std::vector<std::vector<KeyedRight>> runs(
      static_cast<size_t>(threads > 0 ? threads : DefaultThreadCount()));
  ParallelFor(
      block.right_end - block.right_begin,
      [&](size_t begin, size_t end, int shard) {
        for (size_t k = begin; k < end; ++k) {
          const EntityIdx v = block.right_begin + static_cast<EntityIdx>(k);
          keys_of(ctx.store_i, v, [&](const BlockKey& key) {
            runs[static_cast<size_t>(shard)].emplace_back(key, v);
          });
        }
      },
      static_cast<int>(runs.size()));
  size_t pairs = 0;
  for (const auto& run : runs) pairs += run.size();
  SLIM_CHECK_MSG(pairs <= std::numeric_limits<uint32_t>::max(),
                 "blocking keys of one block exceed the uint32_t offsets");
  if (pairs == 0) return lists;

  // The index, in the CSR shape of an inverted bin index addressed by a
  // hash of the key: slot s lists the distinct keys [slot_keys[s],
  // slot_keys[s + 1]), and key k's rights are rights[key_rights[k],
  // key_rights[k + 1]), ascending. About two pairs share a slot.
  const uint64_t mask = std::bit_ceil(std::max<size_t>(pairs / 2, 1)) - 1;
  const auto slot = [mask](const BlockKey& key) {
    return Mix(key.second ^ (uint64_t{key.first} * 0x9e3779b97f4a7c15ULL)) &
           mask;
  };
  std::vector<uint32_t> slot_keys, key_rights;
  std::vector<BlockKey> keys;
  std::vector<EntityIdx> rights;
  {
    // One counting sort groups the pairs by slot; each slot is then sorted
    // by (key, entity).
    std::vector<uint32_t> slot_begin(mask + 2, 0);
    for (const auto& run : runs) {
      for (const KeyedRight& e : run) ++slot_begin[slot(e.first) + 1];
    }
    std::partial_sum(slot_begin.begin(), slot_begin.end(), slot_begin.begin());
    std::vector<KeyedRight> table(pairs);
    std::vector<uint32_t> cursor(slot_begin.begin(), slot_begin.end() - 1);
    for (auto& run : runs) {
      for (const KeyedRight& e : run) table[cursor[slot(e.first)]++] = e;
      std::vector<KeyedRight>().swap(run);
    }
    slot_keys.reserve(mask + 2);
    rights.reserve(pairs);
    for (size_t s = 0; s <= mask; ++s) {
      std::sort(table.begin() + slot_begin[s],
                table.begin() + slot_begin[s + 1]);
      slot_keys.push_back(static_cast<uint32_t>(keys.size()));
      for (uint32_t p = slot_begin[s]; p < slot_begin[s + 1]; ++p) {
        // Equal keys share a slot, so a key differing from the last one
        // indexed is new.
        if (keys.empty() || table[p].first != keys.back()) {
          keys.push_back(table[p].first);
          key_rights.push_back(static_cast<uint32_t>(rights.size()));
        }
        rights.push_back(table[p].second);
      }
    }
    slot_keys.push_back(static_cast<uint32_t>(keys.size()));
    key_rights.push_back(static_cast<uint32_t>(rights.size()));
  }

  // Each left entity unions the rights of its keys in per-worker scratch,
  // so its own list is allocated once, at its final size.
  ParallelFor(
      lists.size(),
      [&](size_t begin, size_t end, int) {
        std::vector<EntityIdx> gathered;
        for (size_t k = begin; k < end; ++k) {
          gathered.clear();
          const EntityIdx u = block.left_begin + static_cast<EntityIdx>(k);
          keys_of(ctx.store_e, u, [&](const BlockKey& key) {
            const uint64_t s = slot(key);
            for (uint32_t q = slot_keys[s]; q < slot_keys[s + 1]; ++q) {
              if (keys[q] != key) continue;
              gathered.insert(gathered.end(), rights.begin() + key_rights[q],
                              rights.begin() + key_rights[q + 1]);
              break;
            }
          });
          std::sort(gathered.begin(), gathered.end());
          lists[k].assign(gathered.begin(),
                          std::unique(gathered.begin(), gathered.end()));
        }
      },
      threads);
  return lists;
}

// Hashes one band of a signature; returns false when every row is a
// placeholder (the band carries no evidence and must not collide).
bool HashBand(const LshSignature& sig, size_t row_begin, size_t row_end,
              uint64_t seed, uint64_t* out) {
  uint64_t h = seed ^ Mix(row_begin * 0x9e3779b97f4a7c15ULL);
  bool any = false;
  for (size_t row = row_begin; row < row_end && row < sig.size(); ++row) {
    if (sig.IsPlaceholder(row)) continue;
    any = true;
    // Positions participate so that the same cell in different query
    // windows does not collide.
    h = Mix(h ^ Mix((row + 1) * 0xd1b54a32d192ed03ULL) ^ sig.cells[row]);
  }
  *out = h;
  return any;
}

// Banded LSH (paper Sec. 4): a cross pair is a candidate when any band of
// the two signatures lands in one bucket. Signatures are split into b bands
// of r rows, b from the similarity threshold via the Lambert-W sizing
// (lsh/signature.h); each band that is not all placeholders yields the key
// (band, band hash mod num_buckets). A signature lives only while its bands
// are hashed.
std::vector<std::vector<EntityIdx>> LshLists(const LinkageContext& ctx,
                                             const LshConfig& config,
                                             const Block& block,
                                             int threads) {
  SLIM_CHECK_MSG(config.num_buckets >= 1, "num_buckets must be >= 1");
  // The grid is pinned to the full problem's span, so a block build's band
  // keys are exactly the full build's: no signature depends on which other
  // entities were banded alongside it.
  const LshWindowSpan span = GlobalWindowSpan(ctx);
  if (span.empty()) {  // nothing occupied
    return std::vector<std::vector<EntityIdx>>(block.left_end -
                                               block.left_begin);
  }
  const int64_t step = config.temporal_step_windows;
  SLIM_CHECK_MSG(step > 0, "temporal step must be positive");
  // Every signature has one row per step of the grid.
  const size_t signature_size =
      static_cast<size_t>((span.end - span.lo + step - 1) / step);
  const size_t num_bands = static_cast<size_t>(
      ComputeNumBands(signature_size, config.similarity_threshold));
  const size_t rows_per_band = (signature_size + num_bands - 1) / num_bands;
  const auto band_keys = [&](const HistoryStore& store, EntityIdx u,
                             const auto& emit) {
    const LshSignature sig =
        BuildSignature(store.tree(u), span.lo, span.end,
                       config.temporal_step_windows,
                       config.signature_spatial_level);
    uint64_t h = 0;
    for (size_t band = 0; band < num_bands; ++band) {
      const size_t row_begin = band * rows_per_band;
      if (HashBand(sig, row_begin, row_begin + rows_per_band,
                   config.hash_seed, &h)) {
        emit(BlockKey{static_cast<uint32_t>(band), h % config.num_buckets});
      }
    }
  };
  return JoinOnKeys(ctx, block, band_keys, threads);
}

// ST-Link-style co-visit blocking: a cross pair is a candidate when the two
// entities share a (window, leaf cell) bin; each bin is one key.
std::vector<std::vector<EntityIdx>> GridLists(const LinkageContext& ctx,
                                              const GridBlockingConfig& config,
                                              const Block& block,
                                              int threads) {
  const HistoryStore& se = ctx.store_e;
  const HistoryStore& si = ctx.store_i;
  const uint32_t cap = config.max_bin_entities;
  const auto bin_keys = [&](const HistoryStore& store, EntityIdx u,
                            const auto& emit) {
    for (const BinId b : store.bins(u)) {
      // The hotspot stop-word counts holders in the FULL right store, so
      // block builds skip exactly the bins the monolithic build skips. A
      // capped bin is skipped on both sides; it never joins either way.
      if (cap > 0 && si.bin_entity_count(b) > cap) continue;
      emit(BlockKey{0, b});
    }
  };
  std::vector<std::vector<EntityIdx>> lists =
      JoinOnKeys(ctx, block, bin_keys, threads);

  const uint32_t min_overlap = config.min_overlap_records;
  if (min_overlap > 1) {
    ParallelFor(
        lists.size(),
        [&](size_t begin, size_t end, int) {
          std::vector<uint32_t> match_a, match_b;  // per-worker scratch
          for (size_t k = begin; k < end; ++k) {
            const EntityIdx u = block.left_begin + static_cast<EntityIdx>(k);
            std::erase_if(lists[k], [&](EntityIdx v) {
              return OverlapMass(se.bins(u), se.counts(u), si.bins(v),
                                 si.counts(v), &match_a,
                                 &match_b) < min_overlap;
            });
          }
        },
        threads);
  }
  return lists;
}

}  // namespace

LshWindowSpan GlobalWindowSpan(const LinkageContext& ctx) {
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();
  // Each entity's sorted window list bounds its occupancy exactly as its
  // tree's min/max do — reading the CSR keeps this usable on SCTX-loaded
  // contexts that skipped the tree rebuild.
  auto widen = [&](const HistoryStore& store) {
    for (EntityIdx k = 0; k < store.size(); ++k) {
      const std::span<const int64_t> windows = store.windows(k);
      if (windows.empty()) continue;
      lo = std::min(lo, windows.front());
      hi = std::max(hi, windows.back());
    }
  };
  widen(ctx.store_e);
  widen(ctx.store_i);
  if (lo > hi) return {0, 0};
  return {lo, hi + 1};
}

std::string_view CandidateKindName(CandidateKind kind) {
  switch (kind) {
    case CandidateKind::kLsh:
      return "lsh";
    case CandidateKind::kBruteForce:
      return "brute";
    case CandidateKind::kGrid:
      return "grid";
  }
  return "unknown";
}

Result<CandidateKind> ParseCandidateKind(std::string_view name) {
  if (name == "lsh") return CandidateKind::kLsh;
  if (name == "brute") return CandidateKind::kBruteForce;
  if (name == "grid") return CandidateKind::kGrid;
  return Status::InvalidArgument("unknown candidate generator: " +
                                 std::string(name));
}

std::unique_ptr<CandidateGenerator> MakeCandidateGenerator(
    CandidateKind kind, const LinkageContext& context,
    const LshConfig& lsh_config, const GridBlockingConfig& grid_config,
    int threads) {
  // A monolithic build IS the one-block build over both full stores.
  return MakeShardCandidateGenerator(
      kind, context, lsh_config, grid_config, 0,
      static_cast<EntityIdx>(context.store_e.size()), 0,
      static_cast<EntityIdx>(context.store_i.size()), threads);
}

std::unique_ptr<CandidateGenerator> MakeShardCandidateGenerator(
    CandidateKind kind, const LinkageContext& context,
    const LshConfig& lsh_config, const GridBlockingConfig& grid_config,
    EntityIdx left_begin, EntityIdx left_end, EntityIdx right_begin,
    EntityIdx right_end, int threads) {
  SLIM_CHECK_MSG(left_begin <= left_end &&
                     left_end <= context.store_e.size(),
                 "left shard range out of bounds");
  SLIM_CHECK_MSG(right_begin <= right_end &&
                     right_end <= context.store_i.size(),
                 "right shard range out of bounds");
  const Block block{left_begin, left_end, right_begin, right_end};
  switch (kind) {
    case CandidateKind::kLsh:
      return std::make_unique<CsrCandidates>(
          kind, left_begin, LshLists(context, lsh_config, block, threads));
    case CandidateKind::kBruteForce:
      return std::make_unique<BruteForceCandidates>(left_begin, left_end,
                                                    right_begin, right_end);
    case CandidateKind::kGrid:
      return std::make_unique<CsrCandidates>(
          kind, left_begin, GridLists(context, grid_config, block, threads));
  }
  SLIM_CHECK_MSG(false, "unreachable candidate kind");
  return nullptr;
}

}  // namespace slim
