#include "core/candidates.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <unordered_map>
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

// 64-bit mix for band hashing (SplitMix64 finaliser).
uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
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

// Marks "this entity's band was all placeholders; it lands in no bucket".
constexpr uint64_t kNoBucket = std::numeric_limits<uint64_t>::max();

// One band's buckets over a block.
struct BandTable {
  // bucket key -> global right EntityIdx values, in index order.
  std::unordered_map<uint64_t, std::vector<EntityIdx>> right_buckets;
  // per block-left position: its bucket key, or kNoBucket.
  std::vector<uint64_t> left_key;
};

// Signatures of store entities [begin, end) on the query grid `span`,
// data-parallel over entities into a pre-sized vector.
std::vector<LshSignature> BlockSignatures(const HistoryStore& store,
                                          EntityIdx begin, EntityIdx end,
                                          const LshWindowSpan& span,
                                          const LshConfig& config,
                                          int threads) {
  std::vector<LshSignature> out(end - begin);
  ParallelFor(
      out.size(),
      [&](size_t lo, size_t hi, int) {
        for (size_t k = lo; k < hi; ++k) {
          out[k] = BuildSignature(store.tree(begin + static_cast<EntityIdx>(k)),
                                  span.lo, span.end,
                                  config.temporal_step_windows,
                                  config.signature_spatial_level);
        }
      },
      threads);
  return out;
}

// The block's band tables (paper Sec. 4): signatures split into b bands
// of r rows, b from the similarity threshold via the Lambert-W sizing
// (lsh/signature.h). Placeholder rows are omitted from a band's hash; a
// band that is entirely placeholders is not hashed at all. Sharded over
// bands: bands are independent, and within a band rights are appended in
// index order, so the tables never depend on scheduling. The signatures
// are locals, freed on return; only the tables reach the gather.
std::vector<BandTable> BuildBandTables(const LinkageContext& ctx,
                                       const LshConfig& config,
                                       EntityIdx left_begin,
                                       EntityIdx left_end,
                                       EntityIdx right_begin,
                                       EntityIdx right_end, int threads) {
  SLIM_CHECK_MSG(config.num_buckets >= 1, "num_buckets must be >= 1");
  // The grid is pinned to the full problem's span, so a block build's
  // band hashes — and therefore its collisions — are exactly the full
  // build's restricted to the block: a collision is a pairwise predicate
  // over one left and one right signature, and neither signature depends
  // on which other entities were banded alongside it.
  const LshWindowSpan span = GlobalWindowSpan(ctx);
  if (span.empty() || left_begin == left_end || right_begin == right_end) {
    return {};  // nothing occupied, or one side of the block is empty
  }
  const std::vector<LshSignature> left = BlockSignatures(
      ctx.store_e, left_begin, left_end, span, config, threads);
  const std::vector<LshSignature> right = BlockSignatures(
      ctx.store_i, right_begin, right_end, span, config, threads);

  // Every signature spans the same grid, so all share one size.
  const size_t signature_size = left.front().size();
  const size_t num_bands = static_cast<size_t>(
      ComputeNumBands(signature_size, config.similarity_threshold));
  const size_t rows_per_band = (signature_size + num_bands - 1) / num_bands;
  std::vector<BandTable> bands(num_bands);
  ParallelFor(
      num_bands,
      [&](size_t begin, size_t end, int) {
        for (size_t band = begin; band < end; ++band) {
          const size_t row_begin = band * rows_per_band;
          const size_t row_end = row_begin + rows_per_band;
          BandTable& table = bands[band];
          table.left_key.assign(left.size(), kNoBucket);
          uint64_t h;
          for (size_t k = 0; k < left.size(); ++k) {
            if (HashBand(left[k], row_begin, row_end, config.hash_seed, &h)) {
              table.left_key[k] = h % config.num_buckets;
            }
          }
          for (size_t k = 0; k < right.size(); ++k) {
            if (HashBand(right[k], row_begin, row_end, config.hash_seed, &h)) {
              table.right_buckets[h % config.num_buckets].push_back(
                  right_begin + static_cast<EntityIdx>(k));
            }
          }
        }
      },
      threads);
  return bands;
}

// Banded LSH: a cross pair is a candidate when any band of the two
// signatures lands in one bucket.
class LshCandidates final : public CandidateGenerator {
 public:
  LshCandidates(const LinkageContext& ctx, const LshConfig& config,
                EntityIdx left_begin, EntityIdx left_end,
                EntityIdx right_begin, EntityIdx right_end, int threads)
      : left_begin_(left_begin) {
    std::vector<std::vector<EntityIdx>> lists(left_end - left_begin);
    {
      const std::vector<BandTable> bands =
          BuildBandTables(ctx, config, left_begin, left_end, right_begin,
                          right_end, threads);
      // Gather + de-duplication, sharded over left entities: each left
      // entity unions its buckets' rights across bands (band order) and
      // sorts/uniques its own list.
      ParallelFor(
          lists.size(),
          [&](size_t begin, size_t end, int) {
            for (size_t k = begin; k < end; ++k) {
              std::vector<EntityIdx>& list = lists[k];
              for (const BandTable& table : bands) {
                const uint64_t key = table.left_key[k];
                if (key == kNoBucket) continue;
                const auto it = table.right_buckets.find(key);
                if (it == table.right_buckets.end()) continue;
                list.insert(list.end(), it->second.begin(), it->second.end());
              }
              std::sort(list.begin(), list.end());
              list.erase(std::unique(list.begin(), list.end()), list.end());
            }
          },
          threads);
    }  // the band tables go before the CSR is assembled
    csr_ = CandidateCsr::FromLists(std::move(lists));
  }

  std::string_view name() const override { return "lsh"; }
  std::span<const EntityIdx> CandidatesFor(EntityIdx u) const override {
    return csr_.SpanOf(u - left_begin_);
  }
  uint64_t total_candidate_pairs() const override { return csr_.flat.size(); }

 private:
  EntityIdx left_begin_;
  CandidateCsr csr_;
};

class GridBlockingCandidates final : public CandidateGenerator {
 public:
  GridBlockingCandidates(const LinkageContext& ctx,
                         const GridBlockingConfig& config,
                         EntityIdx left_begin, EntityIdx left_end,
                         EntityIdx right_begin, EntityIdx right_end,
                         int threads)
      : left_begin_(left_begin) {
    const HistoryStore& se = ctx.store_e;
    const HistoryStore& si = ctx.store_i;

    // Inverted index bin -> shard right entities, CSR over the shared
    // vocabulary. Right entities are visited in index order, so every
    // posting list is ascending.
    std::vector<uint64_t> bin_offsets(ctx.vocab.size() + 1, 0);
    for (EntityIdx v = right_begin; v < right_end; ++v) {
      for (const BinId b : si.bins(v)) ++bin_offsets[b + 1];
    }
    for (size_t b = 1; b < bin_offsets.size(); ++b) {
      bin_offsets[b] += bin_offsets[b - 1];
    }
    std::vector<EntityIdx> postings(bin_offsets.back());
    {
      std::vector<uint64_t> cursor = bin_offsets;
      for (EntityIdx v = right_begin; v < right_end; ++v) {
        for (const BinId b : si.bins(v)) postings[cursor[b]++] = v;
      }
    }

    const uint32_t cap = config.max_bin_entities;
    const uint32_t min_overlap = config.min_overlap_records;
    // Per-left co-visit gathering touches only that left's own bins, so
    // restricting the loop to the block's left range changes nothing about
    // the lists it does build.
    std::vector<std::vector<EntityIdx>> lists(left_end - left_begin);
    ParallelFor(
        lists.size(),
        [&](size_t begin, size_t end, int) {
          std::vector<uint32_t> match_a, match_b;  // per-worker scratch
          for (size_t k = begin; k < end; ++k) {
            const EntityIdx u = left_begin + static_cast<EntityIdx>(k);
            auto& list = lists[k];
            for (const BinId b : se.bins(u)) {
              // The hotspot stop-word counts holders in the FULL right
              // store, so shard builds skip exactly the bins the
              // monolithic build skips.
              if (cap > 0 && si.bin_entity_count(b) > cap) continue;
              const uint64_t lo = bin_offsets[b], hi = bin_offsets[b + 1];
              list.insert(list.end(), postings.begin() + lo,
                          postings.begin() + hi);
            }
            std::sort(list.begin(), list.end());
            list.erase(std::unique(list.begin(), list.end()), list.end());
            if (min_overlap > 1) {
              std::erase_if(list, [&](EntityIdx v) {
                return OverlapMass(se.bins(u), se.counts(u), si.bins(v),
                                   si.counts(v), &match_a,
                                   &match_b) < min_overlap;
              });
            }
          }
        },
        threads);
    csr_ = CandidateCsr::FromLists(std::move(lists));
  }

  std::string_view name() const override { return "grid"; }
  std::span<const EntityIdx> CandidatesFor(EntityIdx u) const override {
    return csr_.SpanOf(u - left_begin_);
  }
  uint64_t total_candidate_pairs() const override { return csr_.flat.size(); }

 private:
  EntityIdx left_begin_;
  CandidateCsr csr_;
};

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
  switch (kind) {
    case CandidateKind::kLsh:
      return std::make_unique<LshCandidates>(context, lsh_config, left_begin,
                                             left_end, right_begin, right_end,
                                             threads);
    case CandidateKind::kBruteForce:
      return std::make_unique<BruteForceCandidates>(left_begin, left_end,
                                                    right_begin, right_end);
    case CandidateKind::kGrid:
      return std::make_unique<GridBlockingCandidates>(
          context, grid_config, left_begin, left_end, right_begin, right_end,
          threads);
  }
  SLIM_CHECK_MSG(false, "unreachable candidate kind");
  return nullptr;
}

}  // namespace slim
