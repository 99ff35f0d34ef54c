#include "lsh/lsh_index.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "common/check.h"
#include "common/parallel.h"

namespace slim {
namespace {

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

}  // namespace

LshIndex::PositionIndex LshIndex::IndexPositions(
    const std::vector<Entry>& side) {
  PositionIndex index;
  index.reserve(side.size());
  for (size_t k = 0; k < side.size(); ++k) {
    index.emplace_back(side[k].entity, static_cast<uint32_t>(k));
  }
  std::sort(index.begin(), index.end());
  return index;
}

const uint32_t* LshIndex::FindPosition(const PositionIndex& index,
                                       EntityId entity) {
  const auto it = std::lower_bound(
      index.begin(), index.end(), entity,
      [](const auto& pair, EntityId e) { return pair.first < e; });
  if (it == index.end() || it->first != entity) return nullptr;
  return &it->second;
}

LshIndex LshIndex::Build(const std::vector<Entry>& side_e,
                         const std::vector<Entry>& side_i,
                         const LshConfig& config, int threads,
                         const LshWindowSpan* fixed_span) {
  SLIM_CHECK_MSG(config.num_buckets >= 1, "num_buckets must be >= 1");
  LshIndex index;
  index.candidates_.resize(side_e.size());
  index.left_positions_ = IndexPositions(side_e);
  index.right_positions_ = IndexPositions(side_i);
  index.right_entities_.reserve(side_i.size());
  for (const Entry& e : side_i) index.right_entities_.push_back(e.entity);

  // Query grid: the caller-pinned span, else the union of occupied windows.
  int64_t w_lo = std::numeric_limits<int64_t>::max();
  int64_t w_hi = std::numeric_limits<int64_t>::min();
  if (fixed_span != nullptr) {
    w_lo = fixed_span->lo;
    w_hi = fixed_span->end - 1;
  } else {
    auto widen = [&](const std::vector<Entry>& side) {
      for (const Entry& e : side) {
        SLIM_CHECK(e.tree != nullptr);
        if (e.tree->empty()) continue;
        w_lo = std::min(w_lo, e.tree->min_window());
        w_hi = std::max(w_hi, e.tree->max_window());
      }
    };
    widen(side_e);
    widen(side_i);
  }
  if (w_lo > w_hi) {
    // Nothing occupied anywhere: empty signatures, no candidates.
    index.left_signatures_.resize(side_e.size());
    index.right_signatures_.resize(side_i.size());
    return index;
  }

  const int64_t w_end = w_hi + 1;

  // Signatures: one per entity, independent of each other — shard over
  // entities into pre-sized vectors (entity order fixed by the caller).
  index.left_signatures_.resize(side_e.size());
  index.right_signatures_.resize(side_i.size());
  auto build_side = [&](const std::vector<Entry>& side,
                        std::vector<LshSignature>& out) {
    ParallelFor(
        side.size(),
        [&](size_t begin, size_t end, int) {
          for (size_t k = begin; k < end; ++k) {
            out[k] = BuildSignature(*side[k].tree, w_lo, w_end,
                                    config.temporal_step_windows,
                                    config.signature_spatial_level);
          }
        },
        threads);
  };
  build_side(side_e, index.left_signatures_);
  build_side(side_i, index.right_signatures_);
  index.signature_size_ =
      !index.left_signatures_.empty()
          ? index.left_signatures_.front().size()
          : (!index.right_signatures_.empty()
                 ? index.right_signatures_.front().size()
                 : 0);
  if (index.signature_size_ == 0) return index;

  // Banding (Lambert-W sizing).
  index.num_bands_ =
      ComputeNumBands(index.signature_size_, config.similarity_threshold);
  index.rows_per_band_ = static_cast<int>(
      (index.signature_size_ + static_cast<size_t>(index.num_bands_) - 1) /
      static_cast<size_t>(index.num_bands_));

  // Bucket tables, sharded over bands: each band hashes the right side into
  // its own bucket map and records every left entity's bucket key. Bands
  // are fully independent, and within a band rights are appended in side_i
  // order, so the tables never depend on scheduling.
  struct BandTable {
    // bucket key -> right-side positions, in side_i order.
    std::unordered_map<uint64_t, std::vector<uint32_t>> right_buckets;
    // per left-entity index: its bucket key, or kNoBucket.
    std::vector<uint64_t> left_key;
  };
  std::vector<BandTable> bands(static_cast<size_t>(index.num_bands_));
  ParallelFor(
      static_cast<size_t>(index.num_bands_),
      [&](size_t begin, size_t end, int) {
        for (size_t band = begin; band < end; ++band) {
          const size_t row_begin =
              band * static_cast<size_t>(index.rows_per_band_);
          const size_t row_end =
              row_begin + static_cast<size_t>(index.rows_per_band_);
          BandTable& table = bands[band];
          table.left_key.assign(side_e.size(), kNoBucket);
          uint64_t h;
          for (size_t k = 0; k < side_e.size(); ++k) {
            if (HashBand(index.left_signatures_[k], row_begin, row_end,
                         config.hash_seed, &h)) {
              table.left_key[k] = h % config.num_buckets;
            }
          }
          for (size_t k = 0; k < side_i.size(); ++k) {
            if (HashBand(index.right_signatures_[k], row_begin, row_end,
                         config.hash_seed, &h)) {
              table.right_buckets[h % config.num_buckets].push_back(
                  static_cast<uint32_t>(k));
            }
          }
        }
      },
      threads);

  // Candidate gathering + de-duplication, sharded over left entities: each
  // left entity unions its bucket's rights across bands (band order) and
  // sorts/uniques its own list.
  ParallelFor(
      side_e.size(),
      [&](size_t begin, size_t end, int) {
        for (size_t k = begin; k < end; ++k) {
          std::vector<uint32_t>& list = index.candidates_[k];
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

  // The candidate-pair total, in left-entity order.
  for (const auto& list : index.candidates_) {
    index.total_candidate_pairs_ += list.size();
  }
  return index;
}

std::vector<EntityId> LshIndex::CandidatesFor(EntityId u) const {
  const uint32_t* pos = FindPosition(left_positions_, u);
  if (pos == nullptr) return {};
  std::vector<EntityId> out;
  out.reserve(candidates_[*pos].size());
  for (const uint32_t right_pos : candidates_[*pos]) {
    out.push_back(right_entities_[right_pos]);
  }
  return out;
}

const LshSignature* LshIndex::LeftSignature(EntityId u) const {
  const uint32_t* pos = FindPosition(left_positions_, u);
  return pos == nullptr ? nullptr : &left_signatures_[*pos];
}

const LshSignature* LshIndex::RightSignature(EntityId v) const {
  const uint32_t* pos = FindPosition(right_positions_, v);
  return pos == nullptr ? nullptr : &right_signatures_[*pos];
}

}  // namespace slim
