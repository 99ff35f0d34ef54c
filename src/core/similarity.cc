#include "core/similarity.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "common/parallel.h"

namespace slim {
namespace {

// Writes every bin's cell rank among the vocabulary's distinct cells
// (ascending raw id) into *index and returns those cells. Returns no cells
// (and leaves *index empty) as soon as more than `max_cells` distinct
// cells occur. One flat pass: an open-addressing set, sized for
// max_cells, numbers the cells in first-seen order; the ranks then come
// from sorting the K distinct cells.
std::vector<CellId> IndexCells(const BinVocabulary& vocab, size_t max_cells,
                               std::vector<uint16_t>* index) {
  constexpr uint32_t kEmpty = ~uint32_t{0};
  const size_t capacity = std::bit_ceil(4 * max_cells);
  const int shift = 64 - std::countr_zero(capacity);
  std::vector<uint64_t> keys(capacity);
  std::vector<uint32_t> ids(capacity, kEmpty);
  std::vector<CellId> cells;  // first-seen order
  index->resize(vocab.size());
  for (BinId b = 0; b < vocab.size(); ++b) {
    const uint64_t raw = vocab.cell(b).raw();
    size_t slot = static_cast<size_t>((raw * 0x9e3779b97f4a7c15ULL) >> shift);
    while (ids[slot] != kEmpty && keys[slot] != raw) {
      slot = (slot + 1) & (capacity - 1);
    }
    if (ids[slot] == kEmpty) {
      if (cells.size() == max_cells) {
        index->clear();
        return {};
      }
      keys[slot] = raw;
      ids[slot] = static_cast<uint32_t>(cells.size());
      cells.push_back(vocab.cell(b));
    }
    (*index)[b] = static_cast<uint16_t>(ids[slot]);
  }

  std::vector<uint32_t> by_raw(cells.size());
  for (uint32_t k = 0; k < by_raw.size(); ++k) by_raw[k] = k;
  std::sort(by_raw.begin(), by_raw.end(), [&](uint32_t a, uint32_t b) {
    return cells[a].raw() < cells[b].raw();
  });
  std::vector<uint16_t> rank(cells.size());
  std::vector<CellId> sorted(cells.size());
  for (uint32_t r = 0; r < by_raw.size(); ++r) {
    rank[by_raw[r]] = static_cast<uint16_t>(r);
    sorted[r] = cells[by_raw[r]];
  }
  for (uint16_t& id : *index) id = rank[id];
  return sorted;
}

}  // namespace

SimilarityEngine::SimilarityEngine(const LinkageContext& context,
                                   const SimilarityConfig& config)
    : ctx_(context), config_(config) {
  SLIM_CHECK_MSG(config_.b >= 0.0 && config_.b <= 1.0, "b must be in [0,1]");
  runaway_m_ = RunawayMeters(config_.proximity, ctx_.config.window_seconds);
  if (config_.use_normalization) {
    norm_e_.resize(ctx_.store_e.size());
    for (EntityIdx u = 0; u < norm_e_.size(); ++u) {
      norm_e_[u] = ctx_.store_e.LengthNorm(u, config_.b);
    }
    norm_i_.resize(ctx_.store_i.size());
    for (EntityIdx v = 0; v < norm_i_.size(); ++v) {
      norm_i_[v] = ctx_.store_i.LengthNorm(v, config_.b);
    }
  }
  bitmaps_e_ = BuildWindowBitmaps(ctx_.store_e);
  bitmaps_i_ = BuildWindowBitmaps(ctx_.store_i);

  // The table costs K(K+1)/2 distances whatever the link then scores, so
  // the engine builds it only when K is at most kCellDistanceTableMaxCells
  // and the fill computes no more distances than the vocabulary has bins:
  // a small problem (a tiny link, an early serve epoch) would pay more for
  // the fill than its lookups cost. Otherwise it keeps no table and scores
  // through the caller's per-worker CellDistanceCache; that memo path is
  // the only one that runs on wide-area inputs, where a K^2 table does not
  // fit.
  size_t max_cells = kCellDistanceTableMaxCells;
  while (max_cells * (max_cells + 1) / 2 > ctx_.vocab.size()) --max_cells;
  if (max_cells == 0) return;
  const std::vector<CellId> cells =
      IndexCells(ctx_.vocab, max_cells, &cell_index_);
  num_cells_ = cells.size();
  if (num_cells_ == 0) return;
  // The upper triangle (cells sorted by raw id, so row < column puts the
  // smaller raw id first), mirrored. Work item p fills rows p and K-1-p,
  // K+1 entries per item, so the contiguous shards stay balanced.
  const size_t k_cells = num_cells_;
  cell_table_.resize(k_cells * k_cells);
  CellPairEntry* table = cell_table_.data();
  auto fill_row = [&](size_t r) {
    for (size_t c = r; c < k_cells; ++c) {
      const double d = MinDistanceMeters(cells[r], cells[c]);
      const CellPairEntry entry{
          d, SpatialProximity(d, runaway_m_, config_.proximity.clamp_epsilon)};
      table[r * k_cells + c] = entry;
      table[c * k_cells + r] = entry;
    }
  };
  ParallelFor((k_cells + 1) / 2, [&](size_t begin, size_t end, int) {
    for (size_t p = begin; p < end; ++p) {
      fill_row(p);
      if (k_cells - 1 - p != p) fill_row(k_cells - 1 - p);
    }
  });
}

SimilarityEngine::WindowBitmaps SimilarityEngine::BuildWindowBitmaps(
    const HistoryStore& store) {
  // Density needs only an entity's first and last window and its count, so
  // a sparse store (check-ins) costs one pass over its entities.
  WindowBitmaps maps;
  maps.spans.resize(store.size());
  size_t total_words = 0;
  for (EntityIdx u = 0; u < store.size(); ++u) {
    const auto windows = store.windows(u);
    if (windows.size() < kBitmapMinWindows) continue;
    const int64_t first_word = windows.front() >> 6;
    const uint64_t words =
        static_cast<uint64_t>((windows.back() >> 6) - first_word) + 1;
    if (words > windows.size()) continue;
    maps.spans[u] = {first_word, static_cast<uint32_t>(total_words),
                     static_cast<uint32_t>(words)};
    total_words += words;
  }
  maps.bits.assign(total_words, 0);
  maps.rank.resize(total_words);
  for (EntityIdx u = 0; u < store.size(); ++u) {
    const WindowBitmaps::Span& span = maps.spans[u];
    if (span.words == 0) continue;
    uint64_t* bits = maps.bits.data() + span.offset;
    for (const int64_t w : store.windows(u)) {
      bits[(w >> 6) - span.first_word] |= uint64_t{1} << (w & 63);
    }
    uint32_t before = 0;
    for (uint32_t k = 0; k < span.words; ++k) {
      maps.rank[span.offset + k] = before;
      before += static_cast<uint32_t>(std::popcount(bits[k]));
    }
  }
  return maps;
}

size_t SimilarityEngine::IntersectWindowBitmaps(const WindowBitmaps& a,
                                                EntityIdx u,
                                                const WindowBitmaps& b,
                                                EntityIdx v, uint32_t* out_a,
                                                uint32_t* out_b) {
  const WindowBitmaps::Span& su = a.spans[u];
  const WindowBitmaps::Span& sv = b.spans[v];
  const int64_t lo = std::max(su.first_word, sv.first_word);
  const int64_t hi = std::min(su.first_word + su.words,
                              sv.first_word + sv.words);
  size_t matched = 0;
  for (int64_t k = lo; k < hi; ++k) {
    const size_t ia = su.offset + static_cast<size_t>(k - su.first_word);
    const size_t ib = sv.offset + static_cast<size_t>(k - sv.first_word);
    const uint64_t word_a = a.bits[ia];
    const uint64_t word_b = b.bits[ib];
    // Set bits low to high are the shared windows in ascending order; an
    // entity's bits below a shared bit count its windows before it in
    // this word.
    for (uint64_t both = word_a & word_b; both != 0; both &= both - 1) {
      const uint64_t below = (both - 1) & ~both;
      out_a[matched] = a.rank[ia] +
                       static_cast<uint32_t>(std::popcount(word_a & below));
      out_b[matched] = b.rank[ib] +
                       static_cast<uint32_t>(std::popcount(word_b & below));
      ++matched;
    }
  }
  return matched;
}

double SimilarityEngine::Score(EntityId u, EntityId v, SimilarityStats* stats,
                               CellDistanceCache* cache,
                               ScoreScratch* scratch) const {
  const auto iu = ctx_.store_e.IndexOf(u);
  const auto iv = ctx_.store_i.IndexOf(v);
  if (!iu.has_value() || !iv.has_value()) return 0.0;
  return ScoreIndexed(*iu, *iv, stats, cache, scratch);
}

double SimilarityEngine::ScoreIndexed(EntityIdx u, EntityIdx v,
                                      SimilarityStats* stats,
                                      CellDistanceCache* cache,
                                      ScoreScratch* scratch) const {
  SLIM_CHECK(stats != nullptr);
  ++stats->entity_pairs;
  const HistoryStore& se = ctx_.store_e;
  const HistoryStore& si = ctx_.store_i;

  // Most candidate pairs share no window at all, so the zero-score path is
  // the hot one and runs on as little memory as possible. First gate: the
  // 512-bit window fingerprints — disjoint fingerprints prove an empty
  // intersection for the cost of one v-side cache line (the v side is a
  // fresh random entity each call, so every distinct structure it touches
  // is a likely miss). This also covers empty histories (empty mask).
  const uint64_t* mu = se.window_mask(u);
  const uint64_t* mv = si.window_mask(v);
  uint64_t overlap = 0;
  for (size_t w = 0; w < HistoryStore::kWindowMaskWords; ++w) {
    overlap |= mu[w] & mv[w];
  }
  if (overlap == 0) return 0.0;

  // Second gate: the real window intersection — over the bitmaps when both
  // entities keep one (the window counts are checked first, so a sparse
  // pair never loads a bitmap span), otherwise the sorted-list merge
  // (galloping when the lengths are badly skewed). Everything a zero-match
  // pair does not need — norm factors, bin/idf pointers — loads only after
  // the match count survives the early-out.
  const auto wu = se.windows(u);
  const auto wv = si.windows(v);
  if (wu.empty() || wv.empty()) return 0.0;

  ScoreScratch local;
  ScoreScratch& s = scratch != nullptr ? *scratch : local;

  const size_t cap = std::min(wu.size(), wv.size());
  if (s.match_a.size() < cap) {
    s.match_a.resize(cap);
    s.match_b.resize(cap);
  }
  const size_t matched =
      cap >= kBitmapMinWindows && bitmaps_e_.spans[u].words != 0 &&
              bitmaps_i_.spans[v].words != 0
          ? IntersectWindowBitmaps(bitmaps_e_, u, bitmaps_i_, v,
                                   s.match_a.data(), s.match_b.data())
          : IntersectSortedI64(wu.data(), wu.size(), wv.data(), wv.size(),
                               s.match_a.data(), s.match_b.data());
  if (matched == 0) return 0.0;

  // Normalisation divisor (Eq. 2); 1 when disabled.
  const double norm =
      config_.use_normalization ? norm_e_[u] * norm_i_[v] : 1.0;

  const BinVocabulary& vocab = ctx_.vocab;
  const CellPairEntry* table =
      cell_table_.empty() ? nullptr : cell_table_.data();
  const uint16_t* cell_of = cell_index_.data();
  const size_t k_cells = num_cells_;
  const BinId* bins_e = se.bin_ids().data();
  const BinId* bins_i = si.bin_ids().data();
  const double* idf_e = config_.use_idf ? se.idf_values().data() : nullptr;
  const double* idf_i = config_.use_idf ? si.idf_values().data() : nullptr;

  double score = 0.0;
  for (size_t t = 0; t < matched; ++t) {
    const auto [ub, ue] = se.WindowBinRange(u, s.match_a[t]);
    const auto [vb, ve] = si.WindowBinRange(v, s.match_b[t]);
    const size_t m = ue - ub;
    const size_t n = ve - vb;

    if (m == 1 && n == 1) {
      const BinId bu = bins_e[ub];
      const BinId bv = bins_i[vb];
      ++stats->record_comparisons;
      if (bu == bv) {
        // Same (window, cell) bin on both sides: the vocabulary is shared,
        // so equal BinIds mean equal cells — d = 0 and P = 1 exactly, no
        // cache lookup needed.
        score += (config_.use_idf ? std::min(idf_e[bu], idf_i[bu]) : 1.0) /
                 norm;
        continue;
      }
      // A single cross-cell bin pair: the pairing is forced (it is both
      // the mutual-nearest and the all-pairs set), so skip the matrix and
      // pairing machinery.
      double d, p;
      if (table != nullptr) {
        const CellPairEntry& entry =
            table[cell_of[bu] * k_cells + cell_of[bv]];
        d = entry.distance;
        p = entry.proximity;
        ++stats->cache_hits;
      } else {
        const CellId cell_u = vocab.cell(bu);
        const CellId cell_v = vocab.cell(bv);
        d = cache != nullptr ? cache->Get(cell_u, cell_v)
                             : MinDistanceMeters(cell_u, cell_v);
        p = SpatialProximity(d, runaway_m_, config_.proximity.clamp_epsilon);
      }
      if (IsAlibi(d, runaway_m_)) ++stats->alibi_pairs;
      const double idf =
          config_.use_idf ? std::min(idf_e[bu], idf_i[bv]) : 1.0;
      score += p * idf / norm;
      continue;
    }

    // Contribution of one bin pair at distance d, per Eq. 2.
    auto contribution = [&](BinId bu, BinId bv, double d) {
      const double p =
          table != nullptr
              ? table[cell_of[bu] * k_cells + cell_of[bv]].proximity
              : SpatialProximity(d, runaway_m_,
                                 config_.proximity.clamp_epsilon);
      if (IsAlibi(d, runaway_m_)) ++stats->alibi_pairs;
      const double idf =
          config_.use_idf ? std::min(idf_e[bu], idf_i[bv]) : 1.0;
      return p * idf / norm;
    };
    stats->record_comparisons += static_cast<uint64_t>(m) * n;
    if (table != nullptr) stats->cache_hits += static_cast<uint64_t>(m) * n;

    if (config_.pairing == PairingKind::kMutuallyNearest &&
        (m == 1 || n == 1)) {
      // One bin on a side: N and N' come from the pairing's single-row
      // rule (core/pairing.h) over distances computed on the fly, with no
      // matrix; N' is skipped when it is N's entry. k walks the row-major
      // index.
      const BinId* row = m == 1 ? bins_i + vb : bins_e + ub;
      const BinId single = m == 1 ? bins_e[ub] : bins_i[vb];
      auto bin_pair = [&](size_t k) {
        return m == 1 ? std::pair{single, row[k]} : std::pair{row[k], single};
      };
      SingleRowExtremes extremes;
      for (size_t k = 0; k < m * n; ++k) {
        const auto [bu, bv] = bin_pair(k);
        double d;
        if (table != nullptr) {
          d = table[cell_of[bu] * k_cells + cell_of[bv]].distance;
        } else {
          const CellId cell_u = vocab.cell(bu);
          const CellId cell_v = vocab.cell(bv);
          d = cache != nullptr ? cache->Get(cell_u, cell_v)
                               : MinDistanceMeters(cell_u, cell_v);
        }
        extremes.Add(d);
      }
      const auto [nu, nv] = bin_pair(extremes.arg_min());
      score += contribution(nu, nv, extremes.min_distance());
      if (config_.use_mfn && extremes.arg_max() != extremes.arg_min()) {
        const auto [fu, fv] = bin_pair(extremes.arg_max());
        const double delta = contribution(fu, fv, extremes.max_distance());
        if (delta < 0.0) score += delta;
      }
      continue;
    }

    // General m x n window: distance matrix computed once and shared by
    // the N and N' passes.
    s.dist.resize(m * n);
    double* dist = s.dist.data();
    if (table != nullptr) {
      for (size_t r = 0; r < m; ++r) {
        const CellPairEntry* row = table + cell_of[bins_e[ub + r]] * k_cells;
        for (size_t c = 0; c < n; ++c) {
          dist[r * n + c] = row[cell_of[bins_i[vb + c]]].distance;
        }
      }
    } else {
      for (size_t r = 0; r < m; ++r) {
        const CellId cell_u = vocab.cell(bins_e[ub + r]);
        for (size_t c = 0; c < n; ++c) {
          const CellId cell_v = vocab.cell(bins_i[vb + c]);
          dist[r * n + c] = cache != nullptr
                                ? cache->Get(cell_u, cell_v)
                                : MinDistanceMeters(cell_u, cell_v);
        }
      }
    }
    auto matrix_contribution = [&](size_t r, size_t c) {
      return contribution(bins_e[ub + r], bins_i[vb + c], dist[r * n + c]);
    };

    if (config_.pairing == PairingKind::kAllPairs) {
      for (size_t r = 0; r < m; ++r) {
        for (size_t c = 0; c < n; ++c) score += matrix_contribution(r, c);
      }
    } else {
      MutualNearestAndFurthestPairs({dist, m * n}, m, n, config_.use_mfn,
                                    &s.pairing);
      s.in_mnn.assign(m * n, 0);
      for (const auto& [r, c] : s.pairing.nearest) {
        s.in_mnn[r * n + c] = 1;
        score += matrix_contribution(r, c);
      }
      // Alg. 1: add mutually-furthest pairs only when they are alibis
      // (negative delta) and not already counted by N.
      for (const auto& [r, c] : s.pairing.furthest) {
        if (s.in_mnn[r * n + c]) continue;
        const double delta = matrix_contribution(r, c);
        if (delta < 0.0) score += delta;
      }
    }
  }
  return score;
}

}  // namespace slim
