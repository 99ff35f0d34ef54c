#include "core/similarity.h"

#include <algorithm>

#include "common/check.h"
#include "core/pairing.h"

namespace slim {

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

  // Second gate: the real sorted-window intersection (galloping when the
  // lengths are badly skewed). Everything a zero-match pair does not
  // need — norm factors, bin/idf pointers — loads only after the match
  // count survives the early-out.
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
      IntersectSortedI64(wu.data(), wu.size(), wv.data(), wv.size(),
                         s.match_a.data(), s.match_b.data());
  if (matched == 0) return 0.0;

  // Normalisation divisor (Eq. 2); 1 when disabled.
  const double norm =
      config_.use_normalization ? norm_e_[u] * norm_i_[v] : 1.0;

  const BinVocabulary& vocab = ctx_.vocab;
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
      const CellId cell_u = vocab.cell(bu);
      const CellId cell_v = vocab.cell(bv);
      const double d = cache != nullptr ? cache->Get(cell_u, cell_v)
                                        : MinDistanceMeters(cell_u, cell_v);
      const double p =
          SpatialProximity(d, runaway_m_, config_.proximity.clamp_epsilon);
      if (IsAlibi(d, runaway_m_)) ++stats->alibi_pairs;
      const double idf =
          config_.use_idf ? std::min(idf_e[bu], idf_i[bv]) : 1.0;
      score += p * idf / norm;
      continue;
    }

    // General m x n window: distance matrix computed once and shared by
    // the N and N' passes.
    s.dist.resize(m * n);
    double* dist = s.dist.data();
    for (size_t r = 0; r < m; ++r) {
      const CellId cell_u = vocab.cell(bins_e[ub + r]);
      for (size_t c = 0; c < n; ++c) {
        const CellId cell_v = vocab.cell(bins_i[vb + c]);
        dist[r * n + c] = cache != nullptr ? cache->Get(cell_u, cell_v)
                                           : MinDistanceMeters(cell_u, cell_v);
      }
    }
    stats->record_comparisons += static_cast<uint64_t>(m) * n;

    // Contribution of one bin pair, per Eq. 2.
    auto contribution = [&](size_t r, size_t c) {
      const double d = dist[r * n + c];
      const double p =
          SpatialProximity(d, runaway_m_, config_.proximity.clamp_epsilon);
      if (IsAlibi(d, runaway_m_)) ++stats->alibi_pairs;
      double idf = 1.0;
      if (config_.use_idf) {
        idf = std::min(idf_e[bins_e[ub + r]], idf_i[bins_i[vb + c]]);
      }
      return p * idf / norm;
    };

    if (config_.pairing == PairingKind::kAllPairs) {
      for (const auto& [r, c] : AllPairs(m, n)) score += contribution(r, c);
    } else {
      const bool run_mfn = config_.use_mfn;
      const MutualPairing pairing =
          MutualNearestAndFurthestPairs(s.dist, m, n, run_mfn);
      s.in_mnn.assign(m * n, 0);
      for (const auto& [r, c] : pairing.nearest) {
        s.in_mnn[r * n + c] = 1;
        score += contribution(r, c);
      }
      // Alg. 1: add mutually-furthest pairs only when they are alibis
      // (negative delta) and not already counted by N.
      for (const auto& [r, c] : pairing.furthest) {
        if (s.in_mnn[r * n + c]) continue;
        const double delta = contribution(r, c);
        if (delta < 0.0) score += delta;
      }
    }
  }
  return score;
}

}  // namespace slim
