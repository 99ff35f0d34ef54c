#include "baselines/st_link.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/parallel.h"
#include "core/linkage_context.h"
#include "geo/distance_cache.h"
#include "stats/kneedle.h"
#include "temporal/time_window.h"

namespace slim {
namespace {

// Per-pair accumulation state.
struct PairStats {
  uint32_t cooccurrences = 0;
  uint32_t alibis = 0;
  std::unordered_set<uint64_t> diverse_cells;  // cells where co-occurring
};

// Elbow detection over a count distribution: x = candidate minimum value,
// y = number of pairs reaching at least x (a convex decreasing survival
// curve). Falls back to `fallback` when no elbow exists.
uint32_t DetectMinimum(const std::vector<uint32_t>& values,
                       uint32_t fallback) {
  if (values.empty()) return fallback;
  std::map<uint32_t, uint64_t> freq;
  for (uint32_t v : values) ++freq[v];
  std::vector<double> xs, ys;
  uint64_t remaining = values.size();
  for (const auto& [value, count] : freq) {
    xs.push_back(static_cast<double>(value));
    ys.push_back(static_cast<double>(remaining));  // pairs with >= value
    remaining -= count;
  }
  if (xs.size() < 3) return fallback;
  KneedleOptions ko;
  ko.curve = KneedleCurve::kConvexDecreasing;
  const auto elbow = FindKneedle(xs, ys, ko);
  if (!elbow.has_value()) return fallback;
  return static_cast<uint32_t>(xs[*elbow]);
}

}  // namespace

StLinkLinker::StLinkLinker(StLinkConfig config) : config_(std::move(config)) {
  SLIM_CHECK_MSG(config_.window_seconds > 0, "window width must be positive");
  SLIM_CHECK_MSG(config_.co_location_radius_m > 0,
                 "co-location radius must be positive");
}

Result<StLinkResult> StLinkLinker::Link(
    const LocationDataset& dataset_e,
    const LocationDataset& dataset_i) const {
  if (!dataset_e.finalized() || !dataset_i.finalized()) {
    return Status::FailedPrecondition("datasets must be finalized");
  }
  const auto t_start = std::chrono::steady_clock::now();
  StLinkResult result;

  // The dense linkage context is the windowed-bin index: each entity's
  // windows ascend, and each window's bins come in (window, cell) order.
  const int threads =
      config_.threads > 0 ? config_.threads : DefaultThreadCount();
  const LinkageContext ctx = LinkageContext::Build(
      dataset_e, dataset_i,
      {.spatial_level = config_.spatial_level,
       .window_seconds = config_.window_seconds},
      threads);
  const HistoryStore& store_e = ctx.store_e;
  const HistoryStore& store_i = ctx.store_i;
  const double runaway =
      RunawayDistanceMeters(config_.window_seconds, config_.max_speed_mps);

  // Window -> the rights active in it, as (EntityIdx, position in that
  // entity's windows), built in index order, for blocking.
  std::unordered_map<int64_t, std::vector<std::pair<EntityIdx, uint32_t>>>
      active_i;
  for (EntityIdx v = 0; v < store_i.size(); ++v) {
    const auto windows = store_i.windows(v);
    for (uint32_t k = 0; k < windows.size(); ++k) {
      active_i[windows[k]].emplace_back(v, k);
    }
  }

  // Accumulate pair statistics, parallel over the left side.
  struct Shard {
    std::unordered_map<uint64_t, PairStats> pairs;  // (u<<32)|v key
    uint64_t comparisons = 0;
  };
  std::vector<Shard> shards(static_cast<size_t>(threads));

  ParallelFor(
      store_e.size(),
      [&](size_t begin, size_t end, int shard_id) {
        Shard& shard = shards[static_cast<size_t>(shard_id)];
        CellDistanceCache cache;
        for (size_t k = begin; k < end; ++k) {
          const EntityIdx u = static_cast<EntityIdx>(k);
          const auto windows_u = store_e.windows(u);
          for (size_t ku = 0; ku < windows_u.size(); ++ku) {
            const auto it = active_i.find(windows_u[ku]);
            if (it == active_i.end()) continue;
            const auto [bu_begin, bu_end] = store_e.WindowBinRange(u, ku);
            for (const auto& [v, kv] : it->second) {
              const auto [bv_begin, bv_end] = store_i.WindowBinRange(v, kv);
              const uint64_t key = (static_cast<uint64_t>(u) << 32) | v;
              PairStats& ps = shard.pairs[key];
              for (uint32_t i = bu_begin; i < bu_end; ++i) {
                const CellId cell_u = ctx.vocab.cell(store_e.bin_ids()[i]);
                for (uint32_t j = bv_begin; j < bv_end; ++j) {
                  ++shard.comparisons;
                  const double d =
                      cache.Get(cell_u, ctx.vocab.cell(store_i.bin_ids()[j]));
                  if (d <= config_.co_location_radius_m) {
                    ++ps.cooccurrences;
                    ps.diverse_cells.insert(cell_u.raw());
                  } else if (d > runaway) {
                    ++ps.alibis;
                  }
                }
              }
            }
          }
        }
      },
      threads);

  // Drain the shards into one key-sorted vector. Every traversal below is
  // result-producing (graph edges, qualifying pairs, links), so the order
  // must come from the (left, right) key, never from hash-table layout.
  std::vector<std::pair<uint64_t, PairStats>> sorted_pairs;
  {
    size_t total = 0;
    for (const Shard& s : shards) total += s.pairs.size();
    sorted_pairs.reserve(total);
  }
  for (Shard& s : shards) {
    result.record_comparisons += s.comparisons;
    // Drain order is irrelevant: the vector is key-sorted before any
    // result-producing traversal.
    // slim-lint: allow(SLIM-DET-001, drained then key-sorted below)
    for (auto& [key, ps] : s.pairs) {
      sorted_pairs.emplace_back(key, std::move(ps));
    }
  }
  std::sort(sorted_pairs.begin(), sorted_pairs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Left indices partition across shards, so keys are unique; merge
  // adjacent duplicates defensively anyway.
  {
    size_t w = 0;
    for (size_t r = 0; r < sorted_pairs.size(); ++r) {
      if (w > 0 && sorted_pairs[w - 1].first == sorted_pairs[r].first) {
        PairStats& dst = sorted_pairs[w - 1].second;
        PairStats& src = sorted_pairs[r].second;
        dst.cooccurrences += src.cooccurrences;
        dst.alibis += src.alibis;
        // slim-lint: allow(SLIM-DET-001, set union is order-insensitive)
        dst.diverse_cells.insert(src.diverse_cells.begin(),
                                 src.diverse_cells.end());
      } else {
        if (w != r) sorted_pairs[w] = std::move(sorted_pairs[r]);
        ++w;
      }
    }
    sorted_pairs.resize(w);
  }

  // Auto-detect k and l when requested.
  std::vector<uint32_t> k_values, l_values;
  for (const auto& [key, ps] : sorted_pairs) {
    if (ps.cooccurrences > 0) {
      k_values.push_back(ps.cooccurrences);
      l_values.push_back(static_cast<uint32_t>(ps.diverse_cells.size()));
    }
  }
  result.k_used = config_.min_cooccurrences != 0
                      ? config_.min_cooccurrences
                      : DetectMinimum(k_values, /*fallback=*/3);
  result.l_used = config_.min_diversity != 0
                      ? config_.min_diversity
                      : DetectMinimum(l_values, /*fallback=*/2);

  // Qualifying pairs + candidate graph (weights = co-occurrence counts).
  // std::map: the loops over these feed result.links and the ambiguity
  // census, so their iteration order is part of the output contract.
  std::map<EntityId, std::vector<EntityId>> quals_by_u;
  std::map<EntityId, std::vector<EntityId>> quals_by_v;
  for (const auto& [key, ps] : sorted_pairs) {
    const EntityId u = store_e.entity_id(static_cast<EntityIdx>(key >> 32));
    const EntityId v =
        store_i.entity_id(static_cast<EntityIdx>(key & 0xffffffffULL));
    if (ps.cooccurrences > 0) {
      result.graph.AddEdge(u, v, static_cast<double>(ps.cooccurrences));
    }
    if (ps.cooccurrences >= result.k_used &&
        ps.diverse_cells.size() >= result.l_used &&
        ps.alibis <= config_.alibi_tolerance) {
      quals_by_u[u].push_back(v);
      quals_by_v[v].push_back(u);
    }
  }

  // Ambiguity: any entity qualifying with more than one counterpart is
  // dropped (both directions must be unique).
  std::unordered_set<EntityId> ambiguous_u, ambiguous_v;
  for (const auto& [u, vs] : quals_by_u) {
    if (vs.size() > 1) ambiguous_u.insert(u);
  }
  for (const auto& [v, us] : quals_by_v) {
    if (us.size() > 1) ambiguous_v.insert(v);
  }
  result.ambiguous_entities = ambiguous_u.size() + ambiguous_v.size();

  for (const auto& [u, vs] : quals_by_u) {
    if (ambiguous_u.count(u)) continue;
    const EntityId v = vs.front();
    if (ambiguous_v.count(v)) continue;
    result.links.push_back({u, v, 0.0});
  }
  // Attach co-occurrence counts as scores.
  {
    std::unordered_map<EntityId, std::unordered_map<EntityId, double>> w;
    for (const auto& e : result.graph.edges()) w[e.u][e.v] = e.weight;
    for (auto& link : result.links) link.score = w[link.u][link.v];
  }
  std::sort(result.links.begin(), result.links.end(),
            [](const LinkedEntityPair& a, const LinkedEntityPair& b) {
              if (a.u != b.u) return a.u < b.u;
              return a.v < b.v;
            });

  result.seconds_total =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start)
          .count();
  return result;
}

}  // namespace slim
