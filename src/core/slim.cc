#include "core/slim.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/resource.h"
#include "common/strings.h"
#include "core/edge_spill.h"
#include "core/sctx.h"
#include "core/sharded.h"

namespace slim {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool PathExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

int ThreadsOf(const SlimConfig& config) {
  return config.threads > 0 ? config.threads : DefaultThreadCount();
}

bool KeepsGraph(const SlimConfig& config) {
  return config.keep_graph || config.matcher == MatcherKind::kHungarian;
}

// Left entities per scoring block are cut into this many contiguous
// chunks, which the workers claim on demand: a worker that drew cheap
// entities takes more chunks instead of idling behind the slowest one.
constexpr size_t kScoreChunks = 64;

// The scoring loop: left entities [left_begin, left_end) against their
// candidates. `threads` workers claim the chunks from a shared counter, and
// each chunk's positive-score edges land in that chunk's own vector, so the
// edges come out in left-entity order whichever worker scored which chunk.
// Each worker adds its stats (integer sums) and its cell-distance cache's
// counters to *stats.
std::vector<std::vector<WeightedEdge>> ScoreBlock(
    const LinkageContext& ctx, const SimilarityEngine& engine,
    const CandidateGenerator& generator, EntityIdx left_begin,
    EntityIdx left_end, int threads, SimilarityStats* stats) {
  const size_t n = static_cast<size_t>(left_end - left_begin);
  const size_t chunks = std::min(n, kScoreChunks);
  std::vector<std::vector<WeightedEdge>> edges(chunks);
  std::vector<SimilarityStats> worker_stats(static_cast<size_t>(threads));
  std::atomic<size_t> next_chunk{0};
  // One ParallelFor shard per worker: the pool may be larger than
  // `threads`, and more shards would run more workers at once.
  ParallelFor(
      worker_stats.size(),
      [&](size_t worker_begin, size_t worker_end, int) {
        for (size_t worker = worker_begin; worker < worker_end; ++worker) {
          SimilarityStats& st = worker_stats[worker];
          CellDistanceCache cache;
          ScoreScratch scratch;
          for (size_t chunk = next_chunk.fetch_add(1); chunk < chunks;
               chunk = next_chunk.fetch_add(1)) {
            std::vector<WeightedEdge>& out = edges[chunk];
            for (size_t k = n * chunk / chunks; k < n * (chunk + 1) / chunks;
                 ++k) {
              const EntityIdx u_idx = left_begin + static_cast<EntityIdx>(k);
              const EntityId u = ctx.store_e.entity_id(u_idx);
              for (const EntityIdx v_idx : generator.CandidatesFor(u_idx)) {
                const double s =
                    engine.ScoreIndexed(u_idx, v_idx, &st, &cache, &scratch);
                if (s > 0.0) {
                  out.push_back({u, ctx.store_i.entity_id(v_idx), s});
                }
              }
            }
          }
          st.cache_hits += cache.hits();
          st.cache_misses += cache.misses();
        }
      },
      threads);
  for (const SimilarityStats& st : worker_stats) *stats += st;
  return edges;
}

// The parts joined in order into one exactly reserved vector, each part
// freed once copied: a block's edges then take one allocation of a fixed
// size, which keeps the driver's peak RSS low and repeatable.
std::vector<WeightedEdge> Concatenate(
    std::vector<std::vector<WeightedEdge>> parts) {
  size_t total = 0;
  for (const auto& part : parts) total += part.size();
  std::vector<WeightedEdge> out;
  out.reserve(total);
  for (auto& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
    std::vector<WeightedEdge>().swap(part);
  }
  return out;
}

// The stop threshold over the matched edge weights, then the final links
// sorted by (u, v). result->matching must already be filled.
void ApplyStopThreshold(const SlimConfig& config, LinkageResult* result) {
  std::vector<double> weights;
  weights.reserve(result->matching.pairs.size());
  for (const auto& e : result->matching.pairs) weights.push_back(e.weight);

  double cutoff = -std::numeric_limits<double>::infinity();
  if (config.apply_stop_threshold) {
    auto decision = DetectStopThreshold(weights, config.threshold_method);
    if (decision.ok()) {
      result->threshold = std::move(decision.value());
      result->threshold_valid = true;
      cutoff = result->threshold.threshold;
    }
    // On detector failure (too few / degenerate weights) every matched pair
    // is kept — the caller can inspect threshold_valid.
  }

  for (const auto& e : result->matching.pairs) {
    if (e.weight > cutoff) result->links.push_back({e.u, e.v, e.weight});
  }
  std::sort(result->links.begin(), result->links.end(),
            [](const LinkedEntityPair& a, const LinkedEntityPair& b) {
              if (a.u != b.u) return a.u < b.u;
              return a.v < b.v;
            });
}

// The one seal (matching + stop threshold, LinkPairs of Alg. 1) over the
// spilled edges. The spill fixes the canonical edge orders, so neither the
// block plan nor the thread count leaves a trace in the output. With the
// graph kept, the (u, v)-ordered edges become the graph without a copy,
// and GreedyMaxWeightMatching runs its proposals over them in place;
// otherwise the (weight desc, u, v)-ordered stream — GreedyEdgeOrder —
// feeds the streaming greedy matcher directly, so only the matching is
// ever resident. Links, matching, and threshold are bit-identical either
// way. IoError from a truncated or corrupt spill propagates; `result` is
// unusable on error.
Status Seal(const SlimConfig& config, EdgeSpill* spill,
            LinkageResult* result) {
  const auto t0 = std::chrono::steady_clock::now();
  if (Status s = spill->Seal(); !s.ok()) return s;
  if (KeepsGraph(config)) {
    std::vector<WeightedEdge> edges;
    if (Status s = spill->Drain(EdgeOrder::kPair, &edges); !s.ok()) return s;
    result->graph = BipartiteGraph(std::move(edges));
    result->matching = config.matcher == MatcherKind::kHungarian
                           ? HungarianMaxWeightMatching(result->graph)
                           : GreedyMaxWeightMatching(result->graph);
  } else {
    StreamingGreedyMatcher matcher;
    if (Status s = spill->Scan(
            EdgeOrder::kScore,
            [&matcher](const WeightedEdge& e) { matcher.Offer(e); });
        !s.ok()) {
      return s;
    }
    result->matching = matcher.Take();
  }
  ApplyStopThreshold(config, result);
  result->seconds_matching = SecondsSince(t0);
  result->rss_peak_matching = CurrentPeakRssBytes();
  return Status::Ok();
}

// The driver behind every entry point: everything after the context
// exists. `result` arrives with the context phase's timings filled in;
// `t_start` anchors seconds_total.
Result<LinkageResult> LinkBlocks(const SlimConfig& config, int threads,
                                 const LinkageContext& ctx,
                                 uint64_t rss_before_context,
                                 std::chrono::steady_clock::time_point t_start,
                                 LinkageResult result) {
  result.candidates_used = config.candidates;
  result.possible_pairs = static_cast<uint64_t>(ctx.store_e.size()) *
                          static_cast<uint64_t>(ctx.store_i.size());
  if (ctx.store_e.size() == 0 || ctx.store_i.size() == 0) {
    result.seconds_total = SecondsSince(t_start);
    result.rss_peak_total = CurrentPeakRssBytes();
    return result;
  }

  const ShardPlan plan = EstimateShardPlan(ctx, config, rss_before_context);
  result.shards_used = plan.shards;
  result.left_shards_used = plan.left_shards;

  // 2/3. Candidates + scoring (LSHFilterPairs and the pairwise scores of
  //      Alg. 1), one L x K block at a time in (left, right) order. A
  //      block's candidate index lives only for its own scoring pass and
  //      dies before its edges join the spill, so at any instant the
  //      process holds at most one block's index and edges, plus the
  //      spill. Spilling to disk is pointless for a single block (the
  //      seal would reload everything immediately).
  const SimilarityEngine engine(ctx, config.similarity);
  EdgeSpillOptions spill_options;
  spill_options.to_disk = plan.left_shards * plan.shards > 1;
  spill_options.run_bytes = static_cast<size_t>(config.spill_run_bytes);
  // Runs sort into the order the seal reads, so it is a single merge pass.
  spill_options.run_order =
      KeepsGraph(config) ? EdgeOrder::kPair : EdgeOrder::kScore;
  EdgeSpill spill(spill_options);

  for (const auto& [left_begin, left_end] : plan.left_ranges) {
    for (const auto& [right_begin, right_end] : plan.ranges) {
      auto t0 = std::chrono::steady_clock::now();
      std::unique_ptr<CandidateGenerator> generator =
          MakeShardCandidateGenerator(config.candidates, ctx, config.lsh,
                                      config.grid, left_begin, left_end,
                                      right_begin, right_end, threads);
      result.candidate_pairs += generator->total_candidate_pairs();
      result.seconds_lsh += SecondsSince(t0);
      result.rss_peak_lsh = CurrentPeakRssBytes();

      t0 = std::chrono::steady_clock::now();
      std::vector<std::vector<WeightedEdge>> edges =
          ScoreBlock(ctx, engine, *generator, left_begin, left_end, threads,
                     &result.stats);
      generator.reset();
      spill.Append(Concatenate(std::move(edges)));
      result.seconds_scoring += SecondsSince(t0);
      result.rss_peak_scoring = CurrentPeakRssBytes();
    }
  }

  result.spilled_edges = spill.size();
  result.spill_on_disk = spill.on_disk();
  if (Status s = Seal(config, &spill, &result); !s.ok()) return s;
  result.spill_bytes_written = spill.spill_bytes_written();
  result.merge_passes = spill.merge_passes();

  result.seconds_total = SecondsSince(t_start);
  result.rss_peak_total = CurrentPeakRssBytes();
  return result;
}

// Link's body: the heap (or SCTX-mapped) context, then LinkBlocks.
Result<LinkageResult> LinkDatasets(const SlimConfig& config,
                                   const LocationDataset& dataset_e,
                                   const LocationDataset& dataset_i) {
  const auto t_start = std::chrono::steady_clock::now();
  const int threads = ThreadsOf(config);
  const uint64_t rss_before_context = CurrentPeakRssBytes();

  // 1. The global context (CreateHistories of Alg. 1): IDF, length norms,
  //    the bin vocabulary, and the LSH query grid are dataset-level
  //    statistics, so they must see both full datasets whatever the plan
  //    is. With sctx_path set the heap build happens at most once (to
  //    create the file) and the run proceeds over the mapped image, so the
  //    steady-state context cost is page cache instead of RSS.
  LinkageContext ctx;
  if (config.sctx_path.empty()) {
    ctx = LinkageContext::Build(dataset_e, dataset_i, config.history,
                                threads);
  } else {
    if (!PathExists(config.sctx_path)) {
      // Scoped so the heap context dies before the mapped one loads: the
      // whole point is not paying for both at once.
      const LinkageContext built = LinkageContext::Build(
          dataset_e, dataset_i, config.history, threads);
      if (Status s = WriteSctx(built, config.sctx_path); !s.ok()) return s;
    }
    SctxReadOptions read_options;
    // Only the LSH generator probes window trees; brute/grid runs skip the
    // rebuild and keep the context fully mapped.
    read_options.build_trees = config.candidates == CandidateKind::kLsh;
    read_options.threads = threads;
    Result<LinkageContext> loaded = ReadSctx(config.sctx_path, read_options);
    if (!loaded.ok()) return loaded.status();
    ctx = std::move(loaded.value());
  }
  LinkageResult result;
  result.seconds_histories = SecondsSince(t_start);
  result.rss_peak_histories = CurrentPeakRssBytes();

  return LinkBlocks(config, threads, ctx, rss_before_context, t_start,
                    std::move(result));
}

}  // namespace

Status ValidateSlimConfig(const SlimConfig& config) {
  const int level = config.history.spatial_level;
  if (config.history.window_seconds <= 0) {
    return Status::InvalidArgument("window width must be positive");
  }
  if (level < 0 || level > CellId::kMaxLevel) {
    return Status::InvalidArgument(
        StrFormat("spatial level must be in [0, %d]", CellId::kMaxLevel));
  }
  // Negated so NaN fails too.
  if (!(config.similarity.b >= 0.0 && config.similarity.b <= 1.0)) {
    return Status::InvalidArgument("b must be in [0, 1]");
  }
  if (config.candidates != CandidateKind::kLsh) return Status::Ok();
  const LshConfig& lsh = config.lsh;
  if (lsh.signature_spatial_level < 0 || lsh.signature_spatial_level > level) {
    return Status::InvalidArgument(StrFormat(
        "LSH signature level must be in [0, %d] (the spatial level)", level));
  }
  if (lsh.temporal_step_windows < 1) {
    return Status::InvalidArgument("LSH step must be >= 1 window");
  }
  if (!(lsh.similarity_threshold > 0.0 && lsh.similarity_threshold < 1.0)) {
    return Status::InvalidArgument("LSH threshold must be in (0, 1)");
  }
  if (lsh.num_buckets < 1) {
    return Status::InvalidArgument("LSH buckets must be >= 1");
  }
  return Status::Ok();
}

SlimLinker::SlimLinker(SlimConfig config) : config_(std::move(config)) {
  const Status valid = ValidateSlimConfig(config_);
  SLIM_CHECK_MSG(valid.ok(), valid.message().c_str());
}

Result<LinkageResult> SlimLinker::Link(const LocationDataset& dataset_e,
                                       const LocationDataset& dataset_i) const {
  if (!dataset_e.finalized() || !dataset_i.finalized()) {
    return Status::FailedPrecondition("datasets must be finalized");
  }
  Result<LinkageResult> result = LinkDatasets(config_, dataset_e, dataset_i);
  // The context build frees hundreds of MB of per-entity transients, spread
  // over the arenas of whichever threads ran its shards. Kept resident,
  // they decide whether the next link's large buffers (the caller's record
  // vectors too) reuse old pages or take fresh ones, and glibc trims its
  // main heap only past a threshold that earlier frees move. Repeated
  // links over one pair in one process then reached peaks a whole record
  // vector apart from one process to the next. Handing the free pages back
  // makes each link start from its live data alone.
  ReleaseFreeHeapMemory();
  return result;
}

Result<LinkageResult> SlimLinker::LinkShardedContext(
    const LinkageContext& context) const {
  const auto t_start = std::chrono::steady_clock::now();
  LinkageResult result;
  result.rss_peak_histories = CurrentPeakRssBytes();
  return LinkBlocks(config_, ThreadsOf(config_), context,
                    result.rss_peak_histories, t_start, std::move(result));
}

}  // namespace slim
