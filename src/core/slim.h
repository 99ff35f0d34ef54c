// SLIM: Scalable Linkage of Mobility Histories — Algorithm 1 of the paper.
//
// Pipeline (a staged run over the dense LinkageContext):
//   1. context  — intern both datasets into the shared bin vocabulary and
//                 two CSR history stores (core/linkage_context.h)
//   2. candidates — build the configured CandidateGenerator (LSH, brute
//                 force, or grid blocking; core/candidates.h)
//   3. scoring  — pairwise similarity over the proposed pairs -> weighted
//                 bipartite graph over positive scores
//   4. matching — maximum-sum matching
//   5. threshold — fit the 2-component GMM over matched edge weights and
//                 keep only links above the detected stop threshold.
//
// One driver runs every linkage — Link, LinkShardedContext, and each
// IncrementalLinker epoch (core/incremental.h). Stages 2-3 run once per
// block of the L x K shard plan (core/sharded.h; 1 x 1 by default), each
// block's edges go to one EdgeSpill (core/edge_spill.h), and one seal
// runs stages 4-5 over the spill.
#ifndef SLIM_CORE_SLIM_H_
#define SLIM_CORE_SLIM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/candidates.h"
#include "core/history.h"
#include "core/linkage_context.h"
#include "core/similarity.h"
#include "core/threshold.h"
#include "data/dataset.h"
#include "lsh/signature.h"
#include "match/matcher.h"

namespace slim {

/// Which assignment solver performs the final matching.
enum class MatcherKind {
  kGreedy,     // the paper's heuristic (default)
  kHungarian,  // exact; O(n^3), for small instances / ablation
};

/// Full SLIM configuration. Defaults follow the paper's Sec. 5 pipeline
/// defaults (spatial level 12, 15-minute windows, b = 0.5, alpha = 2
/// km/min, 4096 LSH buckets) — except the LSH operating point, which
/// deliberately deviates to t = 0.5 at signature level 10 (docs/TUNING.md
/// has the reasoning; tests/test_build_smoke.cc guards these values).
struct SlimConfig {
  HistoryConfig history;
  SimilarityConfig similarity;

  /// Which candidate generator proposes the pairs to score. kBruteForce is
  /// the paper's "no-LSH SLIM" reference (every cross-dataset pair); kGrid
  /// is ST-Link-style co-visit blocking. docs/TUNING.md discusses the
  /// trade-offs.
  CandidateKind candidates = CandidateKind::kLsh;
  /// LSH parameters (used when candidates == kLsh). Defaults to a
  /// deliberately coarse operating point (level 10, 2-hour steps, t = 0.5)
  /// rather than LshConfig's own Sec. 5.3.2 values — docs/TUNING.md
  /// explains the level/step/threshold trade-offs and when to deviate.
  LshConfig lsh{.similarity_threshold = 0.5,
                .signature_spatial_level = 10,
                .temporal_step_windows = 8};
  /// Grid-blocking parameters (used when candidates == kGrid).
  GridBlockingConfig grid;

  ThresholdMethod threshold_method = ThresholdMethod::kGmmExpectedF1;
  /// When false, the matching is emitted unfiltered (no stop threshold) —
  /// the "full matching" the paper argues against; kept for ablation.
  bool apply_stop_threshold = true;

  MatcherKind matcher = MatcherKind::kGreedy;

  /// Worker threads for every pipeline stage (context building, candidate
  /// generation, pairwise scoring, edge assembly); <= 0 means the library
  /// default (the SLIM_THREADS environment variable, else all hardware
  /// threads — see common/parallel.h). Results are identical at every
  /// thread count.
  int threads = 0;

  /// Right-side shard count K of the block plan (core/sharded.h). 0
  /// derives the count from shard_memory_budget_bytes (1 when no budget is
  /// set either); K >= 1 forces K contiguous EntityIdx shards. Links are
  /// bit-identical at every shard count.
  int shards = 0;

  /// Left-side shard count L of the block plan. The driver scores L x K
  /// blocks, so the candidate index and scoring working set scale with one
  /// block of each side instead of the full left store. <= 1 keeps the left
  /// side whole. Links are bit-identical at every (L, K).
  int left_shards = 0;

  /// Approximate peak-memory budget for the candidate + scoring block of
  /// one shard, in bytes. Only consulted when shards == 0: the driver
  /// derives the smallest shard count whose estimated per-block working set
  /// fits the budget (see EstimateShardPlan in core/sharded.h for the
  /// CurrentPeakRssBytes-calibrated estimate). 0 means unbounded.
  uint64_t shard_memory_budget_bytes = 0;

  /// When non-empty, Link runs against an mmap-backed SCTX context
  /// (core/sctx.h) at this path instead of a heap-resident one: an existing
  /// file is mapped directly (the datasets are not re-interned); a missing
  /// file is built from the datasets, serialized, and the heap copy freed
  /// before mapping. Scores and links are bit-identical either way.
  std::string sctx_path;

  /// Run-buffer budget for the driver's external edge sort
  /// (core/edge_spill.h), used by plans of more than one block: edges
  /// accumulate up to this many bytes before one sorted run spills; the
  /// k-way merge's read buffers share the same bound. Only a memory/IO
  /// trade-off — never affects links.
  uint64_t spill_run_bytes = uint64_t{64} << 20;

  /// When false, the seal skips materialising LinkageResult::graph (the
  /// full positive-score edge set) and streams edges straight into the
  /// greedy matcher in score order — the O(edges) -> O(matching) memory
  /// step the 1M-scale preset needs. Links, matching, and threshold are
  /// bit-identical; only `graph` comes back empty. Ignored (treated as
  /// true) by the Hungarian matcher, which needs the whole graph resident
  /// anyway, and by IncrementalLinker, whose TopK reads the graph.
  bool keep_graph = true;
};

/// One linked entity pair (u from E, v from I) and its similarity score.
struct LinkedEntityPair {
  EntityId u = 0;
  EntityId v = 0;
  double score = 0.0;

  bool operator==(const LinkedEntityPair&) const = default;
};

/// Everything the linkage produced, including the intermediate artifacts
/// the evaluation reports on.
struct LinkageResult {
  /// Final links (above the stop threshold when enabled), sorted by u.
  std::vector<LinkedEntityPair> links;
  /// The full maximum-sum matching before thresholding.
  Matching matching;
  /// The scored bipartite graph (positive similarity scores only), sorted
  /// by (u, v). Used for Hit-Precision@k evaluation.
  BipartiteGraph graph;

  /// Stop-threshold decision; `threshold_valid` is false when the detector
  /// could not run (e.g. fewer than two matched edges) in which case all
  /// matched pairs are kept.
  ThresholdDecision threshold;
  bool threshold_valid = false;

  /// Scoring instrumentation (record comparisons, alibi pairs, distance-
  /// cache hits/misses, ...).
  SimilarityStats stats;
  /// Which candidate generator produced the scored pairs.
  CandidateKind candidates_used = CandidateKind::kLsh;
  /// Pairs considered after filtering vs the full cross product.
  uint64_t candidate_pairs = 0;
  uint64_t possible_pairs = 0;

  /// Wall-clock seconds per phase. seconds_lsh times the candidate stage
  /// whatever the generator (the name is kept for bench-record
  /// compatibility). seconds_matching times the whole seal — edge
  /// ordering, graph, matching, and the stop threshold — so seconds_total
  /// minus the four stage fields is ~0 on every entry point.
  double seconds_histories = 0.0;
  double seconds_lsh = 0.0;
  double seconds_scoring = 0.0;
  double seconds_matching = 0.0;
  double seconds_total = 0.0;

  /// Peak process RSS (bytes) sampled at the end of each phase, in phase
  /// order; monotone non-decreasing (see common/resource.h). 0 on
  /// platforms without getrusage.
  uint64_t rss_peak_histories = 0;
  uint64_t rss_peak_lsh = 0;
  uint64_t rss_peak_scoring = 0;
  uint64_t rss_peak_matching = 0;
  uint64_t rss_peak_total = 0;

  /// Block-plan provenance: the L x K plan the driver ran. spilled_edges
  /// counts edges that passed through the spill before the seal;
  /// spill_on_disk says whether the spill actually reached a temporary
  /// file (only multi-block plans spill, and a spill degrades to memory
  /// when no tmpfile is available). spill_bytes_written totals spill-file
  /// writes; merge_passes counts k-way merges the external sort ran
  /// (core/edge_spill.h). Both are 0 in memory.
  int shards_used = 1;
  int left_shards_used = 1;
  uint64_t spilled_edges = 0;
  bool spill_on_disk = false;
  uint64_t spill_bytes_written = 0;
  int merge_passes = 0;
};

/// The SLIM linkage algorithm (Alg. 1). Construct once per configuration and
/// call Link(); the linker is stateless across calls.
class SlimLinker {
 public:
  explicit SlimLinker(SlimConfig config);

  const SlimConfig& config() const { return config_; }

  /// Links dataset_e (left, "E") to dataset_i (right, "I"). Both datasets
  /// must be finalized. Returns the full LinkageResult; an empty result
  /// (no links) is success, not an error.
  ///
  /// Candidates and scoring run per L x K block — config().left_shards x
  /// config().shards of them, or as many right shards as
  /// config().shard_memory_budget_bytes demands, 1 x 1 by default — with
  /// the block edges streaming through an external sort when there is
  /// more than one block, then one global matching + threshold seal.
  /// Links, matching, graph (when kept), and stats sums are bit-identical
  /// at every (L, K, threads); peak memory of the candidate + scoring
  /// stages scales with the largest block instead of the full stores.
  /// With config().sctx_path set, the context is serialized/mapped via
  /// core/sctx.h instead of held on the heap.
  Result<LinkageResult> Link(const LocationDataset& dataset_e,
                             const LocationDataset& dataset_i) const;

  /// Link's block + seal stages over an already-built context — e.g. one
  /// mapped from an SCTX file (core/sctx.h) so the datasets never
  /// re-intern. `context` must outlive the call; result timings report 0
  /// for the context-build phase. When config().candidates == kLsh the
  /// context must have its window trees (HistoryStore::has_trees).
  Result<LinkageResult> LinkShardedContext(const LinkageContext& context)
      const;

 private:
  SlimConfig config_;
};

}  // namespace slim

#endif  // SLIM_CORE_SLIM_H_
