// Pluggable candidate generation — the blocking stage of the pipeline.
//
// Alg. 1 scores only the pairs a filtering stage proposes. Following the
// companion ST-Link work, which frames filtering as a replaceable blocking
// component, candidate generation is a first-class interface with three
// implementations:
//
//   BruteForceCandidates — every cross-dataset pair (the "no-LSH SLIM"
//                          reference; exact, quadratic).
//   LshCandidates        — banded LSH over history signatures (paper
//                          Sec. 4; the production default). It builds the
//                          signatures from the context's window trees
//                          (lsh/signature.h), bands and buckets them
//                          itself, and gathers straight into its CSR.
//   GridBlockingCandidates — ST-Link-style co-visit blocking: a pair is a
//                          candidate iff the two entities share at least
//                          one (window, leaf cell) time-location bin.
//                          Exact on pairs with any exact co-visit; prunes
//                          everything else.
//
// All generators speak dense EntityIdx (core/linkage_context.h) and return
// ascending, de-duplicated right-side index spans, so the scoring loop is
// generator-agnostic and its output order (and therefore the linkage
// result) never depends on which generator produced the candidates.
#ifndef SLIM_CORE_CANDIDATES_H_
#define SLIM_CORE_CANDIDATES_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "common/status.h"
#include "core/linkage_context.h"
#include "lsh/signature.h"

namespace slim {

/// A fixed [lo, end) leaf-window range for the signature query grid.
/// Candidate collisions are a pairwise predicate over band hashes, so
/// banding a *subset* of one side under the same span produces exactly the
/// full build's candidates restricted to that subset — the property the
/// sharded linkage driver (core/sharded.h) relies on.
struct LshWindowSpan {
  int64_t lo = 0;
  int64_t end = 0;  // exclusive

  bool empty() const { return lo >= end; }
};

/// Which candidate generator the pipeline runs.
enum class CandidateKind {
  kLsh,         // banded LSH over signatures (default)
  kBruteForce,  // full cross product
  kGrid,        // co-visited leaf-cell blocking
};

/// "lsh" / "brute" / "grid" (the --candidates flag vocabulary).
std::string_view CandidateKindName(CandidateKind kind);

/// Parses the --candidates flag vocabulary; InvalidArgument on garbage.
Result<CandidateKind> ParseCandidateKind(std::string_view name);

/// Configuration of GridBlockingCandidates.
struct GridBlockingConfig {
  /// Bins held by more than this many right-side entities are skipped as
  /// blocking keys (the classic stop-word guard against hotspot cells
  /// degenerating to the cross product). 0 disables the cap.
  uint32_t max_bin_entities = 0;

  /// Drops candidate pairs whose quantized co-visit mass — sum over shared
  /// bins of min(saturated u16 record counts, see
  /// HistoryStore::quantized_counts) — is below this value. Integer-exact,
  /// so the filter is kernel- and shard-invariant. 0 (the default) keeps
  /// every co-visiting pair: any shared bin has mass >= 1.
  uint32_t min_overlap_records = 0;
};

/// A built candidate index: ascending right-side EntityIdx spans per left
/// entity. Implementations are immutable after construction and safe to
/// probe from any thread.
class CandidateGenerator {
 public:
  virtual ~CandidateGenerator() = default;

  /// Generator name for logs / bench records ("lsh", "brute", "grid").
  virtual std::string_view name() const = 0;
  /// Sorted, de-duplicated right-side indices for left entity `u`.
  virtual std::span<const EntityIdx> CandidatesFor(EntityIdx u) const = 0;
  /// Sum over left entities of their candidate count.
  virtual uint64_t total_candidate_pairs() const = 0;
};

/// The query-grid span of the FULL problem (union of both stores'
/// occupied windows; [0, 0) when nothing is occupied). Every LSH build —
/// one block or many — pins its grid to this span, so signatures never
/// depend on which subset was indexed.
LshWindowSpan GlobalWindowSpan(const LinkageContext& ctx);

/// Builds the candidate index of `kind` over the context. `lsh_config` is
/// consulted only by kLsh, `grid_config` only by kGrid. Construction is
/// data-parallel over `threads` workers and identical at every thread
/// count.
std::unique_ptr<CandidateGenerator> MakeCandidateGenerator(
    CandidateKind kind, const LinkageContext& context,
    const LshConfig& lsh_config, const GridBlockingConfig& grid_config,
    int threads = 0);

/// Builds a candidate index restricted to one L×K block: left entities
/// [left_begin, left_end) against right entities [right_begin, right_end).
/// CandidatesFor(u) — valid exactly for u in the left range — returns the
/// full generator's list for u intersected with the right range, as
/// ascending *global* right EntityIdx values. Every dataset-level
/// statistic a generator consults (the LSH query grid, the grid-blocking
/// hotspot cap) is taken from the full context, and candidacy is a
/// pairwise predicate on both sides (an LSH collision involves only the
/// two signatures; a co-visit involves only the two histories), so the
/// union over any L×K block partition of these indices reproduces the
/// monolithic candidate set bit for bit — the contract the sharded driver
/// (core/sharded.h) and its goldens pin. Peak memory scales with the
/// block size, not the stores.
std::unique_ptr<CandidateGenerator> MakeShardCandidateGenerator(
    CandidateKind kind, const LinkageContext& context,
    const LshConfig& lsh_config, const GridBlockingConfig& grid_config,
    EntityIdx left_begin, EntityIdx left_end, EntityIdx right_begin,
    EntityIdx right_end, int threads = 0);

}  // namespace slim

#endif  // SLIM_CORE_CANDIDATES_H_
