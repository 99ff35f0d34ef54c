// Epoch-based incremental linkage over a build-and-extend context.
//
// The batch pipeline (core/slim.h) links two frozen datasets from
// scratch. IncrementalLinker keeps one LinkageContext alive across
// *epochs*: Ingest() buffers record appends (new events for existing
// entities, or entirely new entities, on either side) and LinkEpoch()
// folds them in — vocabulary intern + store compaction
// (core/linkage_context.h) — then runs the batch driver
// (SlimLinker::LinkShardedContext) over the compacted context:
// candidates, scoring, matching, and the GMM stop threshold, from scratch.
//
// The contract, pinned by tests/test_incremental.cc and the CI
// serve-smoke byte-comparison: after any sequence of Ingest/LinkEpoch
// calls, the epoch's links/matching/threshold/graph are BIT-IDENTICAL to
// a from-scratch SlimLinker::Link over the union of every record ever
// ingested, at every thread count. It holds by construction: the
// compacted context equals LinkageContext::Build over that union, and the
// epoch runs the same driver over it.
//
// Nothing but the context, the links, and the graph (TopK's source)
// carries over between epochs. A new bin shifts avg|H| and so every
// length norm; a new entity shifts |U| and so every IDF value; a moved
// window span moves the LSH query grid. A time-ordered stream does all
// three almost every epoch, so cached pair scores and LSH signatures
// would be stale (docs/SERVING.md has the measurement).
//
// Not thread-safe: one linker, one caller (the slim_serve daemon's
// single-threaded command loop). Internally LinkEpoch parallelises over
// config.threads and follows the block plan like the batch path;
// keep_graph is forced on and sctx_path is ignored (the live context is
// heap-resident).
#ifndef SLIM_CORE_INCREMENTAL_H_
#define SLIM_CORE_INCREMENTAL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/linkage_context.h"
#include "core/slim.h"
#include "match/bipartite.h"

namespace slim {

/// What one LinkEpoch did (diagnostics; the LINK reply). Every epoch
/// re-links the compacted context from scratch, so pairs_scored is the
/// epoch's candidate-pair count, both reuse counters read 0, and
/// rescored_all reads true; the fields keep the reply and the bench
/// records stable.
struct EpochStats {
  uint64_t appended_records = 0;  // records folded in by this epoch
  uint64_t pairs_scored = 0;      // candidate pairs scored
  uint64_t pairs_reused = 0;      // always 0: no pair-score cache
  uint64_t signatures_reused = 0; // always 0: no LSH signature carry-over
  bool rescored_all = true;       // always true: every epoch re-links
};

/// One epoch's outcome: the batch-identical linkage plus the delta
/// against the previous epoch (the SUBSCRIBE feed).
struct EpochResult {
  int epoch = 0;  // 1-based epoch number this result sealed
  LinkageResult linkage;
  EpochStats incremental;
  /// Links present now but not in the previous epoch, and vice versa.
  /// Compared by the full (u, v, score) triple: a score change surfaces
  /// as remove-then-add. Both sorted by (u, v).
  std::vector<LinkedEntityPair> added_links;
  std::vector<LinkedEntityPair> removed_links;
};

class IncrementalLinker {
 public:
  /// Validates the config like SlimLinker does (CHECK on invalid
  /// geometry) and forces keep_graph on. Starts at epoch 0 with an empty
  /// context.
  explicit IncrementalLinker(SlimConfig config);

  /// Buffers `records` (any order; new or existing entities) for the
  /// given side. Visible to queries only after the next LinkEpoch().
  void Ingest(LinkageSide side, std::span<const Record> records);

  /// Records buffered since the last LinkEpoch, per side.
  uint64_t pending_records(LinkageSide side) const {
    return side == LinkageSide::kE ? pending_records_e_ : pending_records_i_;
  }

  /// Folds buffered appends into the context and re-links. Calling with
  /// nothing buffered re-seals identical links. Fails only when a
  /// multi-block plan's disk spill does (IoError); the epoch is then not
  /// sealed.
  Result<EpochResult> LinkEpoch();

  /// Epochs sealed so far.
  int epoch() const { return epoch_; }
  /// The last sealed epoch's links, sorted by (u, v). Empty before the
  /// first LinkEpoch.
  const std::vector<LinkedEntityPair>& links() const { return links_; }
  /// Top-k positive-score candidates of left entity `u` from the last
  /// sealed epoch, sorted by (score desc, v asc): u's edges in that
  /// epoch's graph. Candidates, not links: this ranks every positive
  /// scored pair of u, whether or not matching kept it. Empty when u is
  /// unknown or scored no positive pair.
  std::vector<LinkedEntityPair> TopK(EntityId u, size_t k) const;
  /// The live context (post-compaction view of everything ingested).
  const LinkageContext& context() const { return ctx_; }
  const SlimConfig& config() const { return linker_.config(); }
  /// Total records ingested (and folded in) per side since construction.
  uint64_t total_records(LinkageSide side) const {
    return side == LinkageSide::kE ? total_records_e_ : total_records_i_;
  }

 private:
  SlimLinker linker_;
  LinkageContext ctx_;
  int epoch_ = 0;
  uint64_t pending_records_e_ = 0, pending_records_i_ = 0;
  uint64_t total_records_e_ = 0, total_records_i_ = 0;
  // The last sealed epoch's links and (u, v)-sorted graph.
  std::vector<LinkedEntityPair> links_;
  BipartiteGraph graph_;
};

}  // namespace slim

#endif  // SLIM_CORE_INCREMENTAL_H_
