// Bounded-memory edge accumulation + external sort for the linkage driver
// (core/slim.h).
//
// Scoring produces the edge set one (left, right) block of the shard plan
// at a time; the seal reads it back in one global order — the canonical
// (u, v) order that seals the graph, or the (weight desc, u, v) order the
// streaming greedy matcher consumes. At 1M entities/side the edge set no
// longer fits the memory budget, so EdgeSpill implements the classic
// external-sort shape instead of the old read-everything-back:
//
//   append    — blocks accumulate in a bounded run buffer; a full buffer
//               is sorted (by the configured run order) and appended to a
//               temporary spill file as one sorted run.
//   seal      — the final partial run flushes; the spill becomes
//               read-only.
//   scan      — a loser-tree k-way merge streams the runs back in the run
//               order through fixed-size per-run read buffers.
//   drain     — the same global order, moved into one vector: in memory
//               the buffer is sorted in place and handed over, so a
//               one-block plan's edges become the sealed graph uncopied.
//
// Scan and Drain read only the order the runs were sorted in; the driver
// picks that order up front. Both orders are total (each (u, v) pair is
// scored once; score ties break on (u, v)), so the merged sequence is
// independent of run boundaries, thread count, and shard plan — the
// bit-identity argument the external matcher inherits from the monolithic
// driver.
//
// Error handling: failure to create the spill file degrades to an
// in-memory buffer with a one-time stderr note (correctness over the
// memory bound; on_disk() reports which mode ran). Short reads or a
// truncated/corrupt spill surface as IoError from Scan() — never a crash.
#ifndef SLIM_CORE_EDGE_SPILL_H_
#define SLIM_CORE_EDGE_SPILL_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "match/bipartite.h"

namespace slim {

/// A global edge order a spill scan can produce.
enum class EdgeOrder {
  kPair,   // (u, v) ascending — the canonical sealed-graph order
  kScore,  // (weight desc, u, v) — the greedy matcher's selection order
};

struct EdgeSpillOptions {
  /// Spill runs to a temporary file; false keeps every edge in memory
  /// (single-block plans, where a spill would buy nothing).
  bool to_disk = false;
  /// Run-buffer budget in bytes: edges accumulate in memory up to this
  /// bound before sorting + spilling one run. Also bounds the merge's
  /// total read-buffer bytes.
  size_t run_bytes = size_t{64} << 20;
  /// The order runs are sorted in at spill time, and the only order Scan()
  /// and Drain() produce (one merge pass).
  EdgeOrder run_order = EdgeOrder::kPair;
  /// When non-empty, spill to this exact path instead of an anonymous
  /// std::tmpfile (the file is removed on destruction). Tests use this to
  /// provoke creation failures and to corrupt a live spill.
  std::string spill_path;
};

/// Bounded-memory edge accumulation across scoring blocks. Blocks append
/// from the driver thread in deterministic block order; Seal() freezes the
/// spill; Scan() streams the edges back in the run order.
class EdgeSpill {
 public:
  explicit EdgeSpill(EdgeSpillOptions options);
  ~EdgeSpill();

  EdgeSpill(const EdgeSpill&) = delete;
  EdgeSpill& operator=(const EdgeSpill&) = delete;

  /// Appends one block's edges (consumed). Not thread-safe — blocks
  /// append from the driver thread in block order.
  void Append(std::vector<WeightedEdge> edges);

  /// Flushes the final run and freezes the spill for scanning.
  /// Idempotent; Append after Seal is a programming error.
  Status Seal();

  /// Edges appended so far.
  uint64_t size() const { return count_; }
  /// Whether edges actually reside in a temporary file.
  bool on_disk() const { return file_ != nullptr; }
  /// Sorted runs written so far (0 in memory mode).
  size_t run_count() const { return runs_.size(); }
  /// Bytes written to spill storage, including rewrite passes.
  uint64_t spill_bytes_written() const { return spill_bytes_written_; }
  /// k-way merge passes executed by Scan() calls so far.
  int merge_passes() const { return merge_passes_; }

  /// Streams every edge, exactly once, in global `order`, which must be
  /// the configured run_order (checked). Requires Seal(). Repeatable (each
  /// call re-merges); the callback must not re-enter the spill. IoError on
  /// short reads / corrupt spill.
  Status Scan(EdgeOrder order,
              const std::function<void(const WeightedEdge&)>& fn);

  /// Replaces `*out` with every edge in global `order` (which must be the
  /// run_order, checked) and consumes the spill: memory mode sorts its
  /// buffer in place and moves it out without a copy; disk mode merges the
  /// runs into `*out`. Requires Seal(); Scan() and Drain() are invalid
  /// afterwards. IoError on short reads / corrupt spill.
  Status Drain(EdgeOrder order, std::vector<WeightedEdge>* out);

 private:
  struct Run {
    uint64_t begin = 0;  // first edge's index in the spill file
    uint64_t count = 0;  // edges in this run
  };

  // Sorts the open run buffer by run_order and appends it to file_ as one
  // run. On a write failure the spill reads every prior run back and
  // degrades to memory mode.
  void SpillRun();
  // Loser-tree k-way merge of runs_ (each sorted by the run order) into
  // `fn`.
  Status MergeRuns(const std::function<void(const WeightedEdge&)>& fn);

  EdgeSpillOptions options_;
  std::FILE* file_ = nullptr;  // nullptr -> in-memory mode
  std::vector<Run> runs_;
  std::vector<WeightedEdge> buffer_;  // open run (disk) / everything (mem)
  uint64_t count_ = 0;
  bool sealed_ = false;
  bool drained_ = false;
  uint64_t spill_bytes_written_ = 0;
  int merge_passes_ = 0;
};

}  // namespace slim

#endif  // SLIM_CORE_EDGE_SPILL_H_
