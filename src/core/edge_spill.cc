#include "core/edge_spill.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "common/check.h"
#include "match/matcher.h"

namespace slim {
namespace {

bool EdgeLess(EdgeOrder order, const WeightedEdge& a, const WeightedEdge& b) {
  return order == EdgeOrder::kPair ? PairEdgeOrder(a, b)
                                   : GreedyEdgeOrder(a, b);
}

void SortEdges(EdgeOrder order, std::vector<WeightedEdge>* edges) {
  if (order == EdgeOrder::kPair) {
    // Scoring emits each block in (u, v) order, so a one-block buffer
    // arrives sorted: checking costs one pass where sorting costs n log n.
    if (!std::is_sorted(edges->begin(), edges->end(), PairEdgeOrder)) {
      std::sort(edges->begin(), edges->end(), PairEdgeOrder);
    }
  } else {
    std::sort(edges->begin(), edges->end(), GreedyEdgeOrder);
  }
}

// The in-memory fallback is an expected degradation (no tmpdir, spill
// device full), but it abandons the memory bound — say so once per
// process, on stderr, without failing the run.
void WarnSpillFallbackOnce(const char* why) {
  static std::once_flag flag;
  std::call_once(flag, [why] {
    std::fprintf(stderr,
                 "slim: edge spill unavailable (%s); "
                 "falling back to in-memory edge buffering\n",
                 why);
  });
}

// Buffered sequential reader over one sorted run. head() is valid after a
// successful Prime() whenever !exhausted().
class RunCursor {
 public:
  RunCursor(std::FILE* file, uint64_t begin_edge, uint64_t count,
            size_t buf_edges)
      : file_(file),
        next_(begin_edge),
        remaining_(count),
        buf_edges_(std::max<size_t>(1, buf_edges)) {}

  bool exhausted() const { return pos_ == buf_.size() && remaining_ == 0; }
  const WeightedEdge& head() const { return buf_[pos_]; }
  void Pop() { ++pos_; }

  /// Refills the buffer when drained. IoError on a short read — a
  /// truncated or corrupt spill must surface as a Status, not a crash.
  Status Prime() {
    if (pos_ < buf_.size() || remaining_ == 0) return Status::Ok();
    const size_t take =
        static_cast<size_t>(std::min<uint64_t>(remaining_, buf_edges_));
    buf_.resize(take);
    pos_ = 0;
    if (std::fseek(file_,
                   static_cast<long>(next_ * sizeof(WeightedEdge)),
                   SEEK_SET) != 0) {
      return Status::IoError("edge spill seek failed");
    }
    if (std::fread(buf_.data(), sizeof(WeightedEdge), take, file_) != take) {
      return Status::IoError(
          "edge spill short read (truncated or corrupt spill file)");
    }
    next_ += take;
    remaining_ -= take;
    return Status::Ok();
  }

 private:
  std::FILE* file_;
  uint64_t next_;       // file position of the next unread edge, in edges
  uint64_t remaining_;  // edges not yet read into the buffer
  size_t buf_edges_;
  std::vector<WeightedEdge> buf_;
  size_t pos_ = 0;
};

// Classic array loser tree over k run cursors: node_[0] holds the winner,
// node_[1..k-1] hold the losers of their subtrees, and exhausted cursors
// rank after every live one. O(log k) per emitted edge; the two edge
// orders are total, so no cross-cursor tie can make the tree's choice
// depend on run boundaries.
class LoserTree {
 public:
  LoserTree(std::vector<RunCursor>* cursors, EdgeOrder order)
      : cursors_(cursors),
        order_(order),
        k_(cursors->size()),
        node_(std::max<size_t>(1, k_), k_) {  // k_ = sentinel "empty"
    for (size_t s = 0; s < k_; ++s) Adjust(s);
  }

  size_t winner() const { return node_[0]; }

  /// Replays leaf `s` (whose head changed) up to the root.
  void Adjust(size_t s) {
    for (size_t t = (s + k_) / 2; t > 0; t /= 2) {
      if (Beats(node_[t], s)) std::swap(s, node_[t]);
    }
    node_[0] = s;
  }

 private:
  // Whether contender a's head precedes contender b's in the merge order.
  // The init sentinel (index k_) beats everything, so it parks each real
  // leaf at its first unplayed node during construction and is displaced
  // off the tree by the time all leaves are adjusted; exhausted cursors
  // rank after every live one, so drained runs sink out of the play.
  bool Beats(size_t a, size_t b) const {
    if (a >= k_) return true;
    if (b >= k_) return false;
    if ((*cursors_)[a].exhausted()) return false;
    if ((*cursors_)[b].exhausted()) return true;
    return EdgeLess(order_, (*cursors_)[a].head(), (*cursors_)[b].head());
  }

  std::vector<RunCursor>* cursors_;
  EdgeOrder order_;
  size_t k_;
  std::vector<size_t> node_;
};

}  // namespace

EdgeSpill::EdgeSpill(EdgeSpillOptions options) : options_(std::move(options)) {
  if (!options_.to_disk) return;
  file_ = options_.spill_path.empty()
              ? std::tmpfile()
              : std::fopen(options_.spill_path.c_str(), "wb+");
  if (file_ == nullptr) WarnSpillFallbackOnce("cannot create spill file");
}

EdgeSpill::~EdgeSpill() {
  if (file_ != nullptr) std::fclose(file_);
  if (resorted_file_ != nullptr) std::fclose(resorted_file_);
  if (!options_.spill_path.empty()) std::remove(options_.spill_path.c_str());
}

void EdgeSpill::Append(std::vector<WeightedEdge> edges) {
  SLIM_CHECK_MSG(!sealed_, "EdgeSpill::Append after Seal");
  count_ += edges.size();
  if (buffer_.empty()) {
    buffer_ = std::move(edges);
  } else {
    buffer_.insert(buffer_.end(), edges.begin(), edges.end());
  }
  if (file_ != nullptr &&
      buffer_.size() * sizeof(WeightedEdge) >= options_.run_bytes) {
    SpillRun();
  }
}

Status EdgeSpill::Seal() {
  if (sealed_) return Status::Ok();
  sealed_ = true;
  if (file_ != nullptr && !buffer_.empty()) SpillRun();
  return Status::Ok();
}

void EdgeSpill::SpillRun() {
  if (buffer_.empty()) return;
  SortEdges(options_.run_order, &buffer_);
  const size_t n = buffer_.size();
  const uint64_t begin =
      runs_.empty() ? 0 : runs_.back().begin + runs_.back().count;
  // Flush eagerly: the recorded run extents promise the bytes are in the
  // file (readers fseek+fread through a separate code path), and a full
  // stdio buffer silently deferring the write would break that.
  if (std::fwrite(buffer_.data(), sizeof(WeightedEdge), n, file_) != n ||
      std::fflush(file_) != 0) {
    // Spill device full: read the complete prior runs back and degrade to
    // memory — correctness over the memory bound. The failed (possibly
    // partial) write is past every recorded run extent, so the readback
    // only touches intact bytes.
    WarnSpillFallbackOnce("spill write failed");
    std::vector<WeightedEdge> all(static_cast<size_t>(begin));
    std::rewind(file_);
    SLIM_CHECK_MSG(begin == 0 ||
                       std::fread(all.data(), sizeof(WeightedEdge),
                                  all.size(), file_) == all.size(),
                   "edge spill readback failed");
    std::fclose(file_);
    file_ = nullptr;
    all.insert(all.end(), buffer_.begin(), buffer_.end());
    buffer_ = std::move(all);
    runs_.clear();
    return;
  }
  runs_.push_back({begin, n});
  spill_bytes_written_ += static_cast<uint64_t>(n) * sizeof(WeightedEdge);
  buffer_.clear();
  buffer_.shrink_to_fit();
}

Status EdgeSpill::ResortRuns(EdgeOrder order) {
  std::FILE* out = std::tmpfile();
  if (out == nullptr) {
    return Status::IoError("cannot create resort spill file");
  }
  std::vector<WeightedEdge> run_buf;
  for (const Run& run : runs_) {
    run_buf.resize(static_cast<size_t>(run.count));
    if (std::fseek(file_,
                   static_cast<long>(run.begin * sizeof(WeightedEdge)),
                   SEEK_SET) != 0 ||
        std::fread(run_buf.data(), sizeof(WeightedEdge), run_buf.size(),
                   file_) != run_buf.size()) {
      std::fclose(out);
      return Status::IoError(
          "edge spill short read (truncated or corrupt spill file)");
    }
    SortEdges(order, &run_buf);
    if (std::fwrite(run_buf.data(), sizeof(WeightedEdge), run_buf.size(),
                    out) != run_buf.size()) {
      std::fclose(out);
      return Status::IoError("edge spill resort write failed");
    }
    spill_bytes_written_ +=
        static_cast<uint64_t>(run.count) * sizeof(WeightedEdge);
  }
  resorted_file_ = out;
  resorted_runs_ = runs_;  // identical extents, rewritten sequentially
  resorted_valid_ = true;
  return Status::Ok();
}

Status EdgeSpill::MergeRuns(std::FILE* file, const std::vector<Run>& runs,
                            EdgeOrder order,
                            const std::function<void(const WeightedEdge&)>& fn) {
  ++merge_passes_;
  if (runs.empty()) return Status::Ok();
  const size_t k = runs.size();
  // The merge's read buffers share the run budget: k cursors plus slack.
  const size_t per_cursor = std::max<size_t>(
      4096, options_.run_bytes / sizeof(WeightedEdge) / (k + 1));
  std::vector<RunCursor> cursors;
  cursors.reserve(k);
  for (const Run& run : runs) {
    cursors.emplace_back(file, run.begin, run.count, per_cursor);
  }
  for (RunCursor& c : cursors) {
    if (Status s = c.Prime(); !s.ok()) return s;
  }
  LoserTree tree(&cursors, order);
  while (true) {
    const size_t w = tree.winner();
    if (w >= k || cursors[w].exhausted()) break;
    fn(cursors[w].head());
    cursors[w].Pop();
    if (Status s = cursors[w].Prime(); !s.ok()) return s;
    tree.Adjust(w);
  }
  return Status::Ok();
}

Status EdgeSpill::Scan(EdgeOrder order,
                       const std::function<void(const WeightedEdge&)>& fn) {
  SLIM_CHECK_MSG(sealed_, "EdgeSpill::Scan before Seal");
  SLIM_CHECK_MSG(!drained_, "EdgeSpill::Scan after Drain");
  if (file_ == nullptr) {
    // Memory mode: a full sort replaces the merge; same total orders, same
    // sequence.
    SortEdges(order, &buffer_);
    for (const WeightedEdge& e : buffer_) fn(e);
    return Status::Ok();
  }
  if (order == options_.run_order) return MergeRuns(file_, runs_, order, fn);
  if (!resorted_valid_) {
    if (Status s = ResortRuns(order); !s.ok()) return s;
  }
  return MergeRuns(resorted_file_, resorted_runs_, order, fn);
}

Status EdgeSpill::Drain(EdgeOrder order, std::vector<WeightedEdge>* out) {
  SLIM_CHECK_MSG(sealed_ && !drained_,
                 "EdgeSpill::Drain before Seal or after Drain");
  Status status = Status::Ok();
  if (file_ == nullptr) {
    SortEdges(order, &buffer_);
    *out = std::move(buffer_);
    buffer_ = {};
  } else {
    out->clear();
    out->reserve(static_cast<size_t>(count_));
    status = Scan(order, [out](const WeightedEdge& e) { out->push_back(e); });
  }
  drained_ = true;
  return status;
}

}  // namespace slim
