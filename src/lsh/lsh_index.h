// Banded LSH index over mobility-history signatures (paper Sec. 4).
//
// Signatures are split into b bands of r rows; each band is hashed into a
// large bucket array, and a cross-dataset pair becomes a linkage candidate
// when any band of the two signatures collides. The band count is derived
// from the similarity threshold via the Lambert-W sizing (signature.h).
// Placeholder rows are omitted from a band's hash; a band that is entirely
// placeholders is not hashed at all (an empty band carries no evidence).
//
// Storage is dense: signatures and candidate lists live in flat per-side
// vectors addressed by entry position, with one sorted (entity -> position)
// array per side backing the EntityId lookups — no per-entity hash maps.
#ifndef SLIM_LSH_LSH_INDEX_H_
#define SLIM_LSH_LSH_INDEX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "data/record.h"
#include "lsh/signature.h"
#include "temporal/window_tree.h"

namespace slim {

/// A fixed [lo, end) leaf-window range for the signature query grid.
/// Candidate collisions are a pairwise predicate over band hashes, so an
/// index built over a *subset* of one side under the same span produces
/// exactly the full index's candidates restricted to that subset — the
/// property the sharded linkage driver (core/sharded.h) relies on.
struct LshWindowSpan {
  int64_t lo = 0;
  int64_t end = 0;  // exclusive

  bool empty() const { return lo >= end; }
};

/// Candidate-pair index between two sides (dataset E = left, I = right).
class LshIndex {
 public:
  /// One indexable history: the entity id plus its window tree. The tree
  /// pointer must outlive the Build() call (signatures are extracted
  /// eagerly; the tree is not retained).
  struct Entry {
    EntityId entity = 0;
    const WindowSegmentTree* tree = nullptr;
  };

  /// Builds the index. The query grid spans the union of both sides'
  /// occupied window ranges, so signature positions align across every
  /// history. Empty sides are allowed.
  ///
  /// `fixed_span`, when non-null, pins the query grid to an externally
  /// computed window range instead of the union of the two inputs. Sharded
  /// builds pass the span of the *full* problem so that signatures — and
  /// therefore band hashes and candidates — are identical to a monolithic
  /// build whatever subset of a side they receive.
  ///
  /// Construction is data-parallel over `threads` workers (<= 0 means the
  /// library default; see common/parallel.h): signature computation shards
  /// over entities, bucket building shards over bands, and candidate
  /// gathering + de-duplication shards over left entities. Every merge is
  /// ordered (entity order, band order), so the index is identical at
  /// every thread count.
  static LshIndex Build(const std::vector<Entry>& side_e,
                        const std::vector<Entry>& side_i,
                        const LshConfig& config, int threads = 0,
                        const LshWindowSpan* fixed_span = nullptr);

  /// Sorted, de-duplicated right-side candidates for left entity `u`,
  /// materialised as entity ids (empty when u collided with nothing or was
  /// not indexed). Lists ascend by right-side Build() position, which is
  /// ascending entity id whenever side_i was passed in ascending order (as
  /// every pipeline caller does). Diagnostics/tests API — the hot path
  /// uses CandidatePositionsAt.
  std::vector<EntityId> CandidatesFor(EntityId u) const;

  /// Candidates of the left entity at Build() position `left_pos`, as
  /// right-side Build() positions — zero-conversion access for dense
  /// callers (core/candidates.h, where positions are EntityIdx).
  const std::vector<uint32_t>& CandidatePositionsAt(size_t left_pos) const {
    return candidates_[left_pos];
  }

  /// Sum over left entities of their candidate count.
  uint64_t total_candidate_pairs() const { return total_candidate_pairs_; }

  size_t signature_size() const { return signature_size_; }
  int num_bands() const { return num_bands_; }
  int rows_per_band() const { return rows_per_band_; }

  /// The signature built for a left/right entity (tests + diagnostics);
  /// nullptr when the entity was not indexed.
  const LshSignature* LeftSignature(EntityId u) const;
  const LshSignature* RightSignature(EntityId v) const;

 private:
  // Sorted (entity, Build position) pairs for one side.
  using PositionIndex = std::vector<std::pair<EntityId, uint32_t>>;

  static PositionIndex IndexPositions(const std::vector<Entry>& side);
  static const uint32_t* FindPosition(const PositionIndex& index,
                                      EntityId entity);

  // Dense per-position storage, in Build() input order. Candidate lists
  // hold right-side positions (indices into right_entities_).
  std::vector<std::vector<uint32_t>> candidates_;  // per left position
  std::vector<EntityId> right_entities_;
  std::vector<LshSignature> left_signatures_;
  std::vector<LshSignature> right_signatures_;
  PositionIndex left_positions_;
  PositionIndex right_positions_;
  uint64_t total_candidate_pairs_ = 0;
  size_t signature_size_ = 0;
  int num_bands_ = 0;
  int rows_per_band_ = 0;
};

}  // namespace slim

#endif  // SLIM_LSH_LSH_INDEX_H_
