// GM baseline (Wang et al., "De-anonymization of Mobility Trajectories:
// Dissecting the Gaps between Theory and Practice", NDSS 2018) —
// reimplemented from that paper's description; the authors' code is not
// part of this repository.
//
// GM learns a per-entity mobility model: a Gaussian-mixture over the
// entity's record locations (capturing where it spends time) plus a
// Markov transition model over coarse grid cells (capturing how it moves).
// A candidate pair (u, v) is scored by the symmetric cross log-likelihood
// of each side's records under the other side's model; unlike SLIM, records
// from *different* temporal windows still contribute (the model is
// time-free). GM has no scaling mechanism — every cross pair is scored —
// and produces pair weights rather than a one-to-one linkage, so (exactly
// as the SLIM paper does in Sec. 5.5) SLIM's matching and stop-threshold
// detection are applied on top of GM's scores.
#ifndef SLIM_BASELINES_GM_H_
#define SLIM_BASELINES_GM_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/slim.h"
#include "data/dataset.h"
#include "match/bipartite.h"

namespace slim {

/// GM configuration.
struct GmConfig {
  /// Components of the per-entity spatial mixture.
  int num_components = 3;
  /// Grid level of the Markov transition states.
  int markov_level = 10;
  /// Window width used to discretise the transition sequence.
  int64_t window_seconds = 3600;
  /// Weight of the transition log-likelihood relative to the spatial one.
  double markov_weight = 0.5;
  /// Laplace smoothing for transition probabilities.
  double transition_smoothing = 0.5;
  int threads = 0;
};

/// GM output.
struct GmResult {
  /// Final links after SLIM's matching + stop threshold, sorted by u.
  std::vector<LinkedEntityPair> links;
  /// All scored pairs (cross log-likelihoods; for Hit-Precision@k).
  BipartiteGraph graph;
  /// Threshold decision over the matched weights.
  ThresholdDecision threshold;
  bool threshold_valid = false;
  /// Record-model evaluations performed (likelihood lookups).
  uint64_t record_comparisons = 0;
  double seconds_total = 0.0;
};

/// Runs GM over the two datasets. Scores *every* cross pair (GM has no
/// blocking), so runtime is quadratic in the entity counts.
class GmLinker {
 public:
  explicit GmLinker(GmConfig config);

  Result<GmResult> Link(const LocationDataset& dataset_e,
                        const LocationDataset& dataset_i) const;

 private:
  GmConfig config_;
};

}  // namespace slim

#endif  // SLIM_BASELINES_GM_H_
