// Umbrella header: the full public API of the SLIM library.
//
// Quickstart:
//   #include "slim.h"
//   slim::SlimConfig config;                       // paper defaults
//   slim::SlimLinker linker(config);
//   auto result = linker.Link(dataset_e, dataset_i);
//   for (const auto& link : result->links) { ... }
#ifndef SLIM_SLIM_H_
#define SLIM_SLIM_H_

#include "common/parallel.h"    // IWYU pragma: export
#include "common/rng.h"         // IWYU pragma: export
#include "common/status.h"      // IWYU pragma: export
#include "common/strings.h"     // IWYU pragma: export

#include "geo/cell_id.h"         // IWYU pragma: export
#include "geo/covering.h"        // IWYU pragma: export
#include "geo/distance_cache.h"  // IWYU pragma: export
#include "geo/latlng.h"          // IWYU pragma: export

#include "temporal/time_window.h"  // IWYU pragma: export
#include "temporal/window_tree.h"  // IWYU pragma: export

#include "data/cab_generator.h"     // IWYU pragma: export
#include "data/checkin_generator.h" // IWYU pragma: export
#include "data/commute_generator.h" // IWYU pragma: export
#include "data/csv.h"               // IWYU pragma: export
#include "data/dataset.h"           // IWYU pragma: export
#include "data/dataset_io.h"        // IWYU pragma: export
#include "data/record.h"            // IWYU pragma: export
#include "data/sampler.h"           // IWYU pragma: export
#include "data/sbin.h"              // IWYU pragma: export

#include "stats/gmm1d.h"      // IWYU pragma: export
#include "stats/gmm2d.h"      // IWYU pragma: export
#include "stats/histogram.h"  // IWYU pragma: export
#include "stats/kmeans.h"     // IWYU pragma: export
#include "stats/kneedle.h"    // IWYU pragma: export
#include "stats/lambert_w.h"  // IWYU pragma: export
#include "stats/otsu.h"       // IWYU pragma: export

#include "match/bipartite.h"  // IWYU pragma: export
#include "match/matcher.h"    // IWYU pragma: export

#include "lsh/signature.h"  // IWYU pragma: export

#include "core/candidates.h"       // IWYU pragma: export
#include "core/edge_spill.h"       // IWYU pragma: export
#include "core/history.h"          // IWYU pragma: export
#include "core/linkage_context.h"  // IWYU pragma: export
#include "core/pairing.h"          // IWYU pragma: export
#include "core/proximity.h"        // IWYU pragma: export
#include "core/score_kernel.h"     // IWYU pragma: export
#include "core/sctx.h"             // IWYU pragma: export
#include "core/sharded.h"          // IWYU pragma: export
#include "core/similarity.h"       // IWYU pragma: export
#include "core/slim.h"        // IWYU pragma: export
#include "core/threshold.h"   // IWYU pragma: export
#include "core/tuning.h"      // IWYU pragma: export

#include "baselines/gm.h"       // IWYU pragma: export
#include "baselines/st_link.h"  // IWYU pragma: export

#include "eval/links_io.h"    // IWYU pragma: export
#include "eval/metrics.h"     // IWYU pragma: export
#include "eval/report.h"      // IWYU pragma: export
#include "eval/robustness.h"  // IWYU pragma: export
#include "eval/runner.h"      // IWYU pragma: export
#include "eval/table.h"       // IWYU pragma: export

#endif  // SLIM_SLIM_H_
