// Shared harness for the figure-reproduction benches: bench-scale
// configuration (env SLIM_BENCH_SCALE=small|full) and cached master
// datasets.
#ifndef SLIM_EVAL_RUNNER_H_
#define SLIM_EVAL_RUNNER_H_

#include <string>

#include "data/cab_generator.h"
#include "data/checkin_generator.h"
#include "data/commute_generator.h"

namespace slim {

/// Bench workload scale.
enum class BenchScale {
  kSmall,  // finishes the full harness on a laptop-class machine (default)
  kFull,   // paper-scale entity counts (hours of runtime)
};

/// Reads SLIM_BENCH_SCALE from the environment ("small"/"full"),
/// defaulting to small.
BenchScale BenchScaleFromEnv();

/// Generator options matching the chosen scale for the three workloads
/// (docs/DATASETS.md describes what each generator mirrors).
CabGeneratorOptions CabOptionsForScale(BenchScale scale);
CheckinGeneratorOptions CheckinOptionsForScale(BenchScale scale);
CommuteGeneratorOptions CommuteOptionsForScale(BenchScale scale);

/// Master datasets, generated once per process and cached.
const LocationDataset& CachedCabMaster(BenchScale scale);
const LocationDataset& CachedCheckinMaster(BenchScale scale);
const LocationDataset& CachedCommuteMaster(BenchScale scale);

/// Convenience: "0.9876" style fixed formatting for bench tables.
std::string Fmt(double v, int decimals = 4);

}  // namespace slim

#endif  // SLIM_EVAL_RUNNER_H_
