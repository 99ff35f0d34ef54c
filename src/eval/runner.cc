#include "eval/runner.h"

#include <cstdlib>
#include <string_view>

#include "common/strings.h"

namespace slim {

BenchScale BenchScaleFromEnv() {
  const char* env = std::getenv("SLIM_BENCH_SCALE");
  if (env != nullptr && std::string_view(env) == "full") {
    return BenchScale::kFull;
  }
  return BenchScale::kSmall;
}

CabGeneratorOptions CabOptionsForScale(BenchScale scale) {
  CabGeneratorOptions opt;
  if (scale == BenchScale::kFull) {
    // Paper scale: 530 taxis over 24 days, ~11M records.
    opt.num_taxis = 530;
    opt.duration_days = 24.0;
    opt.record_interval_seconds = 100.0;
  } else {
    // Same shape, laptop scale: dense traces, few entities.
    opt.num_taxis = 120;
    opt.duration_days = 3.0;
    opt.record_interval_seconds = 300.0;
  }
  return opt;
}

CheckinGeneratorOptions CheckinOptionsForScale(BenchScale scale) {
  CheckinGeneratorOptions opt;
  if (scale == BenchScale::kFull) {
    // Paper scale: enough users that each side samples ~30k entities.
    opt.num_cities = 120;
    opt.num_users = 90000;
  } else {
    opt.num_cities = 30;
    opt.num_users = 2400;
  }
  return opt;
}

CommuteGeneratorOptions CommuteOptionsForScale(BenchScale scale) {
  CommuteGeneratorOptions opt;
  if (scale == BenchScale::kFull) {
    // Metro scale: a few thousand commuters over four weekly cycles.
    opt.num_commuters = 2000;
    opt.duration_days = 28.0;
  } else {
    opt.num_commuters = 200;
    opt.duration_days = 7.0;
  }
  return opt;
}

const LocationDataset& CachedCabMaster(BenchScale scale) {
  static const LocationDataset small =
      GenerateCabDataset(CabOptionsForScale(BenchScale::kSmall));
  if (scale == BenchScale::kSmall) return small;
  static const LocationDataset full =
      GenerateCabDataset(CabOptionsForScale(BenchScale::kFull));
  return full;
}

const LocationDataset& CachedCheckinMaster(BenchScale scale) {
  static const LocationDataset small =
      GenerateCheckinDataset(CheckinOptionsForScale(BenchScale::kSmall));
  if (scale == BenchScale::kSmall) return small;
  static const LocationDataset full =
      GenerateCheckinDataset(CheckinOptionsForScale(BenchScale::kFull));
  return full;
}

const LocationDataset& CachedCommuteMaster(BenchScale scale) {
  static const LocationDataset small =
      GenerateCommuteDataset(CommuteOptionsForScale(BenchScale::kSmall));
  if (scale == BenchScale::kSmall) return small;
  static const LocationDataset full =
      GenerateCommuteDataset(CommuteOptionsForScale(BenchScale::kFull));
  return full;
}

std::string Fmt(double v, int decimals) {
  return StrFormat("%.*f", decimals, v);
}

}  // namespace slim
