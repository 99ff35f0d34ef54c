// The linkage flags slim_link and slim_serve share. Both tools read them
// through ParseLinkageFlags, so a daemon session and a from-scratch
// slim_link run agree byte for byte without extra flags (docs/SERVING.md).
#ifndef SLIM_TOOLS_LINKAGE_FLAGS_H_
#define SLIM_TOOLS_LINKAGE_FLAGS_H_

#include <string>

#include "core/slim.h"
#include "flags.h"

namespace slim::tools {

/// Reads --window_minutes, --spatial_level, --b_param, --max_speed_kmh,
/// --candidates, --lsh_level, --lsh_step, --lsh_threshold, --lsh_buckets,
/// --threshold (gmm|otsu|two_means|none), --matcher and --threads into a
/// SlimConfig; every other field keeps its default. With none of these
/// flags given, the result equals SlimConfig{}. A malformed value, or an
/// integer its field's type cannot hold, exits through Flags::Fail; the
/// caller checks the finished config with ValidateSlimConfig.
inline SlimConfig ParseLinkageFlags(const Flags& flags) {
  SlimConfig config;
  config.history.window_seconds = flags.GetInt("window_minutes", 15) * 60;
  config.history.spatial_level = flags.GetIntAs<int>("spatial_level", 12);
  config.similarity.b = flags.GetDouble("b_param", 0.5);
  config.similarity.proximity.max_speed_mps =
      flags.GetDouble("max_speed_kmh", 120.0) / 3.6;
  const std::string candidates = flags.GetString("candidates", "");
  auto kind = ParseCandidateKind(candidates.empty() ? "lsh" : candidates);
  if (!kind.ok()) Flags::Fail(kind.status().ToString());
  config.candidates = *kind;
  config.lsh.signature_spatial_level = flags.GetIntAs<int>("lsh_level", 10);
  config.lsh.temporal_step_windows = flags.GetIntAs<int>("lsh_step", 8);
  config.lsh.similarity_threshold = flags.GetDouble("lsh_threshold", 0.5);
  config.lsh.num_buckets = flags.GetIntAs<size_t>("lsh_buckets", 4096);
  const std::string threshold = flags.GetString("threshold", "gmm");
  if (threshold == "gmm") {
    config.threshold_method = ThresholdMethod::kGmmExpectedF1;
  } else if (threshold == "otsu") {
    config.threshold_method = ThresholdMethod::kOtsu;
  } else if (threshold == "two_means") {
    config.threshold_method = ThresholdMethod::kTwoMeans;
  } else if (threshold == "none") {
    config.apply_stop_threshold = false;
  } else {
    Flags::Fail("unknown --threshold: " + threshold);
  }
  const std::string matcher = flags.GetString("matcher", "greedy");
  if (matcher == "hungarian") {
    config.matcher = MatcherKind::kHungarian;
  } else if (matcher != "greedy") {
    Flags::Fail("unknown --matcher: " + matcher);
  }
  config.threads = flags.GetIntAs<int>("threads", 0);
  return config;
}

}  // namespace slim::tools

#endif  // SLIM_TOOLS_LINKAGE_FLAGS_H_
