// The parent side of one run: repeated set-up, the measured child, the
// untimed correctness checks, and the printed result.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "common/build_info.h"
#include "eval/metrics.h"
#include "serve/protocol.h"

namespace slimbench {
namespace {

// Links below this F1 against the sampler's ground truth are wrong links,
// whatever their hash: every workload links far above it.
constexpr double kMinF1 = 0.8;
// The traced run must account for at least 90% of its wall time.
constexpr double kMaxUntracedShare = 0.10;

// The batch link of every record the serve session ingested.
slim::Result<slim::LinkageResult> LinkIngestedUnion(
    const Options& options, const slim::SlimLinker& linker) {
  std::vector<slim::Record> side[2];
  std::ifstream in(WorkFile(options, "session.txt"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("INGEST", 0) != 0) continue;
    auto cmd = slim::ParseServeCommand(line);
    if (!cmd.ok()) return cmd.status();
    auto& out = side[cmd->side == slim::LinkageSide::kE ? 0 : 1];
    out.insert(out.end(), cmd->records.begin(), cmd->records.end());
  }
  return linker.Link(
      slim::LocationDataset::FromRecords("A", std::move(side[0])),
      slim::LocationDataset::FromRecords("B", std::move(side[1])));
}

// The links a workload's own links must equal: the monolithic driver over
// the same pair (out-of-core) or over the ingested union (serve).
slim::LinkageResult ReferenceLink(const Options& options,
                                  const slim::LinkedPairSample& sample) {
  slim::SlimConfig config;
  config.threads = kThreads;
  const slim::SlimLinker linker(config);
  auto result = options.workload == Workload::kCheckinOutOfCore
                    ? linker.Link(sample.a, sample.b)
                    : LinkIngestedUnion(options, linker);
  if (!result.ok()) throw std::runtime_error(result.status().ToString());
  return std::move(result.value());
}

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

int RunParent(const Options& options) {
  // Set-up, repeated: the same seed must give the same inputs every time.
  const int setup_reps = options.tiny ? 2 : 3;
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> setup_layer;
  SetupResult setup;
  bool setup_stable = true;
  for (int r = 0; r < setup_reps; ++r) {
    const double t0 = NowSeconds();
    SetupResult current = RunSetup(options);
    setup_s.push_back(NowSeconds() - t0);
    for (const auto& [name, value] : current.layer) {
      setup_layer[name].push_back(value);
    }
    if (r > 0 && !(current.fingerprint == setup.fingerprint)) {
      setup_stable = false;
    }
    setup = std::move(current);
  }

  const uint64_t peak_rss = RunChild(options);
  const Report child = Report::Read(WorkFile(options, "child.txt"));
  const std::string hash = child.GetText("hash");

  // Untimed correctness checks; each failed check is a failed operation.
  int attempted = static_cast<int>(child.Get("attempted"));
  int failed = static_cast<int>(child.Get("failed"));
  auto check = [&](bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what);
    }
  };
  check(setup_stable, "set-up repetitions produced different inputs");
  const slim::LinkageQuality quality = slim::EvaluateLinks(
      ReadLinks(WorkFile(options, "links.bin")), setup.sample.truth);
  check(quality.f1 >= kMinF1, "links F1 below the floor");
  double candidate_pairs = child.Get("candidate_pairs");
  if (options.workload == Workload::kCheckinOutOfCore ||
      options.workload == Workload::kCheckinServe) {
    const slim::LinkageResult reference = ReferenceLink(options, setup.sample);
    check(std::to_string(HashLinks(reference.links)) == hash,
          "links differ from the monolithic driver's over the same records");
    if (options.workload == Workload::kCheckinServe) {
      candidate_pairs = static_cast<double>(reference.candidate_pairs);
    }
  }
  if (options.trace) {
    check(child.GetText("traced_hash") == hash &&
              child.Get("traced_mismatches") == 0,
          "traced links differ from the untraced run's");
    check(child.Get("layer.trace.untraced_share") <= kMaxUntracedShare,
          "the layer spans miss more than 10% of the traced wall time");
  }
  const bool correct = failed == 0;

  // End-to-end metrics untraced, per-layer metrics traced.
  std::vector<std::pair<MetricSpec, double>> metrics;
  if (!options.trace) {
    metrics = {
        {{"link_s", "s"}, child.Get("link_s")},
        {{"session_s", "s"}, child.Get("session_s")},
        {{"peak_rss_mb", "MB"}, static_cast<double>(peak_rss) / (1 << 20)},
        {{"setup_s", "s"}, Median(setup_s)},
        {{"precision", "ratio"}, quality.precision},
        {{"recall", "ratio"}, quality.recall},
        {{"f1", "ratio"}, quality.f1},
        {{"success_ratio", "ratio"},
         static_cast<double>(attempted - failed) / attempted},
    };
  } else {
    for (const MetricSpec& spec : LayerMetrics()) {
      const std::string key = std::string("layer.") + spec.name;
      double value = 0.0;
      if (child.Has(key)) {
        value = child.Get(key);
      } else if (setup_layer.count(spec.name) > 0) {
        value = Median(setup_layer[spec.name]);
      }
      metrics.push_back({spec, value});
    }
  }
  for (const auto& [spec, value] : metrics) {
    std::fprintf(stderr, "  %-40s %14.6g %s\n", spec.name, value, spec.unit);
  }

  const Fingerprint& fp = setup.fingerprint;
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"scale\": "
      "\"%s\", \"trace\": %d, \"nproc\": %u, \"threads\": %d, \"kernel\": "
      "\"%s\", \"build\": \"%s\", \"links_hash\": \"%s\", \"fingerprint\": "
      "{\"entities_a\": %llu, \"entities_b\": %llu, \"records_a\": %llu, "
      "\"records_b\": %llu, \"possible_pairs\": %llu, \"candidate_pairs\": "
      "%s}, \"samples\": {\"setup\": %zu, \"reps\": %s, \"link\": %s, "
      "\"topk\": %s, \"traced_reps\": %s}}}\n",
      WorkloadName(options.workload),
      static_cast<unsigned long long>(options.seed),
      options.tiny ? "tiny" : "full", options.trace ? 1 : 0,
      std::thread::hardware_concurrency(), kThreads,
      child.GetText("kernel").c_str(), slim::BuildGitDescribe(), hash.c_str(),
      static_cast<unsigned long long>(fp.entities_a),
      static_cast<unsigned long long>(fp.entities_b),
      static_cast<unsigned long long>(fp.records_a),
      static_cast<unsigned long long>(fp.records_b),
      static_cast<unsigned long long>(fp.possible_pairs()),
      Number(candidate_pairs).c_str(), setup_s.size(),
      Number(child.Get("reps")).c_str(),
      Number(child.Get("link_samples")).c_str(),
      Number(child.Get("topk_samples")).c_str(),
      Number(child.Has("traced_reps") ? child.Get("traced_reps") : 0).c_str());

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t k = 0; k < metrics.size(); ++k) {
    json += (k == 0 ? "\"" : ", \"") + std::string(metrics[k].first.name) +
            "\": {\"value\": " + Number(metrics[k].second) +
            ", \"unit\": \"" + metrics[k].first.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace slimbench
