// slim_generate: produce synthetic mobility workloads and (optionally) the
// two-sided linkage experiment files with ground truth.
//
//   # one master dataset
//   slim_generate --workload cab --out master.csv [--entities N] [--days D]
//
//   # a full linkage experiment: A side, B side, and the truth mapping
//   slim_generate --workload sm --experiment --out_prefix exp_
//                 [--entities N] [--days D] [--intersection R]
//                 [--inclusion P] [--seed S]
#include <cstdio>
#include <fstream>

#include "common/build_info.h"
#include "flags.h"
#include "slim.h"

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: slim_generate --workload cab|sm|commute --out master.csv "
      "[options]\n"
      "       slim_generate --workload cab|sm|commute --experiment "
      "--out_prefix PFX [options]\n"
      "       slim_generate --preset sm100k --out_prefix PFX [options]\n"
      "options:\n"
      "  --preset NAME      named scenario: sm100k is the 100k-entities-\n"
      "                     per-side SM experiment the sharded driver\n"
      "                     targets (slim_link --shards; docs/BENCHMARKS.md);\n"
      "                     sm1m is the 1M-per-side scale the mmap + external-\n"
      "                     matcher pipeline targets (slim_link --sctx\n"
      "                     --left_shards --no_graph)\n"
      "  --format KIND      output dataset format: auto|csv|sbin\n"
      "                     (auto picks sbin for *.sbin paths, else csv)\n"
      "  --entities N       entities in the master workload\n"
      "  --days D           collection duration\n"
      "  --seed S           RNG seed (default 42)\n"
      "  --intersection R   entity intersection ratio (default 0.5)\n"
      "  --inclusion P      record inclusion probability (default 0.5)\n"
      "  --side_entities N  entities per experiment side (default: auto)\n"
      "  --version          print the build/version string and exit\n");
}

// Preset-dependent defaults; every explicit flag still wins.
struct GenerateDefaults {
  const char* workload = "";
  long long entities_cab = 100;
  long long entities_sm = 2000;
  long long entities_commute = 400;
  long long side_entities = 0;
  bool experiment = false;
};

slim::LocationDataset Generate(const slim::tools::Flags& flags,
                               const std::string& workload,
                               const GenerateDefaults& defaults) {
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  if (workload == "cab") {
    slim::CabGeneratorOptions opt;
    opt.num_taxis =
        static_cast<int>(flags.GetInt("entities", defaults.entities_cab));
    opt.duration_days = flags.GetDouble("days", 6.0);
    opt.seed = seed;
    return slim::GenerateCabDataset(opt);
  }
  if (workload == "sm") {
    slim::CheckinGeneratorOptions opt;
    opt.num_users =
        static_cast<int>(flags.GetInt("entities", defaults.entities_sm));
    opt.duration_days = flags.GetDouble("days", 26.0);
    opt.seed = seed;
    return slim::GenerateCheckinDataset(opt);
  }
  if (workload == "commute") {
    slim::CommuteGeneratorOptions opt;
    opt.num_commuters =
        static_cast<int>(flags.GetInt("entities", defaults.entities_commute));
    opt.duration_days = flags.GetDouble("days", 14.0);
    opt.seed = seed;
    return slim::GenerateCommuteDataset(opt);
  }
  slim::tools::Flags::Fail("unknown --workload: " + workload +
                           " (expected cab|sm|commute)");
}

}  // namespace

int main(int argc, char** argv) {
  slim::tools::Flags flags(argc, argv);
  if (flags.GetBool("version", false)) {
    std::printf("%s\n", slim::BuildVersionString());
    return 0;
  }
  GenerateDefaults defaults;
  const std::string preset = flags.GetString("preset", "");
  if (preset == "sm100k") {
    // The sharded-linkage scenario: a 200k-user SM master sampled into two
    // 100k-entity sides — the scale bench_scale records in
    // BENCH_scale.json. Master generation is the slow part (~minutes);
    // prefer --format sbin for fast reload into slim_link.
    defaults.workload = "sm";
    defaults.entities_sm = 200000;
    defaults.side_entities = 100000;
    defaults.experiment = true;
  } else if (preset == "sm1m") {
    // The 1M-entities-per-side scenario: a 2M-user SM master sampled into
    // two 1M-entity sides — the scale the mmap-backed context + external
    // matcher target (docs/BENCHMARKS.md, "Scaling to 1M entities per
    // side"). Use --format sbin: the CSV forms are tens of GB slower to
    // parse than the whole linkage run.
    defaults.workload = "sm";
    defaults.entities_sm = 2000000;
    defaults.side_entities = 1000000;
    defaults.experiment = true;
  } else if (!preset.empty()) {
    slim::tools::Flags::Fail("unknown --preset: " + preset +
                             " (expected sm100k|sm1m)");
  }
  const std::string workload =
      flags.GetString("workload", defaults.workload);
  if (workload.empty()) {
    Usage();
    return 2;
  }
  auto format = slim::ParseDatasetFormat(flags.GetString("format", "auto"));
  if (!format.ok()) slim::tools::Flags::Fail(format.status().ToString());

  const slim::LocationDataset master = Generate(flags, workload, defaults);
  std::fprintf(stderr, "generated %zu entities / %zu records\n",
               master.num_entities(), master.num_records());

  if (!flags.GetBool("experiment", defaults.experiment)) {
    const std::string out = flags.GetString("out", "");
    if (out.empty()) {
      Usage();
      return 2;
    }
    const slim::Status st = slim::WriteDataset(master, out, *format);
    if (!st.ok()) slim::tools::Flags::Fail(st.ToString());
    std::fprintf(stderr, "wrote %s\n", out.c_str());
    return 0;
  }

  // Two-sided experiment with ground truth.
  const std::string prefix = flags.GetString("out_prefix", "");
  if (prefix.empty()) {
    Usage();
    return 2;
  }
  slim::PairSampleOptions opt;
  opt.entities_per_side = static_cast<size_t>(
      flags.GetInt("side_entities", defaults.side_entities));
  opt.intersection_ratio = flags.GetDouble("intersection", 0.5);
  opt.inclusion_probability = flags.GetDouble("inclusion", 0.5);
  opt.seed = static_cast<uint64_t>(flags.GetInt("seed", 42)) + 1;
  auto sample = slim::SampleLinkedPair(master, opt);
  if (!sample.ok()) slim::tools::Flags::Fail(sample.status().ToString());

  // Side files carry the extension of the chosen format; slim_link's
  // default --format=auto detects either.
  const char* side_ext =
      *format == slim::DatasetFormat::kSbin ? ".sbin" : ".csv";
  const std::string path_a = prefix + "a" + side_ext;
  const std::string path_b = prefix + "b" + side_ext;
  const slim::Status sa = slim::WriteDataset(sample->a, path_a, *format);
  if (!sa.ok()) slim::tools::Flags::Fail(sa.ToString());
  const slim::Status sb = slim::WriteDataset(sample->b, path_b, *format);
  if (!sb.ok()) slim::tools::Flags::Fail(sb.ToString());

  // Ground truth in the links-CSV format (score 1.0).
  std::vector<slim::LinkedEntityPair> truth;
  for (const auto& [ua, ub] : sample->truth.a_to_b) {
    truth.push_back({ua, ub, 1.0});
  }
  const slim::Status st = slim::WriteLinksCsv(truth, prefix + "truth.csv");
  if (!st.ok()) slim::tools::Flags::Fail(st.ToString());

  std::fprintf(stderr,
               "wrote %s (%zu entities), %s (%zu entities), "
               "%struth.csv (%zu pairs)\n",
               path_a.c_str(), sample->a.num_entities(), path_b.c_str(),
               sample->b.num_entities(), prefix.c_str(),
               sample->truth.size());
  return 0;
}
