// Sharded-driver scaling bench — peak RSS vs shard count, and the memory
// methodology behind SlimConfig::shard_memory_budget_bytes.
//
// Peak process RSS is a monotone high-water mark (common/resource.h), so
// runs sharing one process mask each other. This bench therefore re-execs
// itself: every measured configuration runs in a fresh child process that
// loads the datasets from SBIN, links once, and reports its stage seconds
// and RSS peaks as a run-shaped JSON the parent reads back with the
// bench_util v3 parser. The parent:
//
//   1. generates the SM-style workload at the target scale (100k entities
//      per side by default; --quick is CI-sized) and two smaller probe
//      scales, writing each side to SBIN in a temp directory;
//   2. runs the MONOLITHIC driver on the probe scales and fits a power law
//      to their candidate+scoring footprint (rss_scoring - rss_histories)
//      to extrapolate the monolithic footprint at the target scale —
//      extrapolated, because the point of sharding is that the monolithic
//      block at full scale is the thing we refuse to materialise;
//   3. runs the SHARDED driver at the target scale across shard counts,
//      checks every run produced identical links (hash + count), and
//      writes BENCH_sharded.json (schema slim-bench-sharded-v3).
//
// Gates: determinism always; in full (non-quick) mode the best sharded
// footprint must undercut the extrapolated monolithic footprint by at
// least 2x (kRssReductionGate), the scalability claim ISSUE/BENCHMARKS
// record. See docs/BENCHMARKS.md, "Sharded linkage and the memory budget".
//
// Flags: --quick, --out FILE (default BENCH_sharded.json), --entities N,
// --probes a,b, --shards a,b,..., --threads N. Internal: --child ... (one
// measured run; not for direct use).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/build_info.h"
#include "eval/table.h"

namespace slim {
namespace {

constexpr double kRssReductionGate = 2.0;

const char* const kStageNames[] = {"histories", "lsh", "scoring", "matching",
                                   "total"};

double StageOf(const LinkageResult& r, const std::string& stage) {
  if (stage == "histories") return r.seconds_histories;
  if (stage == "lsh") return r.seconds_lsh;
  if (stage == "scoring") return r.seconds_scoring;
  if (stage == "matching") return r.seconds_matching;
  return r.seconds_total;
}

uint64_t RssOf(const LinkageResult& r, const std::string& stage) {
  if (stage == "histories") return r.rss_peak_histories;
  if (stage == "lsh") return r.rss_peak_lsh;
  if (stage == "scoring") return r.rss_peak_scoring;
  if (stage == "matching") return r.rss_peak_matching;
  return r.rss_peak_total;
}

// FNV-1a over the canonical link lines: equal hashes across processes mean
// equal links at 17-decimal (bit-level) precision.
uint64_t HashLinks(const std::vector<LinkedEntityPair>& links) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
  };
  for (const auto& link : links) {
    mix(std::to_string(link.u) + "," + std::to_string(link.v) + "," +
        FormatFixed(link.score, 17) + "\n");
  }
  return h;
}

std::vector<size_t> ParseSizeList(const std::string& csv) {
  std::vector<size_t> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const long v = std::strtol(item.c_str(), nullptr, 10);
    SLIM_CHECK_MSG(v > 0, "list entries must be positive integers");
    out.push_back(static_cast<size_t>(v));
  }
  SLIM_CHECK_MSG(!out.empty(), "empty list flag");
  return out;
}

// The candidate+scoring footprint of a run: RSS growth between the end of
// the context build and the end of scoring. The context (and the loaded
// datasets under it) is common to the monolithic and sharded paths; this
// delta is the part sharding bounds.
uint64_t BlockBytes(const bench::PipelineRunRecord& run) {
  double histories = 0.0, scoring = 0.0;
  for (const auto& [name, v] : run.peak_rss_bytes) {
    if (name == "histories") histories = v;
    if (name == "scoring") scoring = v;
  }
  const double delta = scoring - histories;
  return delta > 1.0 ? static_cast<uint64_t>(delta) : 1;
}

// Scans `json` for `"key": <unsigned integer>` and returns the exact
// value; 0 when absent. Full 64-bit precision (strtoull, not a double
// round-trip) — the links_hash comparison below is a bit-identity gate.
uint64_t FindUint(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  size_t pos = json.find(needle);
  if (pos == std::string::npos) return 0;
  pos += needle.size();
  while (pos < json.size() &&
         (std::isspace(static_cast<unsigned char>(json[pos])) != 0 ||
          json[pos] == ':')) {
    ++pos;
  }
  return pos < json.size() ? std::strtoull(json.c_str() + pos, nullptr, 10)
                           : 0;
}

// ---- Child mode: one measured linkage in a fresh process. ----

int ChildMain(const std::string& path_a, const std::string& path_b,
              int threads, int shards, const std::string& out_json) {
  auto a = ReadDataset(path_a, "A");
  SLIM_CHECK_MSG(a.ok(), a.status().ToString().c_str());
  auto b = ReadDataset(path_b, "B");
  SLIM_CHECK_MSG(b.ok(), b.status().ToString().c_str());

  SlimConfig config;  // stock pipeline defaults, LSH on
  config.threads = threads;
  config.shards = shards;
  // shards == 0 measures the default one-block plan; >= 1 a K-shard one.
  auto result = SlimLinker(config).Link(*a, *b);
  SLIM_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  const LinkageResult& r = *result;

  bench::JsonWriter json;
  json.BeginObject();
  json.Key("entities").Value(static_cast<uint64_t>(a->num_entities()));
  json.Key("threads")
      .Value(threads > 0 ? threads : DefaultThreadCount());
  json.Key("shards").Value(shards > 0 ? r.shards_used : 0);
  json.Key("links").Value(static_cast<uint64_t>(r.links.size()));
  json.Key("links_hash").Value(HashLinks(r.links));
  json.Key("candidate_pairs").Value(r.candidate_pairs);
  json.Key("spilled_edges").Value(r.spilled_edges);
  json.Key("spill_on_disk").Value(r.spill_on_disk);
  json.Key("seconds").BeginObject();
  for (const char* stage : kStageNames) {
    json.Key(stage).Value(StageOf(r, stage));
  }
  json.EndObject();
  json.Key("peak_rss_bytes").BeginObject();
  for (const char* stage : kStageNames) {
    json.Key(stage).Value(RssOf(r, stage));
  }
  json.EndObject();
  json.EndObject();

  std::ofstream out(out_json);
  SLIM_CHECK_MSG(out.good(), "cannot write child record");
  out << json.str();
  return 0;
}

// ---- Parent mode. ----

struct MeasuredRun {
  bench::PipelineRunRecord record;
  uint64_t links = 0;
  uint64_t links_hash = 0;
  uint64_t candidate_pairs = 0;
  uint64_t spilled_edges = 0;
  bool spill_on_disk = false;
  uint64_t block_bytes = 0;
};

// Runs one child configuration and reads its record back. `self` is this
// binary (argv[0]); children inherit stdout/stderr.
MeasuredRun RunChild(const std::string& self, const std::string& path_a,
                     const std::string& path_b, int threads, int shards,
                     const std::filesystem::path& tmp_dir, int ordinal) {
  const std::filesystem::path out =
      tmp_dir / ("child_" + std::to_string(ordinal) + ".json");
  const std::string cmd = "\"" + self + "\" --child --a \"" + path_a +
                          "\" --b \"" + path_b + "\" --threads " +
                          std::to_string(threads) + " --shards " +
                          std::to_string(shards) + " --out \"" +
                          out.string() + "\"";
  const int rc = std::system(cmd.c_str());
  SLIM_CHECK_MSG(rc == 0, "child run failed");

  std::ifstream in(out);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string doc = buffer.str();
  const std::vector<bench::PipelineRunRecord> parsed =
      bench::ParsePipelineRuns(doc);
  SLIM_CHECK_MSG(parsed.size() == 1, "child record did not parse");

  MeasuredRun run;
  run.record = parsed.front();
  run.links = FindUint(doc, "links");
  run.links_hash = FindUint(doc, "links_hash");
  run.candidate_pairs = FindUint(doc, "candidate_pairs");
  run.spilled_edges = FindUint(doc, "spilled_edges");
  run.spill_on_disk = doc.find("\"spill_on_disk\": true") != std::string::npos;
  run.block_bytes = BlockBytes(run.record);
  return run;
}

void EmitRun(bench::JsonWriter* json, const MeasuredRun& run) {
  json->BeginObject();
  json->Key("entities").Value(run.record.entities);
  json->Key("threads").Value(run.record.threads);
  json->Key("shards").Value(run.record.shards);
  json->Key("links").Value(run.links);
  json->Key("links_hash").Value(run.links_hash);
  json->Key("candidate_pairs").Value(run.candidate_pairs);
  json->Key("spilled_edges").Value(run.spilled_edges);
  json->Key("spill_on_disk").Value(run.spill_on_disk);
  json->Key("block_bytes").Value(run.block_bytes);
  json->Key("seconds").BeginObject();
  for (const auto& [name, v] : run.record.seconds) {
    json->Key(name).Value(v);
  }
  json->EndObject();
  json->Key("peak_rss_bytes").BeginObject();
  for (const auto& [name, v] : run.record.peak_rss_bytes) {
    json->Key(name).Value(static_cast<uint64_t>(v));
  }
  json->EndObject();
  json->EndObject();
}

// Writes the two sides of one sampled scale as SBIN and returns their
// paths.
std::pair<std::string, std::string> WriteSides(
    const LocationDataset& master, size_t entities, uint64_t seed,
    const std::filesystem::path& tmp_dir, const char* tag) {
  PairSampleOptions sampling;
  sampling.entities_per_side = entities;
  sampling.intersection_ratio = 0.5;
  sampling.inclusion_probability = 0.5;
  sampling.seed = seed;
  auto sample = SampleLinkedPair(master, sampling);
  SLIM_CHECK_MSG(sample.ok(), sample.status().ToString().c_str());
  const std::string a =
      (tmp_dir / (std::string(tag) + "_a.sbin")).string();
  const std::string b =
      (tmp_dir / (std::string(tag) + "_b.sbin")).string();
  SLIM_CHECK(WriteDataset(sample->a, a, DatasetFormat::kSbin).ok());
  SLIM_CHECK(WriteDataset(sample->b, b, DatasetFormat::kSbin).ok());
  return {a, b};
}

int Main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_sharded.json";
  std::string entities_flag, probes_flag, shards_flag;
  int threads = 0;
  // Child-mode flags.
  bool child = false;
  std::string child_a, child_b, child_out;
  int child_shards = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      SLIM_CHECK_MSG(i + 1 < argc, "flag needs a value");
      return argv[++i];
    };
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--child") {
      child = true;
    } else if (arg == "--a" || arg.rfind("--a=", 0) == 0) {
      child_a = value("--a");
    } else if (arg == "--b" || arg.rfind("--b=", 0) == 0) {
      child_b = value("--b");
    } else if (arg == "--out" || arg.rfind("--out=", 0) == 0) {
      out_path = child_out = value("--out");
    } else if (arg == "--entities" || arg.rfind("--entities=", 0) == 0) {
      entities_flag = value("--entities");
    } else if (arg == "--probes" || arg.rfind("--probes=", 0) == 0) {
      probes_flag = value("--probes");
    } else if (arg == "--shards" || arg.rfind("--shards=", 0) == 0) {
      shards_flag = value("--shards");
      child_shards = static_cast<int>(std::strtol(
          shards_flag.c_str(), nullptr, 10));
    } else if (arg == "--threads" || arg.rfind("--threads=", 0) == 0) {
      threads = static_cast<int>(std::strtol(value("--threads").c_str(),
                                             nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: bench_sharded [--quick] [--out FILE] "
                   "[--entities N] [--probes a,b] [--shards a,b,...] "
                   "[--threads N]\n");
      return 2;
    }
  }
  if (child) return ChildMain(child_a, child_b, threads, child_shards,
                              child_out);

  // Full mode targets the 100k-per-side scenario (slim_generate --preset
  // sm100k); quick mode is CI-sized. Shard counts run most-sharded first —
  // informative, and each child is a fresh process anyway.
  size_t target = quick ? 2000 : 100000;
  std::vector<size_t> probes =
      quick ? std::vector<size_t>{500, 1000}
            : std::vector<size_t>{12500, 25000};
  std::vector<size_t> shard_counts =
      quick ? std::vector<size_t>{7, 2, 1} : std::vector<size_t>{16, 8, 4};
  if (!entities_flag.empty()) target = ParseSizeList(entities_flag).front();
  if (!probes_flag.empty()) probes = ParseSizeList(probes_flag);
  if (!shards_flag.empty()) shard_counts = ParseSizeList(shards_flag);

  std::printf("==================================================\n");
  std::printf("sharded linkage bench — peak RSS vs shard count\n");
  std::printf("workload: SM-style check-ins; target %zu entities/side; "
              "probes:", target);
  for (size_t p : probes) std::printf(" %zu", p);
  std::printf("; shard counts:");
  for (size_t s : shard_counts) std::printf(" %zu", s);
  std::printf("\nhardware threads: %u%s; every run is a fresh process "
              "(RSS peaks are per-configuration)\n",
              std::thread::hardware_concurrency(), quick ? " (quick)" : "");
  std::printf("==================================================\n");

  std::error_code ec;
  const std::filesystem::path tmp_dir =
      std::filesystem::temp_directory_path() /
      ("slim_bench_sharded_" + std::to_string(
                                   static_cast<long>(::getpid())));
  std::filesystem::create_directories(tmp_dir, ec);
  SLIM_CHECK_MSG(!ec, "cannot create bench temp dir");

  // One master, every scale sampled from it (the probe workload must be
  // the target workload, only smaller).
  CheckinGeneratorOptions gen;
  gen.num_users = static_cast<int>(target * 2);
  gen.seed = 1301;
  std::printf("generating %d-user master...\n", gen.num_users);
  const LocationDataset master = GenerateCheckinDataset(gen);
  std::printf("master: %zu entities / %zu records\n", master.num_entities(),
              master.num_records());

  const std::string self = argv[0];
  int ordinal = 0;
  TablePrinter table({"run", "entities", "shards", "lsh_s", "scoring_s",
                      "total_s", "block_mb", "peak_mb", "links"});
  auto add_row = [&](const char* kind, const MeasuredRun& run) {
    double peak = 0.0;
    for (const auto& [name, v] : run.record.peak_rss_bytes) {
      if (name == "total") peak = v;
    }
    table.AddRow({kind, std::to_string(run.record.entities),
                  std::to_string(run.record.shards),
                  Fmt(run.record.StageSeconds("lsh"), 3),
                  Fmt(run.record.StageSeconds("scoring"), 3),
                  Fmt(run.record.StageSeconds("total"), 3),
                  Fmt(static_cast<double>(run.block_bytes) / (1 << 20), 1),
                  Fmt(peak / (1 << 20), 1), std::to_string(run.links)});
  };

  // 1. Monolithic probes.
  std::vector<MeasuredRun> probe_runs;
  for (const size_t p : probes) {
    const auto [a, b] =
        WriteSides(master, p, 1302, tmp_dir, ("probe" + std::to_string(p))
                                                 .c_str());
    std::printf("probe: monolithic at %zu entities/side...\n", p);
    probe_runs.push_back(RunChild(self, a, b, threads, 0, tmp_dir,
                                  ordinal++));
    add_row("mono", probe_runs.back());
  }

  // 2. Power-law extrapolation of the monolithic block footprint to the
  //    target scale: block(n) = a * n^e fitted through the two largest
  //    probes, exponent clamped to [1, 3] (the footprint cannot grow
  //    sublinearly in the right store, and nothing in the pipeline is
  //    worse than the quadratic cross product).
  SLIM_CHECK_MSG(probe_runs.size() >= 2, "need at least two probes");
  const MeasuredRun& p1 = probe_runs[probe_runs.size() - 2];
  const MeasuredRun& p2 = probe_runs.back();
  double exponent = 1.0;
  if (p1.block_bytes > 0 && p2.block_bytes > p1.block_bytes &&
      p2.record.entities > p1.record.entities) {
    exponent = std::log(static_cast<double>(p2.block_bytes) /
                        static_cast<double>(p1.block_bytes)) /
               std::log(static_cast<double>(p2.record.entities) /
                        static_cast<double>(p1.record.entities));
  }
  exponent = std::min(3.0, std::max(1.0, exponent));
  const double extrapolated_block =
      static_cast<double>(p2.block_bytes) *
      std::pow(static_cast<double>(target) /
                   static_cast<double>(p2.record.entities),
               exponent);
  std::printf("extrapolated monolithic block at %zu entities: %.1f MB "
              "(exponent %.2f)\n",
              target, extrapolated_block / (1 << 20), exponent);

  // 3. Sharded runs at the target scale (+ a monolithic reference run in
  //    quick mode, where the target is small enough to afford one).
  const auto [target_a, target_b] =
      WriteSides(master, target, 1302, tmp_dir, "target");
  std::vector<MeasuredRun> sharded_runs;
  for (const size_t k : shard_counts) {
    std::printf("sharded: K=%zu at %zu entities/side...\n", k, target);
    sharded_runs.push_back(RunChild(self, target_a, target_b, threads,
                                    static_cast<int>(k), tmp_dir,
                                    ordinal++));
    add_row("sharded", sharded_runs.back());
  }
  bool deterministic = true;
  for (const MeasuredRun& run : sharded_runs) {
    if (run.links_hash != sharded_runs.front().links_hash ||
        run.links != sharded_runs.front().links) {
      std::fprintf(stderr,
                   "DETERMINISM FAILURE: K=%d links differ from K=%d\n",
                   run.record.shards, sharded_runs.front().record.shards);
      deterministic = false;
    }
  }
  if (quick) {
    const MeasuredRun mono =
        RunChild(self, target_a, target_b, threads, 0, tmp_dir, ordinal++);
    add_row("mono", mono);
    if (mono.links_hash != sharded_runs.front().links_hash) {
      std::fprintf(stderr,
                   "DETERMINISM FAILURE: sharded links differ from the "
                   "monolithic driver\n");
      deterministic = false;
    }
  }
  table.Print();

  uint64_t best_block = sharded_runs.front().block_bytes;
  for (const MeasuredRun& run : sharded_runs) {
    best_block = std::min(best_block, run.block_bytes);
  }
  const double reduction =
      extrapolated_block / static_cast<double>(std::max<uint64_t>(
                               best_block, 1));
  std::printf("best sharded block: %.1f MB -> %.2fx below the "
              "extrapolated monolithic block\n",
              static_cast<double>(best_block) / (1 << 20), reduction);

  // 4. The machine-readable record.
  bench::JsonWriter json;
  json.BeginObject();
  json.Key("schema").Value("slim-bench-sharded-v3");
  json.Key("build").Value(slim::BuildGitDescribe());
  json.Key("workload").Value("checkin");
  json.Key("quick").Value(quick);
  json.Key("hardware_threads")
      .Value(static_cast<int>(std::thread::hardware_concurrency()));
  json.Key("target_entities").Value(static_cast<uint64_t>(target));
  json.Key("deterministic").Value(deterministic);
  json.Key("monolithic_probes").BeginArray();
  for (const MeasuredRun& run : probe_runs) EmitRun(&json, run);
  json.EndArray();
  json.Key("extrapolated_monolithic").BeginObject();
  json.Key("entities").Value(static_cast<uint64_t>(target));
  json.Key("exponent").Value(exponent);
  json.Key("block_bytes").Value(static_cast<uint64_t>(extrapolated_block));
  json.EndObject();
  json.Key("runs").BeginArray();
  for (const MeasuredRun& run : sharded_runs) EmitRun(&json, run);
  json.EndArray();
  json.Key("rss_reduction_vs_extrapolated").Value(reduction);
  json.EndObject();

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << json.str();
  out.close();
  std::printf("wrote %s (%zu sharded runs)\n", out_path.c_str(),
              sharded_runs.size());

  std::filesystem::remove_all(tmp_dir, ec);

  if (!deterministic) return 1;
  // The scalability gate: only meaningful at full scale, where the
  // extrapolation spans a real gap.
  if (!quick && reduction < kRssReductionGate) {
    std::fprintf(stderr,
                 "RSS GATE FAILURE: %.2fx < %.1fx required reduction vs "
                 "the extrapolated monolithic block\n",
                 reduction, kRssReductionGate);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace slim

int main(int argc, char** argv) { return slim::Main(argc, argv); }
