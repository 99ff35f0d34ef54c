// Scale bench — the memory half of SLIM's scalability claim, measured on
// the path a large run takes: an mmap-backed SCTX context, two-sided
// (L x K) sharding, and the streaming external matcher, under one stated
// memory budget.
//
// Peak process RSS is a monotone high-water mark (common/resource.h), so
// runs sharing one process mask each other. Every measured configuration
// therefore runs in a fresh child process of this binary and reports its
// stage seconds and RSS peaks as a run-shaped JSON the parent reads back
// (bench_util.h). The parent:
//   1. generates the SM-style workload (a 2x-target check-in master with
//      both sides sampled from it; sm1m-shaped, --quick is CI-sized) and
//      writes the sides as SBIN;
//   2. runs the MONOLITHIC in-heap driver (SlimLinker::Link) as probes at
//      target/8 and target/4 entities per side, sampled from the same
//      master, and fits a power law to their block footprint to
//      extrapolate the monolithic block at the target — extrapolated,
//      because at full scale that block is what sharding refuses to
//      materialise;
//   3. runs a builder child that interns the target sides once and
//      serializes the context to an SCTX file (core/sctx.h), outside every
//      measured run;
//   4. runs the plan matrix: each child maps the SCTX file and runs
//      LinkShardedContext with keep_graph = false, so its peak RSS is one
//      L x K block of candidates + scoring, the external sort's run
//      buffers and the matching — not the context build, not the edge
//      graph. Quick mode fixes the matrix to {1x1, 1x7, 2x4, 4x16} x
//      threads {1, 8}, with a run buffer small enough that the multi-block
//      plans spill to disk and k-way merge;
//   5. in quick mode, also runs the monolithic driver on the target sides.
//
// A run's block is peak_rss_bytes.scoring - peak_rss_bytes.histories: the
// RSS growth from the end of the context stage to the end of scoring, the
// part sharding bounds. Gates, each exiting 1:
//   * determinism: every plan x threads run has the same links hash, and
//     in quick mode so does the monolithic reference;
//   * memory budget: every plan run's peak RSS is under the budget (quick
//     2 GiB, full 12 GiB; docs/BENCHMARKS.md derives them);
//   * RSS reduction, full mode only (quick mode prints it): the best
//     plan's block, at the probes' thread count (the first of --threads),
//     is at least 2x below the extrapolated monolithic block.
// Writes BENCH_scale.json (schema slim-bench-scale-v2). Registered with
// ctest as bench_scale_quick.
//
// Flags: --quick, --out FILE (default BENCH_scale.json), --entities N,
// --threads a,b,..., --plans LxK,LxK,..., --budget_mb M,
// --spill_run_bytes B. Internal: --child_sctx / --child [--mono] ... (one
// builder / measured run; not for direct use).
#include <unistd.h>

#include <cmath>
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

// The stated peak-RSS budgets for a measured run (not the one-time
// context build, which the SCTX file exists to amortise away).
constexpr uint64_t kQuickBudgetBytes = uint64_t{2} << 30;
constexpr uint64_t kFullBudgetBytes = uint64_t{12} << 30;
// The scalability gate: the best plan's block must undercut the
// extrapolated monolithic block by this factor (full mode).
constexpr double kRssReductionGate = 2.0;

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

// "LxK,LxK,..." -> per-plan (left_shards, shards) pairs.
std::vector<std::pair<int, int>> ParsePlanList(const std::string& csv) {
  std::vector<std::pair<int, int>> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const size_t x = item.find('x');
    SLIM_CHECK_MSG(x != std::string::npos, "plans are LxK pairs");
    const long l = std::strtol(item.c_str(), nullptr, 10);
    const long k = std::strtol(item.c_str() + x + 1, nullptr, 10);
    SLIM_CHECK_MSG(l > 0 && k > 0, "plan sides must be positive");
    out.push_back({static_cast<int>(l), static_cast<int>(k)});
  }
  SLIM_CHECK_MSG(!out.empty(), "empty plan list");
  return out;
}

// Scans `json` for `"key": <unsigned integer>` with full 64-bit precision
// (the links_hash comparison is a bit-identity gate); 0 when absent.
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

void WriteRunRecord(const LinkageResult& r, uint64_t entities, int threads,
                    const std::string& out_json) {
  bench::JsonWriter json;
  json.BeginObject();
  json.Key("entities").Value(entities);
  json.Key("threads").Value(threads > 0 ? threads : DefaultThreadCount());
  json.Key("shards").Value(r.shards_used);
  json.Key("left_shards").Value(r.left_shards_used);
  json.Key("links").Value(static_cast<uint64_t>(r.links.size()));
  json.Key("links_hash").Value(HashLinks(r.links));
  json.Key("candidate_pairs").Value(r.candidate_pairs);
  json.Key("spilled_edges").Value(r.spilled_edges);
  json.Key("spill_on_disk").Value(r.spill_on_disk);
  json.Key("spill_bytes_written").Value(r.spill_bytes_written);
  json.Key("merge_passes").Value(r.merge_passes);
  json.Key("seconds").BeginObject();
  for (const char* stage : bench::kStageNames) {
    json.Key(stage).Value(bench::StageOf(r, stage));
  }
  json.EndObject();
  json.Key("peak_rss_bytes").BeginObject();
  for (const char* stage : bench::kStageNames) {
    json.Key(stage).Value(bench::RssOf(r, stage));
  }
  json.EndObject();
  json.EndObject();

  std::ofstream out(out_json);
  SLIM_CHECK_MSG(out.good(), "cannot write child record");
  out << json.str();
}

// ---- Builder child: intern once, serialize the SCTX file. ----

int SctxChildMain(const std::string& path_a, const std::string& path_b,
                  int threads, const std::string& sctx_path) {
  auto a = ReadDataset(path_a, "A");
  SLIM_CHECK_MSG(a.ok(), a.status().ToString().c_str());
  auto b = ReadDataset(path_b, "B");
  SLIM_CHECK_MSG(b.ok(), b.status().ToString().c_str());
  const SlimConfig config;  // stock history parameters
  const LinkageContext context =
      LinkageContext::Build(*a, *b, config.history, threads);
  const Status st = WriteSctx(context, sctx_path);
  SLIM_CHECK_MSG(st.ok(), st.ToString().c_str());
  return 0;
}

// ---- Measured child: map the SCTX file, run one (L, K, threads) plan
// with the streaming matcher, report the run record. ----

int ChildMain(const std::string& sctx_path, int threads, int left_shards,
              int shards, uint64_t spill_run_bytes,
              const std::string& out_json) {
  SlimConfig config;  // stock pipeline defaults, LSH on
  config.threads = threads;
  config.left_shards = left_shards;
  config.shards = shards;
  config.keep_graph = false;  // the streaming external matcher is the point
  if (spill_run_bytes > 0) config.spill_run_bytes = spill_run_bytes;

  SctxReadOptions read_options;
  read_options.build_trees = true;  // LSH candidates query the window trees
  read_options.threads = threads;
  auto context = ReadSctx(sctx_path, read_options);
  SLIM_CHECK_MSG(context.ok(), context.status().ToString().c_str());

  const SlimLinker linker(config);
  auto result = linker.LinkShardedContext(*context);
  SLIM_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  WriteRunRecord(*result, static_cast<uint64_t>(context->store_e.size()),
                 threads, out_json);
  return 0;
}

// ---- Monolithic child: the in-heap driver, for the probes and quick
// mode's bit-identity reference. ----

int MonoChildMain(const std::string& path_a, const std::string& path_b,
                  int threads, const std::string& out_json) {
  auto a = ReadDataset(path_a, "A");
  SLIM_CHECK_MSG(a.ok(), a.status().ToString().c_str());
  auto b = ReadDataset(path_b, "B");
  SLIM_CHECK_MSG(b.ok(), b.status().ToString().c_str());
  SlimConfig config;
  config.threads = threads;
  const SlimLinker linker(config);
  auto result = linker.Link(*a, *b);
  SLIM_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  WriteRunRecord(*result, static_cast<uint64_t>(a->num_entities()), threads,
                 out_json);
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
  uint64_t peak_rss = 0;
  uint64_t block_bytes = 0;
};

// The candidate + scoring footprint of a run (see the file comment); at
// least 1, so the extrapolation and the reduction ratio stay finite.
uint64_t BlockBytes(const bench::PipelineRunRecord& run) {
  double histories = 0.0, scoring = 0.0;
  for (const auto& [name, v] : run.peak_rss_bytes) {
    if (name == "histories") histories = v;
    if (name == "scoring") scoring = v;
  }
  const double delta = scoring - histories;
  return delta > 1.0 ? static_cast<uint64_t>(delta) : 1;
}

MeasuredRun ReadRunRecord(const std::filesystem::path& path) {
  std::ifstream in(path);
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
  for (const auto& [name, v] : run.record.peak_rss_bytes) {
    if (name == "total") run.peak_rss = static_cast<uint64_t>(v);
  }
  run.block_bytes = BlockBytes(run.record);
  return run;
}

void RunCommand(const std::string& cmd) {
  const int rc = std::system(cmd.c_str());
  SLIM_CHECK_MSG(rc == 0, "child run failed");
}

void EmitRun(bench::JsonWriter* json, const MeasuredRun& run) {
  json->BeginObject();
  json->Key("entities").Value(run.record.entities);
  json->Key("threads").Value(run.record.threads);
  json->Key("shards").Value(run.record.shards);
  json->Key("left_shards").Value(run.record.left_shards);
  json->Key("links").Value(run.links);
  json->Key("links_hash").Value(run.links_hash);
  json->Key("candidate_pairs").Value(run.candidate_pairs);
  json->Key("spilled_edges").Value(run.spilled_edges);
  json->Key("spill_on_disk").Value(run.spill_on_disk);
  json->Key("spill_bytes_written").Value(run.record.spill_bytes_written);
  json->Key("merge_passes").Value(run.record.merge_passes);
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

// Samples one linked pair of `entities` per side from `master` and writes
// both sides as SBIN under `tmp_dir`; returns their paths.
std::pair<std::string, std::string> WriteSides(
    const LocationDataset& master, size_t entities,
    const std::filesystem::path& tmp_dir, const std::string& tag) {
  PairSampleOptions sampling;
  sampling.entities_per_side = entities;
  sampling.intersection_ratio = 0.5;
  sampling.inclusion_probability = 0.5;
  sampling.seed = 2302;
  auto sample = SampleLinkedPair(master, sampling);
  SLIM_CHECK_MSG(sample.ok(), sample.status().ToString().c_str());
  const std::string a = (tmp_dir / (tag + "_a.sbin")).string();
  const std::string b = (tmp_dir / (tag + "_b.sbin")).string();
  SLIM_CHECK(WriteDataset(sample->a, a, DatasetFormat::kSbin).ok());
  SLIM_CHECK(WriteDataset(sample->b, b, DatasetFormat::kSbin).ok());
  return {a, b};
}

int Main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_scale.json";
  std::string entities_flag, threads_flag, plans_flag;
  uint64_t budget_bytes = 0;
  uint64_t spill_run_bytes = 0;
  // Child-mode flags.
  bool child = false, child_sctx = false, child_mono = false;
  std::string child_a, child_b, child_out, sctx_path;
  int child_threads = 0, child_left = 0, child_shards = 0;

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
    } else if (arg == "--child_sctx") {
      child_sctx = true;
    } else if (arg == "--mono") {
      child_mono = true;
    } else if (arg == "--a" || arg.rfind("--a=", 0) == 0) {
      child_a = value("--a");
    } else if (arg == "--b" || arg.rfind("--b=", 0) == 0) {
      child_b = value("--b");
    } else if (arg == "--sctx" || arg.rfind("--sctx=", 0) == 0) {
      sctx_path = value("--sctx");
    } else if (arg == "--out" || arg.rfind("--out=", 0) == 0) {
      out_path = child_out = value("--out");
    } else if (arg == "--entities" || arg.rfind("--entities=", 0) == 0) {
      entities_flag = value("--entities");
    } else if (arg == "--threads" || arg.rfind("--threads=", 0) == 0) {
      threads_flag = value("--threads");
      child_threads = static_cast<int>(
          std::strtol(threads_flag.c_str(), nullptr, 10));
    } else if (arg == "--left_shards" ||
               arg.rfind("--left_shards=", 0) == 0) {
      child_left = static_cast<int>(
          std::strtol(value("--left_shards").c_str(), nullptr, 10));
    } else if (arg == "--shards" || arg.rfind("--shards=", 0) == 0) {
      child_shards = static_cast<int>(
          std::strtol(value("--shards").c_str(), nullptr, 10));
    } else if (arg == "--plans" || arg.rfind("--plans=", 0) == 0) {
      plans_flag = value("--plans");
    } else if (arg == "--budget_mb" || arg.rfind("--budget_mb=", 0) == 0) {
      budget_bytes = static_cast<uint64_t>(std::strtoull(
                         value("--budget_mb").c_str(), nullptr, 10))
                     << 20;
    } else if (arg == "--spill_run_bytes" ||
               arg.rfind("--spill_run_bytes=", 0) == 0) {
      spill_run_bytes = std::strtoull(
          value("--spill_run_bytes").c_str(), nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: bench_scale [--quick] [--out FILE] "
                   "[--entities N] [--threads a,b,...] "
                   "[--plans LxK,LxK,...] [--budget_mb M] "
                   "[--spill_run_bytes B]\n");
      return 2;
    }
  }
  if (child_sctx) {
    return SctxChildMain(child_a, child_b, child_threads, sctx_path);
  }
  if (child) {
    return child_mono
               ? MonoChildMain(child_a, child_b, child_threads, child_out)
               : ChildMain(sctx_path, child_threads, child_left, child_shards,
                           spill_run_bytes, child_out);
  }

  // Full mode targets the sm1m scenario; quick mode is the CI-sized
  // acceptance matrix. The quick run-buffer budget is tiny on purpose: the
  // multi-block plans must actually spill to disk and k-way merge, or the
  // determinism gate would only exercise the in-memory path.
  size_t target = quick ? 2000 : 1000000;
  std::vector<size_t> thread_counts =
      quick ? std::vector<size_t>{1, 8}
            : std::vector<size_t>{std::max(
                  1u, std::thread::hardware_concurrency())};
  std::vector<std::pair<int, int>> plans =
      quick ? std::vector<std::pair<int, int>>{{1, 1}, {1, 7}, {2, 4}, {4, 16}}
            : std::vector<std::pair<int, int>>{{4, 16}};
  if (!plans_flag.empty()) plans = ParsePlanList(plans_flag);
  if (budget_bytes == 0) {
    budget_bytes = quick ? kQuickBudgetBytes : kFullBudgetBytes;
  }
  if (spill_run_bytes == 0) {
    spill_run_bytes = quick ? uint64_t{64} << 10 : uint64_t{64} << 20;
  }
  if (!entities_flag.empty()) {
    target = bench::ParseSizeList(entities_flag).front();
  }
  if (!threads_flag.empty()) thread_counts = bench::ParseSizeList(threads_flag);
  const std::vector<size_t> probes = {target / 8, target / 4};
  const size_t probe_threads = thread_counts.front();

  std::printf("==================================================\n");
  std::printf("scale bench — mmap SCTX + L x K sharding + external matcher\n");
  std::printf("workload: SM-style check-ins; target %zu entities/side; "
              "monolithic probes: %zu %zu; plans:",
              target, probes[0], probes[1]);
  for (const auto& [l, k] : plans) std::printf(" %dx%d", l, k);
  std::printf("; threads:");
  for (size_t t : thread_counts) std::printf(" %zu", t);
  std::printf("\nmemory budget: %llu MB per measured run; spill run "
              "buffer: %llu bytes%s; every run is a fresh process\n",
              static_cast<unsigned long long>(budget_bytes >> 20),
              static_cast<unsigned long long>(spill_run_bytes),
              quick ? " (quick)" : "");
  std::printf("==================================================\n");

  std::error_code ec;
  const std::filesystem::path tmp_dir =
      std::filesystem::temp_directory_path() /
      ("slim_bench_scale_" +
       std::to_string(static_cast<long>(::getpid())));
  std::filesystem::create_directories(tmp_dir, ec);
  SLIM_CHECK_MSG(!ec, "cannot create bench temp dir");

  // Workload: the sm1m preset shape (2x-target master, both sides sampled
  // from it) at whatever scale was requested; the probes are the same
  // workload, only smaller.
  CheckinGeneratorOptions gen;
  gen.num_users = static_cast<int>(target * 2);
  gen.seed = 2301;
  std::printf("generating %d-user master...\n", gen.num_users);
  const LocationDataset master = GenerateCheckinDataset(gen);
  const auto [path_a, path_b] = WriteSides(master, target, tmp_dir, "target");

  const std::string self = argv[0];
  int ordinal = 0;
  // Runs one child with `args` and reads its record back.
  auto run_child = [&](const std::string& args) {
    const std::filesystem::path out =
        tmp_dir / ("child_" + std::to_string(ordinal++) + ".json");
    RunCommand("\"" + self + "\" --child " + args + " --out \"" +
               out.string() + "\"");
    return ReadRunRecord(out);
  };
  auto mono_args = [](const std::string& a, const std::string& b,
                      size_t threads) {
    return "--mono --a \"" + a + "\" --b \"" + b + "\" --threads " +
           std::to_string(threads);
  };
  TablePrinter table({"run", "entities", "threads", "scoring_s",
                      "matching_s", "total_s", "merges", "spill_mb",
                      "block_mb", "peak_mb", "links"});
  auto add_row = [&](const std::string& name, const MeasuredRun& run) {
    table.AddRow(
        {name, std::to_string(run.record.entities),
         std::to_string(run.record.threads),
         Fmt(run.record.StageSeconds("scoring"), 3),
         Fmt(run.record.StageSeconds("matching"), 3),
         Fmt(run.record.StageSeconds("total"), 3),
         std::to_string(run.record.merge_passes),
         Fmt(static_cast<double>(run.record.spill_bytes_written) / (1 << 20),
             1),
         Fmt(static_cast<double>(run.block_bytes) / (1 << 20), 1),
         Fmt(static_cast<double>(run.peak_rss) / (1 << 20), 1),
         std::to_string(run.links)});
  };

  // Monolithic probes, and the power-law extrapolation of their block to
  // the target: block(n) = c * n^e through the two probes, the exponent
  // clamped to [1, 3] (the footprint cannot grow sublinearly in the right
  // store, and nothing in the pipeline is worse than the quadratic cross
  // product).
  std::vector<MeasuredRun> probe_runs;
  for (const size_t p : probes) {
    const std::string tag = "probe" + std::to_string(p);
    const auto [a, b] = WriteSides(master, p, tmp_dir, tag);
    std::printf("probe: monolithic at %zu entities/side, %zu thread(s)...\n",
                p, probe_threads);
    probe_runs.push_back(run_child(mono_args(a, b, probe_threads)));
    add_row("probe", probe_runs.back());
  }
  const MeasuredRun& p1 = probe_runs[0];
  const MeasuredRun& p2 = probe_runs[1];
  double exponent = 1.0;
  if (p2.block_bytes > p1.block_bytes &&
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

  // Builder child: one intern + serialize, outside every measured run.
  const std::string sctx_file = (tmp_dir / "context.sctx").string();
  std::printf("building + serializing the SCTX context...\n");
  RunCommand("\"" + self + "\" --child_sctx --a \"" + path_a + "\" --b \"" +
             path_b + "\" --sctx \"" + sctx_file + "\"");
  const uint64_t sctx_bytes =
      static_cast<uint64_t>(std::filesystem::file_size(sctx_file, ec));
  std::printf("SCTX file: %.1f MB\n",
              static_cast<double>(sctx_bytes) / (1 << 20));

  // Measured plan matrix.
  std::vector<MeasuredRun> runs;
  for (const auto& [l, k] : plans) {
    for (const size_t t : thread_counts) {
      std::printf("measured: plan %dx%d, %zu thread(s)...\n", l, k, t);
      runs.push_back(run_child(
          "--sctx \"" + sctx_file + "\" --threads " + std::to_string(t) +
          " --left_shards " + std::to_string(l) + " --shards " +
          std::to_string(k) + " --spill_run_bytes " +
          std::to_string(spill_run_bytes)));
      add_row(std::to_string(l) + "x" + std::to_string(k), runs.back());
    }
  }

  // Determinism: all measured runs agree; in quick mode they must also
  // match the monolithic driver bit for bit.
  bool deterministic = true;
  for (const MeasuredRun& run : runs) {
    if (run.links_hash != runs.front().links_hash ||
        run.links != runs.front().links) {
      std::fprintf(stderr,
                   "DETERMINISM FAILURE: plan %dx%d links differ\n",
                   run.record.left_shards, run.record.shards);
      deterministic = false;
    }
  }
  bool have_mono = false;
  MeasuredRun mono;
  if (quick) {
    std::printf("reference: monolithic driver...\n");
    mono = run_child(mono_args(path_a, path_b, 1));
    have_mono = true;
    add_row("mono", mono);
    if (mono.links_hash != runs.front().links_hash ||
        mono.links != runs.front().links) {
      std::fprintf(stderr,
                   "DETERMINISM FAILURE: sharded links differ from the "
                   "monolithic driver\n");
      deterministic = false;
    }
  }
  table.Print();

  // The memory gate.
  bool under_budget = true;
  for (const MeasuredRun& run : runs) {
    if (run.peak_rss > budget_bytes) {
      std::fprintf(stderr,
                   "MEMORY GATE FAILURE: plan %dx%d threads %d peaked at "
                   "%.1f MB > %llu MB budget\n",
                   run.record.left_shards, run.record.shards,
                   run.record.threads,
                   static_cast<double>(run.peak_rss) / (1 << 20),
                   static_cast<unsigned long long>(budget_bytes >> 20));
      under_budget = false;
    }
  }

  // The reduction: the best plan's block at the probes' thread count
  // against the extrapolated monolithic block.
  uint64_t best_block = 0;
  for (const MeasuredRun& run : runs) {
    if (static_cast<size_t>(run.record.threads) != probe_threads) continue;
    if (best_block == 0 || run.block_bytes < best_block) {
      best_block = run.block_bytes;
    }
  }
  SLIM_CHECK_MSG(best_block > 0, "no plan ran at the probe thread count");
  const double reduction = extrapolated_block / static_cast<double>(best_block);
  std::printf("best plan block at %zu thread(s): %.1f MB -> %.2fx below "
              "the extrapolated monolithic block\n",
              probe_threads, static_cast<double>(best_block) / (1 << 20),
              reduction);
  const bool reduced = quick || reduction >= kRssReductionGate;
  if (!reduced) {
    std::fprintf(stderr,
                 "RSS GATE FAILURE: %.2fx < %.1fx required reduction vs "
                 "the extrapolated monolithic block\n",
                 reduction, kRssReductionGate);
  }

  // The machine-readable record.
  bench::JsonWriter json;
  json.BeginObject();
  json.Key("schema").Value("slim-bench-scale-v2");
  json.Key("build").Value(slim::BuildGitDescribe());
  json.Key("workload").Value("checkin");
  json.Key("quick").Value(quick);
  json.Key("hardware_threads")
      .Value(static_cast<int>(std::thread::hardware_concurrency()));
  json.Key("target_entities").Value(static_cast<uint64_t>(target));
  json.Key("memory_budget_bytes").Value(budget_bytes);
  json.Key("sctx_bytes").Value(sctx_bytes);
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
  for (const MeasuredRun& run : runs) EmitRun(&json, run);
  json.EndArray();
  if (have_mono) {
    json.Key("monolithic_reference");
    EmitRun(&json, mono);
  }
  json.Key("rss_reduction_vs_extrapolated").Value(reduction);
  json.EndObject();

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << json.str();
  out.close();
  std::printf("wrote %s (%zu measured runs)\n", out_path.c_str(),
              runs.size());

  std::filesystem::remove_all(tmp_dir, ec);
  return deterministic && under_budget && reduced ? 0 : 1;
}

}  // namespace
}  // namespace slim

int main(int argc, char** argv) { return slim::Main(argc, argv); }
