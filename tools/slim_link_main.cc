// slim_link: link two mobility CSV datasets from the command line.
//
//   slim_link --a service_a.csv --b service_b.sbin --out links.csv
//             [--format auto|csv|sbin] [--io_threads N]
//             [--spatial_level N | --auto_tune]
//             [--window_minutes M] [--b_param X] [--max_speed_kmh S]
//             [--candidates lsh|brute|grid] [--no_lsh] [--grid_max_bin N]
//             [--grid_min_overlap N] [--lsh_level N] [--lsh_step N]
//             [--lsh_threshold T] [--lsh_buckets N]
//             [--threshold gmm|otsu|two_means|none]
//             [--matcher greedy|hungarian] [--threads N] [--region_radius_m R]
//             [--shards K | --memory_budget_mb M] [--left_shards L]
//             [--sctx PATH] [--no_graph] [--spill_run_mb M]
//             [--bench_json PATH]
//
// Inputs: CSV (entity_id,lat,lng,timestamp epoch seconds, header optional)
// or SBIN (docs/ARCHITECTURE.md#data); --format=auto sniffs each file.
// Output CSV: entity_a,entity_b,score.
#include <cstdio>

#include "common/build_info.h"
#include "flags.h"
#include "linkage_flags.h"
#include "slim.h"

namespace {

// Escapes a string for use inside a JSON string literal (quotes,
// backslashes, control characters — enough for arbitrary file paths).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += slim::StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out;
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: slim_link --a A.csv --b B.csv --out links.csv [options]\n"
      "options:\n"
      "  --format KIND         input dataset format: auto|csv|sbin "
      "(default auto)\n"
      "  --io_threads N        worker threads for parallel CSV parsing\n"
      "                        (default: all; results identical at any N)\n"
      "  --spatial_level N     history leaf cell level (default 12)\n"
      "  --auto_tune           pick the spatial level automatically "
      "(Sec. 3.3)\n"
      "  --window_minutes M    leaf window width (default 15)\n"
      "  --b_param X           length-normalisation strength in [0,1] "
      "(default 0.5)\n"
      "  --max_speed_kmh S     alibi speed limit (default 120)\n"
      "  --region_radius_m R   treat records as R-meter regions (default 0)\n"
      "  --candidates KIND     candidate generator: lsh|brute|grid "
      "(default lsh)\n"
      "  --no_lsh              alias for --candidates brute\n"
      "  --grid_max_bin N      grid blocking: skip bins shared by > N right\n"
      "                        entities (default 0 = no cap)\n"
      "  --grid_min_overlap N  grid blocking: drop pairs with quantized\n"
      "                        co-visit mass < N (default 0 = keep all)\n"
      "  --lsh_level N         signature spatial level (default 10)\n"
      "  --lsh_step N          query step in leaf windows (default 8)\n"
      "  --lsh_threshold T     candidate similarity threshold (default 0.5)\n"
      "  --lsh_buckets N       buckets per band (default 4096)\n"
      "  --threshold KIND      gmm|otsu|two_means|none (default gmm)\n"
      "  --matcher KIND        greedy|hungarian (default greedy)\n"
      "  --min_records N       drop entities with fewer records (default 6)\n"
      "  --threads N           worker threads for every pipeline stage\n"
      "                        (default: SLIM_THREADS env, else hardware)\n"
      "  --shards K            split the right side into K contiguous\n"
      "                        shards scored block by block; links are\n"
      "                        bit-identical at every K (default 1)\n"
      "  --memory_budget_mb M  use as many right shards as an M-MB\n"
      "                        per-block budget demands\n"
      "                        (ignored when --shards is given)\n"
      "  --left_shards L       also split the LEFT side into L contiguous\n"
      "                        shards (L x K blocks); links are\n"
      "                        bit-identical at every (L, K)\n"
      "  --sctx PATH           serialize the built context to PATH on\n"
      "                        first use, then memory-map it read-only\n"
      "                        (SCTX; core/sctx.h). An existing file is\n"
      "                        mapped directly without re-interning the\n"
      "                        datasets\n"
      "  --no_graph            skip materialising the edge graph and\n"
      "                        stream score-ordered edges into the greedy\n"
      "                        matcher (bounded memory; links are\n"
      "                        bit-identical, the bench JSON just lacks\n"
      "                        graph-derived fields)\n"
      "  --spill_run_mb M      external-sort run-buffer budget in MB for\n"
      "                        plans of more than one block (default 64)\n"
      "  --report PATH         also write a markdown linkage report\n"
      "  --bench_json PATH     also write per-stage wall times, distance-\n"
      "                        cache efficacy, peak RSS, and shard\n"
      "                        provenance as JSON (schema\n"
      "                        slim-link-bench-v5; see docs/BENCHMARKS.md)\n"
      "  --version             print the build/version string and exit\n");
}

}  // namespace

int main(int argc, char** argv) {
  slim::tools::Flags flags(argc, argv);
  if (flags.GetBool("version", false)) {
    std::printf("%s\n", slim::BuildVersionString());
    return 0;
  }
  const std::string path_a = flags.GetString("a", "");
  const std::string path_b = flags.GetString("b", "");
  const std::string path_out = flags.GetString("out", "");
  if (path_a.empty() || path_b.empty() || path_out.empty()) {
    Usage();
    return 2;
  }

  slim::DatasetIoOptions io;
  auto format = slim::ParseDatasetFormat(flags.GetString("format", "auto"));
  if (!format.ok()) slim::tools::Flags::Fail(format.status().ToString());
  io.format = *format;
  io.io_threads = static_cast<int>(flags.GetInt("io_threads", 0));

  auto a = slim::ReadDataset(path_a, "A", io);
  if (!a.ok()) slim::tools::Flags::Fail(a.status().ToString());
  auto b = slim::ReadDataset(path_b, "B", io);
  if (!b.ok()) slim::tools::Flags::Fail(b.status().ToString());

  const size_t min_records =
      static_cast<size_t>(flags.GetInt("min_records", 6));
  if (min_records > 0) {
    a->FilterMinRecords(min_records);
    b->FilterMinRecords(min_records);
  }
  std::fprintf(stderr, "A: %zu entities / %zu records; B: %zu / %zu\n",
               a->num_entities(), a->num_records(), b->num_entities(),
               b->num_records());

  slim::SlimConfig config = slim::tools::ParseLinkageFlags(flags);
  config.history.region_radius_meters = flags.GetDouble("region_radius_m", 0);
  if (flags.GetBool("no_lsh", false)) {
    // Legacy alias. Refuse a contradictory explicit --candidates rather
    // than silently discarding it.
    const std::string candidates_flag = flags.GetString("candidates", "");
    if (!candidates_flag.empty() &&
        config.candidates != slim::CandidateKind::kBruteForce) {
      slim::tools::Flags::Fail("--no_lsh conflicts with --candidates " +
                               candidates_flag);
    }
    config.candidates = slim::CandidateKind::kBruteForce;
  }
  config.grid.max_bin_entities =
      static_cast<uint32_t>(flags.GetInt("grid_max_bin", 0));
  config.grid.min_overlap_records =
      static_cast<uint32_t>(flags.GetInt("grid_min_overlap", 0));
  config.shards = static_cast<int>(flags.GetInt("shards", 0));
  config.left_shards = static_cast<int>(flags.GetInt("left_shards", 0));
  const long long budget_mb = flags.GetInt("memory_budget_mb", 0);
  if (budget_mb < 0) {
    slim::tools::Flags::Fail("--memory_budget_mb must be >= 0");
  }
  config.shard_memory_budget_bytes =
      static_cast<uint64_t>(budget_mb) * (uint64_t{1} << 20);
  config.sctx_path = flags.GetString("sctx", "");
  config.keep_graph = !flags.GetBool("no_graph", false);
  const long long spill_run_mb = flags.GetInt("spill_run_mb", 64);
  if (spill_run_mb <= 0) {
    slim::tools::Flags::Fail("--spill_run_mb must be > 0");
  }
  config.spill_run_bytes =
      static_cast<uint64_t>(spill_run_mb) * (uint64_t{1} << 20);

  if (flags.GetBool("auto_tune", false)) {
    slim::TuningOptions tuning;
    tuning.window_seconds = config.history.window_seconds;
    auto level = slim::AutoTuneSpatialLevelForPair(*a, *b, tuning);
    if (!level.ok()) slim::tools::Flags::Fail(level.status().ToString());
    config.history.spatial_level = *level;
    if (config.lsh.signature_spatial_level > *level) {
      config.lsh.signature_spatial_level = *level;
    }
    std::fprintf(stderr, "auto-tuned spatial level: %d\n", *level);
  }

  const slim::SlimLinker linker(config);
  auto result = linker.Link(*a, *b);
  if (!result.ok()) slim::tools::Flags::Fail(result.status().ToString());

  if (result->left_shards_used * result->shards_used > 1) {
    std::fprintf(
        stderr,
        "sharded driver: %d x %d block(s), %llu edges via %s "
        "(%llu spill bytes, %d merge pass(es))\n",
        result->left_shards_used, result->shards_used,
        static_cast<unsigned long long>(result->spilled_edges),
        result->spill_on_disk ? "disk spill" : "memory",
        static_cast<unsigned long long>(result->spill_bytes_written),
        result->merge_passes);
  }
  std::fprintf(stderr,
               "scored %llu of %llu pairs; %zu matched; %zu linked "
               "(threshold %s); %.2fs total\n",
               static_cast<unsigned long long>(result->candidate_pairs),
               static_cast<unsigned long long>(result->possible_pairs),
               result->matching.pairs.size(), result->links.size(),
               result->threshold_valid
                   ? slim::StrFormat("%.2f", result->threshold.threshold)
                         .c_str()
                   : "n/a",
               result->seconds_total);

  const slim::Status st = slim::WriteLinksCsv(result->links, path_out);
  if (!st.ok()) slim::tools::Flags::Fail(st.ToString());
  std::fprintf(stderr, "wrote %s\n", path_out.c_str());

  const std::string bench_json_path = flags.GetString("bench_json", "");
  if (!bench_json_path.empty()) {
    std::FILE* f = std::fopen(bench_json_path.c_str(), "w");
    if (f == nullptr) {
      slim::tools::Flags::Fail("cannot write " + bench_json_path);
    }
    std::fprintf(
        f,
        "{\n"
        "  \"schema\": \"slim-link-bench-v5\",\n"
        "  \"build\": \"%s\",\n"
        "  \"a\": \"%s\",\n"
        "  \"b\": \"%s\",\n"
        "  \"entities_a\": %zu,\n"
        "  \"entities_b\": %zu,\n"
        "  \"threads\": %d,\n"
        "  \"shards\": %d,\n"
        "  \"left_shards\": %d,\n"
        "  \"spilled_edges\": %llu,\n"
        "  \"spill_on_disk\": %s,\n"
        "  \"spill_bytes_written\": %llu,\n"
        "  \"merge_passes\": %d,\n"
        "  \"candidates\": \"%s\",\n"
        "  \"kernel\": \"%s\",\n"
        "  \"candidate_pairs\": %llu,\n"
        "  \"possible_pairs\": %llu,\n"
        "  \"links\": %zu,\n"
        "  \"distance_cache\": {\n"
        "    \"hits\": %llu,\n"
        "    \"misses\": %llu\n"
        "  },\n"
        "  \"seconds\": {\n"
        "    \"histories\": %.6f,\n"
        "    \"lsh\": %.6f,\n"
        "    \"scoring\": %.6f,\n"
        "    \"matching\": %.6f,\n"
        "    \"total\": %.6f\n"
        "  },\n"
        "  \"peak_rss_bytes\": {\n"
        "    \"histories\": %llu,\n"
        "    \"lsh\": %llu,\n"
        "    \"scoring\": %llu,\n"
        "    \"matching\": %llu,\n"
        "    \"total\": %llu\n"
        "  }\n"
        "}\n",
        JsonEscape(slim::BuildGitDescribe()).c_str(),
        JsonEscape(path_a).c_str(), JsonEscape(path_b).c_str(),
        a->num_entities(), b->num_entities(),
        config.threads > 0 ? config.threads : slim::DefaultThreadCount(),
        result->shards_used, result->left_shards_used,
        static_cast<unsigned long long>(result->spilled_edges),
        result->spill_on_disk ? "true" : "false",
        static_cast<unsigned long long>(result->spill_bytes_written),
        result->merge_passes,
        std::string(slim::CandidateKindName(result->candidates_used)).c_str(),
        slim::ScoreKernelName(config.similarity.kernel),
        static_cast<unsigned long long>(result->candidate_pairs),
        static_cast<unsigned long long>(result->possible_pairs),
        result->links.size(),
        static_cast<unsigned long long>(result->stats.cache_hits),
        static_cast<unsigned long long>(result->stats.cache_misses),
        result->seconds_histories, result->seconds_lsh,
        result->seconds_scoring, result->seconds_matching,
        result->seconds_total,
        static_cast<unsigned long long>(result->rss_peak_histories),
        static_cast<unsigned long long>(result->rss_peak_lsh),
        static_cast<unsigned long long>(result->rss_peak_scoring),
        static_cast<unsigned long long>(result->rss_peak_matching),
        static_cast<unsigned long long>(result->rss_peak_total));
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", bench_json_path.c_str());
  }

  const std::string report_path = flags.GetString("report", "");
  if (!report_path.empty()) {
    slim::ReportOptions ropt;
    ropt.dataset_a = path_a;
    ropt.dataset_b = path_b;
    const slim::Status rs =
        slim::WriteLinkageReport(*result, ropt, report_path);
    if (!rs.ok()) slim::tools::Flags::Fail(rs.ToString());
    std::fprintf(stderr, "wrote %s\n", report_path.c_str());
  }
  return 0;
}
