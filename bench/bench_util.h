// Shared helpers for the benches: the standard figure header, per-scale
// sampling options, and the machine-readable JSON side of the benchmark
// book (emitter + the minimal reader the regression gate uses). See
// docs/BENCHMARKS.md for how the pieces fit together.
#ifndef SLIM_BENCH_BENCH_UTIL_H_
#define SLIM_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "slim.h"

namespace slim::bench {

/// Parses the number starting at `pos` in a bench JSON blob (skipping any
/// leading spaces and one ':'), returning `fallback` when none is there.
/// std::from_chars keeps this locale-independent: the records are written
/// with to_chars, and a comma-decimal global locale must not change how
/// they read back (strtod would, SLIM-DET-004).
inline double ParseNumberAt(const std::string& json, size_t pos,
                            double fallback = -1.0) {
  while (pos < json.size() &&
         (std::isspace(static_cast<unsigned char>(json[pos])) != 0 ||
          json[pos] == ':')) {
    ++pos;
  }
  double value = fallback;
  if (pos < json.size()) {
    std::from_chars(json.data() + pos, json.data() + json.size(), value);
  }
  return value;
}

/// The LinkageResult stages a bench record reports, in stage order.
inline constexpr const char* kStageNames[] = {"histories", "lsh", "scoring",
                                              "matching", "total"};

/// Wall seconds of `stage` (one of kStageNames).
inline double StageOf(const LinkageResult& r, const std::string& stage) {
  if (stage == "histories") return r.seconds_histories;
  if (stage == "lsh") return r.seconds_lsh;
  if (stage == "scoring") return r.seconds_scoring;
  if (stage == "matching") return r.seconds_matching;
  return r.seconds_total;
}

/// Peak process RSS in bytes at the end of `stage` (one of kStageNames).
inline uint64_t RssOf(const LinkageResult& r, const std::string& stage) {
  if (stage == "histories") return r.rss_peak_histories;
  if (stage == "lsh") return r.rss_peak_lsh;
  if (stage == "scoring") return r.rss_peak_scoring;
  if (stage == "matching") return r.rss_peak_matching;
  return r.rss_peak_total;
}

/// "a,b,..." -> positive integers, for the benches' list flags.
inline std::vector<size_t> ParseSizeList(const std::string& csv) {
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

/// Prints the standard figure header with the bench scale.
inline void PrintHeader(const char* figure, const char* what,
                        const char* expectation) {
  const char* scale =
      BenchScaleFromEnv() == BenchScale::kFull ? "full" : "small";
  std::printf("==================================================\n");
  std::printf("%s — %s\n", figure, what);
  std::printf("scale: %s (set SLIM_BENCH_SCALE=full for paper-scale runs)\n",
              scale);
  std::printf("paper shape to reproduce: %s\n", expectation);
  std::printf("==================================================\n");
}

/// Default sampling options for the Cab-style experiments.
inline PairSampleOptions CabSampleOptions(BenchScale scale) {
  PairSampleOptions opt;
  opt.entities_per_side = scale == BenchScale::kFull ? 265 : 60;
  opt.intersection_ratio = 0.5;
  opt.inclusion_probability = 0.5;
  opt.seed = 11;
  return opt;
}

/// Default sampling options for the SM-style experiments.
inline PairSampleOptions SmSampleOptions(BenchScale scale) {
  PairSampleOptions opt;
  opt.entities_per_side = scale == BenchScale::kFull ? 30000 : 800;
  opt.intersection_ratio = 0.5;
  opt.inclusion_probability = 0.5;
  opt.seed = 12;
  return opt;
}

/// SLIM defaults used across the benches (paper defaults).
inline SlimConfig DefaultSlimConfig() {
  SlimConfig cfg;
  cfg.history.spatial_level = 12;
  cfg.history.window_seconds = 900;
  cfg.similarity.b = 0.5;
  // Figures opt into LSH explicitly.
  cfg.candidates = CandidateKind::kBruteForce;
  return cfg;
}

/// Minimal streaming JSON emitter for the BENCH_*.json records. Handles
/// separators and nesting; the caller is responsible for emitting keys only
/// inside objects. Numbers use enough precision for wall-clock seconds.
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }

  JsonWriter& Key(const std::string& k) {
    Separate();
    out_ += '"';
    out_ += k;
    out_ += "\": ";
    pending_value_ = true;
    return *this;
  }

  JsonWriter& Value(const std::string& v) {
    Separate();
    out_ += '"';
    out_ += v;  // bench strings are identifiers/paths; no escaping needed
    out_ += '"';
    return *this;
  }
  JsonWriter& Value(const char* v) { return Value(std::string(v)); }
  JsonWriter& Value(double v) {
    Separate();
    out_ += StrFormat("%.6f", v);
    return *this;
  }
  JsonWriter& Value(uint64_t v) {
    Separate();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Value(int v) {
    Separate();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Value(bool v) {
    Separate();
    out_ += v ? "true" : "false";
    return *this;
  }

  /// The document so far, with a trailing newline.
  std::string str() const { return out_ + "\n"; }

 private:
  JsonWriter& Open(char c) {
    Separate();
    out_ += c;
    out_ += '\n';
    depth_ += 1;
    fresh_ = true;
    return *this;
  }
  JsonWriter& Close(char c) {
    depth_ -= 1;
    out_ += '\n';
    Indent();
    out_ += c;
    fresh_ = false;
    return *this;
  }
  void Separate() {
    if (pending_value_) {
      pending_value_ = false;
      return;  // value following its key: no comma, no indent
    }
    if (!fresh_ && depth_ > 0) out_ += ",\n";
    if (depth_ > 0) Indent();
    fresh_ = false;
  }
  void Indent() { out_.append(static_cast<size_t>(depth_) * 2, ' '); }

  std::string out_;
  int depth_ = 0;
  bool fresh_ = true;
  bool pending_value_ = false;
};

/// One (entities, threads) run of a bench record, as read back from a
/// BENCH_pipeline.json document or a bench_scale child record; see
/// bench_pipeline.cc / bench_scale.cc for the writing sides.
struct PipelineRunRecord {
  uint64_t entities = 0;
  int threads = 0;
  // Right-side shard count of the run; 0 for pre-v3 records (monolithic
  // pipeline documents carry no "shards" key).
  int shards = 0;
  // Left-side shard count (slim-bench-scale-v1 two-sided runs); 0 for
  // records that predate two-sided sharding.
  int left_shards = 0;
  // External-sort provenance (slim-bench-scale-v1): bytes written to the
  // spill file, and k-way merge passes run.
  // Both 0 for older records and for in-memory runs.
  uint64_t spill_bytes_written = 0;
  int merge_passes = 0;
  // Stage name -> wall seconds ("histories", "lsh", "scoring", "matching",
  // "total").
  std::vector<std::pair<std::string, double>> seconds;
  // Stage name -> peak process RSS in bytes at the end of that stage.
  // Empty for schema-v1 documents (pre-RSS); the regression gate only uses
  // `seconds`, so v1 baselines keep working.
  std::vector<std::pair<std::string, double>> peak_rss_bytes;

  double StageSeconds(const std::string& stage) const {
    for (const auto& [name, secs] : seconds) {
      if (name == stage) return secs;
    }
    return -1.0;
  }
};

/// The key vocabulary of every bench-record schema the repo has shipped
/// (v1 pipeline seconds, v2 + RSS/distance-cache, v3 + sharding, the
/// kernel-bench v1 family, the scale-bench v1 and v2 families). Keys a
/// reader meets outside this list signal baseline/schema drift.
inline bool IsKnownBenchKey(const std::string& key) {
  static const char* const kKnown[] = {
      // Document level.
      "schema", "build", "workload", "quick", "hardware_threads",
      "deterministic",
      "runs", "target_entities",
      // Scale-bench document level (slim-bench-scale-v1/v2, bench_scale.cc;
      // the probe and extrapolation keys are v2).
      "memory_budget_bytes", "sctx_bytes", "monolithic_reference",
      "monolithic_probes", "extrapolated_monolithic", "exponent",
      "rss_reduction_vs_extrapolated",
      // Run level.
      "entities", "threads", "shards", "links", "links_hash",
      "candidate_pairs", "possible_pairs", "seconds", "speedup_vs_first",
      "peak_rss_bytes", "block_bytes", "distance_cache", "hits", "misses",
      "spilled_edges", "spill_on_disk",
      // Scale-bench run level (two-sided sharding + external sort).
      "left_shards", "spill_bytes_written", "merge_passes",
      // Stage names (inside seconds / speedup / RSS objects).
      "histories", "lsh", "scoring", "matching", "total",
      // Kernel-bench run level (slim-bench-kernel-v1, bench_kernel.cc).
      "op", "shape", "kernel", "reps", "ns_per_element"};
  for (const char* known : kKnown) {
    if (key == known) return true;
  }
  return false;
}

/// A parsed "schema" document value: "<family>-v<N>" -> {family, N}.
struct BenchSchema {
  std::string family;
  int version = 0;
};

/// Extracts the document's "schema" value. Returns false when the key is
/// absent (hand-written pre-schema documents) or the value does not end in
/// "-v<digits>".
inline bool ParseBenchSchema(const std::string& json, BenchSchema* out) {
  const size_t key = json.find("\"schema\"");
  if (key == std::string::npos) return false;
  const size_t open = json.find('"', key + sizeof("\"schema\"") - 1);
  if (open == std::string::npos) return false;
  const size_t close = json.find('"', open + 1);
  if (close == std::string::npos) return false;
  const std::string value = json.substr(open + 1, close - open - 1);
  const size_t dash = value.rfind("-v");
  if (dash == std::string::npos || dash + 2 >= value.size()) return false;
  for (size_t k = dash + 2; k < value.size(); ++k) {
    if (std::isdigit(static_cast<unsigned char>(value[k])) == 0) return false;
  }
  out->family = value.substr(0, dash);
  int version = 0;
  std::from_chars(value.data() + dash + 2, value.data() + value.size(),
                  version);
  out->version = version;
  return true;
}

/// One (family, newest-readable-version) pair a gated reader declares.
struct BenchSchemaLimit {
  const char* family;
  int max_version;
};

/// Guard for gated baseline comparisons. The scanning readers above skip
/// unknown keys, which is safe for *older* baselines but silently wrong for
/// *newer* ones: a future schema may rename or re-scope the very numbers
/// the gate compares, and a half-parsed baseline would then gate against
/// garbage. So a baseline whose schema family is foreign, or whose version
/// is newer than the reader, is rejected outright. Documents without a
/// schema key predate the vocabulary and are accepted as version 0.
/// Returns true when the baseline is safe to compare; logs the reason to
/// stderr otherwise.
inline bool BaselineSchemaReadable(
    const std::string& json, const char* path,
    std::initializer_list<BenchSchemaLimit> readable) {
  BenchSchema schema;
  if (!ParseBenchSchema(json, &schema)) return true;  // pre-schema document
  for (const BenchSchemaLimit& limit : readable) {
    if (schema.family != limit.family) continue;
    if (schema.version <= limit.max_version) return true;
    std::fprintf(stderr,
                 "baseline %s has schema %s-v%d but this reader only "
                 "understands %s up to v%d; regenerate the baseline or "
                 "rebuild a newer bench binary\n",
                 path, schema.family.c_str(), schema.version, limit.family,
                 limit.max_version);
    return false;
  }
  std::fprintf(stderr,
               "baseline %s has schema family \"%s\", which this gate does "
               "not read\n",
               path, schema.family.c_str());
  return false;
}

/// Scans a bench-record document for JSON keys outside the known schema
/// vocabulary and logs each distinct one to stderr — once per process — so
/// v1/v2/v3 baseline drift shows up in CI output instead of being
/// silently skipped by the scanning readers below.
inline void WarnUnknownBenchKeys(const std::string& json) {
  static std::vector<std::string>* warned = new std::vector<std::string>();
  size_t pos = 0;
  while ((pos = json.find('"', pos)) != std::string::npos) {
    const size_t key_end = json.find('"', pos + 1);
    if (key_end == std::string::npos) break;
    size_t after = key_end + 1;
    while (after < json.size() &&
           std::isspace(static_cast<unsigned char>(json[after])) != 0) {
      ++after;
    }
    // A quoted token followed by ':' is a key; anything else is a value.
    if (after < json.size() && json[after] == ':') {
      const std::string key = json.substr(pos + 1, key_end - pos - 1);
      if (!IsKnownBenchKey(key) &&
          std::find(warned->begin(), warned->end(), key) == warned->end()) {
        warned->push_back(key);
        std::fprintf(stderr,
                     "bench_util: skipping unknown bench-record key \"%s\" "
                     "(schema drift? see docs/BENCHMARKS.md)\n",
                     key.c_str());
      }
    }
    pos = key_end + 1;
  }
}

/// Extracts the runs of a BENCH_pipeline.json document (schema v1, v2, or
/// v3) or of a bench_scale child record. Not a general JSON parser: it
/// scans for the known keys in the order the benches emit them
/// ("entities", then "threads", then — v3 only — "shards", then the
/// "seconds" object, then — v2+ — the "peak_rss_bytes" object), which is
/// also resilient to hand-edited whitespace. Unknown keys are skipped (and
/// logged once, see WarnUnknownBenchKeys).
inline std::vector<PipelineRunRecord> ParsePipelineRuns(
    const std::string& json) {
  WarnUnknownBenchKeys(json);
  std::vector<PipelineRunRecord> runs;
  auto number_after = [&](size_t pos) { return ParseNumberAt(json, pos); };
  // Parses the flat { "name": number, ... } object whose key starts at
  // `object_key_pos` into `out`; returns the position of its '}'.
  auto parse_stage_object =
      [&](size_t object_key_pos,
          std::vector<std::pair<std::string, double>>* out) -> size_t {
    const size_t open = json.find('{', object_key_pos);
    const size_t close = json.find('}', object_key_pos);
    if (open == std::string::npos || close == std::string::npos) return close;
    size_t key = open;
    while ((key = json.find('"', key + 1)) != std::string::npos &&
           key < close) {
      const size_t key_end = json.find('"', key + 1);
      if (key_end == std::string::npos || key_end > close) break;
      const std::string name = json.substr(key + 1, key_end - key - 1);
      out->emplace_back(name, number_after(key_end + 1));
      key = json.find(',', key_end);
      if (key == std::string::npos || key > close) break;
    }
    return close;
  };
  size_t pos = 0;
  while ((pos = json.find("\"entities\"", pos)) != std::string::npos) {
    PipelineRunRecord run;
    run.entities =
        static_cast<uint64_t>(number_after(pos + sizeof("\"entities\"") - 1));
    const size_t threads_pos = json.find("\"threads\"", pos);
    if (threads_pos == std::string::npos) break;
    run.threads =
        static_cast<int>(number_after(threads_pos + sizeof("\"threads\"") - 1));
    const size_t seconds_pos = json.find("\"seconds\"", threads_pos);
    if (seconds_pos == std::string::npos) break;
    // v3: an optional per-run shard count between "threads" and "seconds".
    const size_t shards_pos = json.find("\"shards\"", threads_pos);
    if (shards_pos != std::string::npos && shards_pos < seconds_pos) {
      run.shards =
          static_cast<int>(number_after(shards_pos + sizeof("\"shards\"") - 1));
    }
    // scale-v1: optional two-sided-sharding and external-sort fields, also
    // between "threads" and "seconds". ("left_shards" cannot false-match
    // the "shards" probe above: that needle includes the opening quote.)
    const auto optional_field = [&](const char* needle, size_t needle_size) {
      const size_t field = json.find(needle, threads_pos);
      return field != std::string::npos && field < seconds_pos
                 ? number_after(field + needle_size - 1)
                 : -1.0;
    };
    const double left =
        optional_field("\"left_shards\"", sizeof("\"left_shards\""));
    if (left >= 0.0) run.left_shards = static_cast<int>(left);
    const double spill_bytes = optional_field("\"spill_bytes_written\"",
                                              sizeof("\"spill_bytes_written\""));
    if (spill_bytes >= 0.0) {
      run.spill_bytes_written = static_cast<uint64_t>(spill_bytes);
    }
    const double merges =
        optional_field("\"merge_passes\"", sizeof("\"merge_passes\""));
    if (merges >= 0.0) run.merge_passes = static_cast<int>(merges);
    const size_t close = parse_stage_object(seconds_pos, &run.seconds);
    if (close == std::string::npos) break;
    // v2: an optional peak_rss_bytes object belonging to this run (it must
    // appear before the next run's "entities" key to be this run's).
    const size_t rss_pos = json.find("\"peak_rss_bytes\"", close);
    const size_t next_run = json.find("\"entities\"", close);
    if (rss_pos != std::string::npos &&
        (next_run == std::string::npos || rss_pos < next_run)) {
      parse_stage_object(rss_pos, &run.peak_rss_bytes);
    }
    runs.push_back(std::move(run));
    pos = close;
  }
  return runs;
}

}  // namespace slim::bench

#endif  // SLIM_BENCH_BENCH_UTIL_H_
