// Shared declarations of the SLIM benchmark harness (README.md describes
// the workloads, the metrics and the process layout).
//
// One invocation runs one workload: the parent process generates the inputs
// from the workload seed (set-up), writes them into a work directory, and
// spawns a child process of the same executable that runs only the measured
// part, so the child's peak RSS is the footprint of linking alone. The
// child writes a key/value report; the parent adds the untimed correctness
// checks and prints the result.
#ifndef SLIMBENCH_BENCH_H_
#define SLIMBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/slim.h"
#include "data/sampler.h"

namespace slimbench {

/// Worker threads of every workload (a 4-core box runs one per core).
inline constexpr int kThreads = 4;

enum class Workload { kCheckinBatch, kCommuteBatch, kCheckinOutOfCore,
                      kCheckinServe };

struct Options {
  Workload workload = Workload::kCheckinBatch;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs that run every metric and check in seconds.
  bool tiny = false;
  std::string work_dir;
  /// Where the traced run writes its spans (Chrome trace-event JSON).
  std::string trace_file;
};

/// Input sizes of one scale.
struct Sizes {
  int checkin_per_side;   // checkin_batch and checkin_outofcore
  int commute_per_side;
  int serve_per_side;
  int serve_epochs;
  int topk_per_epoch;
  int outofcore_left_shards;
  int outofcore_right_shards;
  uint64_t spill_run_bytes;
};
Sizes SizesFor(const Options& options);

/// The linker configuration a workload's measured part runs with.
slim::SlimConfig LinkConfig(const Options& options);

/// What the inputs are, so a comparison between two builds can tell a
/// workload change from a speed change.
struct Fingerprint {
  uint64_t entities_a = 0;
  uint64_t entities_b = 0;
  uint64_t records_a = 0;
  uint64_t records_b = 0;

  uint64_t possible_pairs() const { return entities_a * entities_b; }
  bool operator==(const Fingerprint&) const = default;
};

/// Files set-up leaves in the work directory.
std::string WorkFile(const Options& options, const char* name);

/// The workload's command-line name.
const char* WorkloadName(Workload workload);

/// Where the library's anonymous spill files go (spill_dir.cc).
void SetSpillDirectory(const std::string& dir);

// ---- Process layout (main.cc, report.cc) ----

/// The parent: set-up, the measured child, the correctness checks, and the
/// printed provenance and result lines. Returns the exit code.
int RunParent(const Options& options);

/// Runs this executable again as the measured child, waits for it, and
/// returns its peak RSS in bytes. Throws when the child fails.
uint64_t RunChild(const Options& options);

// ---- Set-up (parent process) ----

struct SetupResult {
  slim::LinkedPairSample sample;
  Fingerprint fingerprint;
  /// Set-up-side layer metrics (the out-of-core context build and SCTX
  /// write), keyed like the per-layer metrics.
  std::map<std::string, double> layer;
};

/// Generates the workload's inputs from the seed and writes them into the
/// work directory.
SetupResult RunSetup(const Options& options);

/// Truth pairs written by set-up for the child's candidate-recall counter.
void WriteTruth(const slim::GroundTruth& truth, const std::string& path);
slim::GroundTruth ReadTruth(const std::string& path);

// ---- Shared helpers ----

/// FNV-1a over the canonical link lines (u,v,score at 17 digits), the
/// convention of the repository's scale benches: equal hashes mean links
/// equal to the last bit.
uint64_t HashLinks(const std::vector<slim::LinkedEntityPair>& links);

void WriteLinks(const std::vector<slim::LinkedEntityPair>& links,
                const std::string& path);
std::vector<slim::LinkedEntityPair> ReadLinks(const std::string& path);

double Median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> values, double p);

double NowSeconds();
/// User + system CPU seconds of this process so far.
double CpuSeconds();
/// Current resident set size of this process, in bytes.
uint64_t CurrentRssBytes();

/// The child's report to the parent: one "key value" line per entry.
class Report {
 public:
  void Set(const std::string& key, double value);
  void SetText(const std::string& key, const std::string& value);
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  double Get(const std::string& key) const;
  std::string GetText(const std::string& key) const;
  const std::map<std::string, std::string>& values() const { return values_; }

  void Write(const std::string& path) const;
  static Report Read(const std::string& path);

 private:
  std::map<std::string, std::string> values_;
};

/// A reported metric's name and unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric of the traced run, in report order. A metric of
/// a layer the workload does not run reports 0.
const std::vector<MetricSpec>& LayerMetrics();

// ---- Measured part (child process) ----

/// Runs the workload's measured loop for options.seconds, untraced, and
/// (with options.trace) the traced composition after it.
Report RunMeasured(const Options& options);

/// The traced run: composes the pipeline from the same public calls the
/// driver makes, times every layer, and adds "layer.<metric>" entries plus
/// the traced links hash ("traced_hash") to `report`. The spans of the last
/// repetition are written to options.trace_file.
void RunTraced(const Options& options, Report* report);

}  // namespace slimbench

#endif  // SLIMBENCH_BENCH_H_
