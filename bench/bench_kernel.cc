// Scoring-kernel micro bench — the machine-readable perf record for the
// sorted-span intersection primitives (core/score_kernel.h).
//
// Times the branchless linear merge over a fixed grid of span shapes
// (balanced dense-overlap spans at two sizes plus a skewed shape) for the
// i64 window intersection and the u32 bin intersection, and writes
// BENCH_kernel.json (schema slim-bench-kernel-v1): reps, wall seconds and
// ns per processed element per (op, shape) cell, each tagged with the
// kernel name "scalar". One gate rides along:
//
//   * Regression (--baseline FILE): the ns/element of any cell more than
//     2x its committed baseline fails with exit code 1. Baseline cells of
//     other kernel names (records from before the scalar merge became the
//     only path) and of ops this bench no longer times are skipped.
//
// Flags: --quick (shorter calibration target), --out FILE (default
// BENCH_kernel.json), --baseline FILE. See docs/BENCHMARKS.md.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "eval/table.h"

namespace slim {
namespace {

constexpr double kRegressionFactor = 2.0;

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// One timed cell of the grid.
struct KernelRun {
  std::string op;     // "intersect_i64", "intersect_u32"
  std::string shape;  // "<len_a>x<len_b>"
  uint64_t reps = 0;
  double seconds = 0.0;
  double ns_per_element = 0.0;  // seconds / (reps * (len_a + len_b))
};

// The same cell as read back from a baseline document.
struct KernelRunRecord {
  std::string op;
  std::string shape;
  std::string kernel;
  double ns_per_element = -1.0;
};

// A bursty span pair modelling mobility window lists: runs of consecutive
// windows (active periods) separated by long idle gaps. A run is shared by
// both sides (a co-visited period), or private to one side, with equal
// probability — long disjoint stretches with dense match regions inside
// the shared runs.
template <typename T>
struct SpanPair {
  std::vector<T> a, b;
};

template <typename T>
SpanPair<T> MakeSpanPair(std::mt19937_64& rng, size_t len_a, size_t len_b) {
  std::uniform_int_distribution<int> run_len(8, 48);
  std::uniform_int_distribution<int> gap(16, 256);
  std::uniform_int_distribution<int> owner(0, 2);  // shared / a-only / b-only
  SpanPair<T> pair;
  T value = 0;
  while (pair.a.size() < len_a || pair.b.size() < len_b) {
    value = static_cast<T>(value + static_cast<T>(gap(rng)));
    const int len = run_len(rng);
    const int who = owner(rng);
    const bool to_a = who != 2 && pair.a.size() < len_a;
    const bool to_b = who != 1 && pair.b.size() < len_b;
    for (int k = 0; k < len; ++k) {
      value = static_cast<T>(value + 1);
      if (to_a) pair.a.push_back(value);
      if (to_b) pair.b.push_back(value);
    }
  }
  return pair;
}

// Keeps the optimizer honest across reps.
volatile uint64_t g_sink = 0;

struct Workload {
  SpanPair<int64_t> i64;
  SpanPair<uint32_t> u32;
  std::string shape;
  size_t len_a = 0, len_b = 0;
};

Workload MakeWorkload(std::mt19937_64& rng, size_t len_a, size_t len_b) {
  Workload w;
  w.len_a = len_a;
  w.len_b = len_b;
  w.shape = std::to_string(len_a) + "x" + std::to_string(len_b);
  w.i64 = MakeSpanPair<int64_t>(rng, len_a, len_b);
  w.u32 = MakeSpanPair<uint32_t>(rng, len_a, len_b);
  // Make the draws the retired IDF cells made here (two 4096-entry tables,
  // then two bin ids per matched position), so every later workload keeps
  // the spans its committed baseline cell was measured on.
  std::uniform_real_distribution<double> idf(0.1, 14.0);
  for (size_t k = 0; k < 2 * 4096; ++k) idf(rng);
  std::uniform_int_distribution<uint32_t> bin(0, 4095);
  for (size_t k = 0; k < 2 * std::min(len_a, len_b); ++k) bin(rng);
  return w;
}

// Runs `body` (which returns a checksum) in growing batches until the
// elapsed wall time reaches `target_seconds`; fills reps/seconds.
template <typename Body>
void Calibrate(double target_seconds, KernelRun* run, Body body) {
  uint64_t reps = 0;
  uint64_t batch = 1;
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  while (elapsed < target_seconds) {
    for (uint64_t r = 0; r < batch; ++r) g_sink = g_sink + body();
    reps += batch;
    elapsed = Seconds(t0);
    batch *= 2;
  }
  run->reps = reps;
  run->seconds = elapsed;
}

// Minimal reader for committed slim-bench-kernel-v1 baselines: scans for
// the emit-ordered keys of each run ("op", "shape", "kernel",
// "ns_per_element").
std::vector<KernelRunRecord> ParseKernelRuns(const std::string& json) {
  bench::WarnUnknownBenchKeys(json);
  std::vector<KernelRunRecord> runs;
  auto string_after = [&](size_t pos) -> std::string {
    const size_t open = json.find('"', json.find(':', pos));
    if (open == std::string::npos) return "";
    const size_t close = json.find('"', open + 1);
    if (close == std::string::npos) return "";
    return json.substr(open + 1, close - open - 1);
  };
  auto number_after = [&](size_t pos) -> double {
    pos = json.find(':', pos);
    return pos == std::string::npos ? -1.0
                                    : bench::ParseNumberAt(json, pos + 1);
  };
  size_t pos = 0;
  while ((pos = json.find("\"op\"", pos)) != std::string::npos) {
    KernelRunRecord run;
    run.op = string_after(pos);
    const size_t shape_pos = json.find("\"shape\"", pos);
    const size_t kernel_pos = json.find("\"kernel\"", pos);
    const size_t nspe_pos = json.find("\"ns_per_element\"", pos);
    if (shape_pos == std::string::npos || kernel_pos == std::string::npos ||
        nspe_pos == std::string::npos) {
      break;
    }
    run.shape = string_after(shape_pos);
    run.kernel = string_after(kernel_pos);
    run.ns_per_element = number_after(nspe_pos);
    runs.push_back(std::move(run));
    pos = nspe_pos + 1;
  }
  return runs;
}

int Main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_kernel.json";
  std::string baseline_path;
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
    } else if (arg == "--out" || arg.rfind("--out=", 0) == 0) {
      out_path = value("--out");
    } else if (arg == "--baseline" || arg.rfind("--baseline=", 0) == 0) {
      baseline_path = value("--baseline");
    } else {
      std::fprintf(stderr,
                   "usage: bench_kernel [--quick] [--out FILE] "
                   "[--baseline FILE]\n");
      return 2;
    }
  }
  const double target_seconds = quick ? 0.08 : 0.4;

  std::printf("==================================================\n");
  std::printf("scoring-kernel micro bench — sorted-span intersection\n");
  std::printf("==================================================\n");

  // Balanced dense-overlap spans at two sizes, plus a 128:1 skew (the
  // engine would gallop there; the cell times the linear merge).
  std::mt19937_64 rng(20260807);
  std::vector<Workload> workloads;
  workloads.push_back(MakeWorkload(rng, 256, 256));
  workloads.push_back(MakeWorkload(rng, 4096, 4096));
  workloads.push_back(MakeWorkload(rng, 128, 16384));

  TablePrinter table({"op", "shape", "kernel", "reps", "seconds",
                      "ns_per_element"});
  std::vector<KernelRun> runs;
  for (const Workload& w : workloads) {
    const size_t cap = std::min(w.len_a, w.len_b);
    std::vector<uint32_t> oa(cap), ob(cap);

    KernelRun i64_run{"intersect_i64", w.shape};
    Calibrate(target_seconds, &i64_run, [&] {
      return IntersectLinearI64(w.i64.a.data(), w.i64.a.size(),
                                w.i64.b.data(), w.i64.b.size(), oa.data(),
                                ob.data());
    });
    KernelRun u32_run{"intersect_u32", w.shape};
    Calibrate(target_seconds, &u32_run, [&] {
      return IntersectLinearU32(w.u32.a.data(), w.u32.a.size(),
                                w.u32.b.data(), w.u32.b.size(), oa.data(),
                                ob.data());
    });

    for (KernelRun* run : {&i64_run, &u32_run}) {
      const double elements = static_cast<double>(w.len_a + w.len_b);
      run->ns_per_element =
          run->seconds * 1e9 / (static_cast<double>(run->reps) * elements);
      table.AddRow({run->op, run->shape, "scalar", std::to_string(run->reps),
                    Fmt(run->seconds, 3), Fmt(run->ns_per_element, 3)});
      runs.push_back(*run);
    }
  }
  table.Print();

  // The machine-readable record.
  bench::JsonWriter json;
  json.BeginObject();
  json.Key("schema").Value("slim-bench-kernel-v1");
  json.Key("quick").Value(quick);
  json.Key("hardware_threads")
      .Value(static_cast<int>(std::thread::hardware_concurrency()));
  json.Key("runs").BeginArray();
  for (const KernelRun& run : runs) {
    json.BeginObject();
    json.Key("op").Value(run.op);
    json.Key("shape").Value(run.shape);
    json.Key("kernel").Value("scalar");
    json.Key("reps").Value(run.reps);
    json.Key("seconds").Value(run.seconds);
    json.Key("ns_per_element").Value(run.ns_per_element);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << json.str();
  out.close();
  std::printf("wrote %s (%zu runs)\n", out_path.c_str(), runs.size());

  auto find_run = [&](const std::string& op,
                      const std::string& shape) -> const KernelRun* {
    for (const KernelRun& run : runs) {
      if (run.op == op && run.shape == shape) return &run;
    }
    return nullptr;
  };

  // No-regression against the committed baseline.
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    if (!bench::BaselineSchemaReadable(buffer.str(), baseline_path.c_str(),
                                       {{"slim-bench-kernel", 1}})) {
      return 2;
    }
    const std::vector<KernelRunRecord> baseline =
        ParseKernelRuns(buffer.str());
    SLIM_CHECK_MSG(!baseline.empty(), "baseline has no runs");
    int regressions = 0, compared = 0;
    for (const KernelRunRecord& b : baseline) {
      if (b.kernel != "scalar" || b.ns_per_element <= 0.0) continue;
      const KernelRun* cur = find_run(b.op, b.shape);
      if (cur == nullptr) continue;
      ++compared;
      if (cur->ns_per_element > kRegressionFactor * b.ns_per_element) {
        std::fprintf(stderr,
                     "REGRESSION at op %s, shape %s: scalar %.3f ns/elem vs "
                     "baseline %.3f (> %.1fx)\n",
                     b.op.c_str(), b.shape.c_str(), cur->ns_per_element,
                     b.ns_per_element, kRegressionFactor);
        ++regressions;
      }
    }
    std::printf("baseline gate: %d scalar comparisons vs %s, %d regressions\n",
                compared, baseline_path.c_str(), regressions);
    if (regressions > 0) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace slim

int main(int argc, char** argv) { return slim::Main(argc, argv); }
