// Helpers shared by the parent and child sides of the harness.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.h"
#include "common/strings.h"

namespace slimbench {

Sizes SizesFor(const Options& options) {
  if (options.tiny) {
    // Small enough for seconds per workload, large enough that the
    // threshold detector fits and the out-of-core plan spills and merges.
    return {.checkin_per_side = 600,
            .commute_per_side = 40,
            .serve_per_side = 300,
            .serve_epochs = 5,
            .topk_per_epoch = 20,
            .outofcore_left_shards = 2,
            .outofcore_right_shards = 3,
            .spill_run_bytes = uint64_t{16} << 10};
  }
  return {.checkin_per_side = 30000,
          .commute_per_side = 2000,
          .serve_per_side = 10000,
          .serve_epochs = 20,
          .topk_per_epoch = 500,
          .outofcore_left_shards = 2,
          .outofcore_right_shards = 8,
          .spill_run_bytes = uint64_t{8} << 20};
}

slim::SlimConfig LinkConfig(const Options& options) {
  slim::SlimConfig config;  // stock LSH defaults
  config.threads = kThreads;
  if (options.workload == Workload::kCheckinOutOfCore) {
    const Sizes sizes = SizesFor(options);
    config.left_shards = sizes.outofcore_left_shards;
    config.shards = sizes.outofcore_right_shards;
    config.keep_graph = false;
    config.spill_run_bytes = sizes.spill_run_bytes;
  }
  return config;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kCheckinBatch:
      return "checkin_batch";
    case Workload::kCommuteBatch:
      return "commute_batch";
    case Workload::kCheckinOutOfCore:
      return "checkin_outofcore";
    case Workload::kCheckinServe:
      return "checkin_serve";
  }
  return "unknown";
}

std::string WorkFile(const Options& options, const char* name) {
  return options.work_dir + "/" + name;
}

uint64_t HashLinks(const std::vector<slim::LinkedEntityPair>& links) {
  uint64_t h = 1469598103934665603ull;
  for (const auto& link : links) {
    const std::string line = std::to_string(link.u) + "," +
                             std::to_string(link.v) + "," +
                             slim::FormatFixed(link.score, 17) + "\n";
    for (const char c : line) {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
  }
  return h;
}

namespace {

template <typename T>
void WriteRaw(const std::vector<T>& items, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  const size_t written = std::fwrite(items.data(), sizeof(T), items.size(), out);
  if (std::fclose(out) != 0 || written != items.size()) {
    throw std::runtime_error("short write to " + path);
  }
}

template <typename T>
std::vector<T> ReadRaw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  if (bytes.size() % sizeof(T) != 0) {
    throw std::runtime_error("truncated " + path);
  }
  std::vector<T> items(bytes.size() / sizeof(T));
  std::copy(bytes.begin(), bytes.end(),
            reinterpret_cast<char*>(items.data()));
  return items;
}

}  // namespace

void WriteTruth(const slim::GroundTruth& truth, const std::string& path) {
  std::vector<std::array<slim::EntityId, 2>> pairs;
  for (const auto& [a, b] : truth.a_to_b) pairs.push_back({a, b});
  std::sort(pairs.begin(), pairs.end());
  WriteRaw(pairs, path);
}

slim::GroundTruth ReadTruth(const std::string& path) {
  slim::GroundTruth truth;
  for (const auto& [a, b] :
       ReadRaw<std::array<slim::EntityId, 2>>(path)) {
    truth.a_to_b.emplace(a, b);
  }
  return truth;
}

void WriteLinks(const std::vector<slim::LinkedEntityPair>& links,
                const std::string& path) {
  WriteRaw(links, path);
}

std::vector<slim::LinkedEntityPair> ReadLinks(const std::string& path) {
  return ReadRaw<slim::LinkedEntityPair>(path);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

uint64_t CurrentRssBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

void Report::Set(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  values_[key] = buf;
}

void Report::SetText(const std::string& key, const std::string& value) {
  values_[key] = value;
}

double Report::Get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) throw std::runtime_error("report lacks " + key);
  return std::strtod(it->second.c_str(), nullptr);
}

std::string Report::GetText(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) throw std::runtime_error("report lacks " + key);
  return it->second;
}

void Report::Write(const std::string& path) const {
  std::ofstream out(path);
  for (const auto& [key, value] : values_) out << key << ' ' << value << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

Report Report::Read(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  Report report;
  std::string line;
  while (std::getline(in, line)) {
    const size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    report.values_[line.substr(0, space)] = line.substr(space + 1);
  }
  return report;
}

}  // namespace slimbench
