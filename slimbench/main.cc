// slimbench — the SLIM benchmark harness (README.md in this directory).
//
//   slimbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--trace-file PATH] [--tiny]
//
// The parent process runs set-up several times (setup_s is their median),
// then re-executes this binary with --child to run the measured part in a
// process of its own, then runs the untimed correctness checks (report.cc).
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"

namespace slimbench {
namespace {

Options ParseArgs(int argc, char** argv, bool* child) {
  Options options;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string name = value();
      for (const Workload w : {Workload::kCheckinBatch, Workload::kCommuteBatch,
                               Workload::kCheckinOutOfCore,
                               Workload::kCheckinServe}) {
        if (name == WorkloadName(w)) {
          options.workload = w;
          have_workload = true;
        }
      }
      if (!have_workload) throw std::invalid_argument("unknown workload " + name);
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else if (arg == "--trace-file") {
      options.trace_file = value();
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--child") {
      *child = true;
    } else {
      throw std::invalid_argument("unknown flag " + arg);
    }
  }
  if (!have_workload || !have_seed || options.work_dir.empty()) {
    throw std::invalid_argument(
        "usage: slimbench --workload NAME --seed N --seconds S --trace 0|1 "
        "--work-dir DIR [--trace-file PATH] [--tiny]");
  }
  return options;
}

}  // namespace

uint64_t RunChild(const Options& options) {
  std::vector<std::string> args = {
      "slimbench", "--child", "--workload", WorkloadName(options.workload),
      "--seed", std::to_string(options.seed), "--seconds",
      std::to_string(options.seconds), "--trace", options.trace ? "1" : "0",
      "--work-dir", options.work_dir};
  if (!options.trace_file.empty()) {
    args.push_back("--trace-file");
    args.push_back(options.trace_file);
  }
  if (options.tiny) args.push_back("--tiny");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  int status = 0;
  struct rusage usage {};
  if (wait4(pid, &status, 0, &usage) != pid) {
    throw std::runtime_error("wait4 failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("the measured child failed");
  }
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;  // Linux: KiB
}

}  // namespace slimbench

int main(int argc, char** argv) {
  using namespace slimbench;
  try {
    bool child = false;
    const Options options = ParseArgs(argc, argv, &child);
    SetSpillDirectory(options.work_dir);
    if (child) {
      RunMeasured(options).Write(WorkFile(options, "child.txt"));
      return 0;
    }
    return RunParent(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "slimbench: %s\n", e.what());
    return 2;
  }
}
