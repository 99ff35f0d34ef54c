// The measured part (child process): repetitions of the workload's
// session, untraced, for the run's time budget.
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "bench.h"
#include "core/sctx.h"
#include "data/sbin.h"
#include "serve/service.h"

namespace slimbench {
namespace {

// One repetition: a load of the inputs plus the link call(s) on them.
struct Rep {
  int ops = 0;
  int failed_ops = 0;
  double session_s = 0.0;
  double link_s = 0.0;       // the link call; serve: mean LINK latency
  double ingest_s = 0.0;     // serve: summed INGEST latency
  uint64_t records = 0;      // serve: records ingested
  std::vector<double> topk_us;  // serve: TOPK latencies
  std::vector<slim::LinkedEntityPair> links;  // the final links
  uint64_t candidate_pairs = 0;
};

// The CLI path: read both SBIN files, link.
Rep BatchRep(const Options& options, const slim::SlimLinker& linker) {
  Rep rep;
  rep.ops = 1;
  const double t0 = NowSeconds();
  auto a = slim::ReadSbin(WorkFile(options, "a.sbin"), "A");
  auto b = slim::ReadSbin(WorkFile(options, "b.sbin"), "B");
  const double t1 = NowSeconds();
  if (!a.ok() || !b.ok()) {
    rep.failed_ops = 1;
    return rep;
  }
  auto result = linker.Link(*a, *b);
  const double t2 = NowSeconds();
  if (!result.ok()) {
    rep.failed_ops = 1;
    return rep;
  }
  rep.link_s = t2 - t1;
  rep.session_s = t2 - t0;
  rep.links = std::move(result->links);
  rep.candidate_pairs = result->candidate_pairs;
  return rep;
}

// The out-of-core path: map the SCTX context (tree rebuild included), then
// the sharded driver with the spill and the streaming matcher.
Rep OutOfCoreRep(const Options& options, const slim::SlimLinker& linker) {
  Rep rep;
  rep.ops = 1;
  slim::SctxReadOptions read_options;
  read_options.build_trees = true;
  read_options.threads = kThreads;
  const double t0 = NowSeconds();
  auto context = slim::ReadSctx(WorkFile(options, "context.sctx"), read_options);
  const double t1 = NowSeconds();
  if (!context.ok()) {
    rep.failed_ops = 1;
    return rep;
  }
  auto result = linker.LinkShardedContext(*context);
  const double t2 = NowSeconds();
  if (!result.ok()) {
    rep.failed_ops = 1;
    return rep;
  }
  rep.link_s = t2 - t1;
  rep.session_s = t2 - t0;
  rep.links = std::move(result->links);
  rep.candidate_pairs = result->candidate_pairs;
  return rep;
}

// One closed-loop client replaying the session script through the
// daemon's transport-free executor.
Rep ServeRep(const std::vector<std::string>& script,
             const slim::SlimConfig& config) {
  Rep rep;
  slim::LinkageService service(config);
  int links = 0;
  const double start = NowSeconds();
  for (const std::string& line : script) {
    const double t0 = NowSeconds();
    const slim::ServeReply reply = service.Execute(line);
    const double dt = NowSeconds() - t0;
    ++rep.ops;
    if (reply.line.rfind("OK", 0) != 0) {
      ++rep.failed_ops;
      continue;
    }
    if (line.rfind("INGEST", 0) == 0) {
      rep.ingest_s += dt;
      rep.records += std::strtoull(
          reply.line.c_str() + reply.line.find('=') + 1, nullptr, 10);
    } else if (line == "LINK") {
      rep.link_s += dt;
      ++links;
    } else {
      rep.topk_us.push_back(dt * 1e6);
    }
  }
  rep.session_s = NowSeconds() - start;
  // Epoch latencies grow with the problem; their mean over the session is
  // steadier from run to run than any single epoch's.
  if (links > 0) rep.link_s /= links;
  rep.links = service.linker().links();
  return rep;
}

std::vector<std::string> ReadScript(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

}  // namespace

Report RunMeasured(const Options& options) {
  const slim::SlimConfig config = LinkConfig(options);
  const slim::SlimLinker linker(config);
  std::vector<std::string> script;
  if (options.workload == Workload::kCheckinServe) {
    script = ReadScript(WorkFile(options, "session.txt"));
  }
  auto run_rep = [&]() -> Rep {
    switch (options.workload) {
      case Workload::kCheckinBatch:
      case Workload::kCommuteBatch:
        return BatchRep(options, linker);
      case Workload::kCheckinOutOfCore:
        return OutOfCoreRep(options, linker);
      case Workload::kCheckinServe:
        return ServeRep(script, config);
    }
    throw std::logic_error("unknown workload");
  };

  // A traced run needs one untraced repetition (the reference links);
  // otherwise repeat for the time budget, at least often enough that the
  // repetitions can disagree.
  const int min_reps =
      options.trace ? 1 : (options.workload == Workload::kCheckinServe ? 2 : 3);
  const double budget = options.trace ? 0.0 : options.seconds;
  std::vector<double> link_s, session_s, ingest_rate, topk_us;
  int attempted = 0, failed = 0, reps = 0;
  uint64_t hash = 0, candidate_pairs = 0;
  const double start = NowSeconds();
  while (reps < min_reps || NowSeconds() - start < budget) {
    Rep rep = run_rep();
    attempted += rep.ops;
    failed += rep.failed_ops;
    if (rep.failed_ops > 0) {
      ++reps;
      continue;
    }
    const uint64_t h = HashLinks(rep.links);
    if (reps == 0) {
      hash = h;
      candidate_pairs = rep.candidate_pairs;
      WriteLinks(rep.links, WorkFile(options, "links.bin"));
    } else if (h != hash) {
      ++failed;  // the repetition's link call produced other links
    }
    ++reps;
    link_s.push_back(rep.link_s);
    topk_us.insert(topk_us.end(), rep.topk_us.begin(), rep.topk_us.end());
    session_s.push_back(rep.session_s);
    if (rep.ingest_s > 0.0) {
      ingest_rate.push_back(static_cast<double>(rep.records) / rep.ingest_s);
    }
  }

  Report report;
  report.Set("reps", reps);
  report.Set("attempted", attempted);
  report.Set("failed", failed);
  report.SetText("hash", std::to_string(hash));
  report.Set("candidate_pairs", static_cast<double>(candidate_pairs));
  report.SetText("kernel", slim::ScoreKernelName(
                               slim::ResolveScoreKernel(config.similarity.kernel)));
  report.Set("link_s", Median(link_s));
  report.Set("link_samples", static_cast<double>(link_s.size()));
  report.Set("session_s", Median(session_s));
  report.Set("topk_samples", static_cast<double>(topk_us.size()));
  if (options.workload == Workload::kCheckinServe) {
    // Serve-layer figures of the untraced sessions, reported with the
    // traced run's layer metrics.
    report.Set("layer.serve.ingest_rec_per_s", Median(ingest_rate));
    report.Set("layer.serve.topk_p50_us", Percentile(topk_us, 50));
    report.Set("layer.serve.topk_p99_us", Percentile(topk_us, 99));
  }

  if (options.trace) {
    RunTraced(options, &report);
  }
  return report;
}

}  // namespace slimbench
