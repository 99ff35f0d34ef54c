// The traced run: each workload's pipeline composed from the same public
// calls its driver makes, in the same order, with a span around every
// layer and counters read at the same boundaries.
//
//   batch      — LinkageContext::Build, MakeCandidateGenerator, ScoreIndexed
//                under ParallelFor, the PairEdgeOrder sort + BipartiteGraph,
//                GreedyMaxWeightMatching, DetectStopThreshold
//                (SlimLinker::Link).
//   out-of-core — ReadSctx, then per L x K block MakeShardCandidateGenerator,
//                scoring and EdgeSpill::Append; EdgeSpill::Seal, the
//                score-ordered Scan into StreamingGreedyMatcher, and
//                DetectStopThreshold (SlimLinker::LinkShardedContext).
//   serve      — IncrementalLinker::Ingest / LinkEpoch / TopK in the order
//                of the session script (LinkageService::Execute minus the
//                protocol), reading EpochStats after every epoch.
//
// The traced links must hash equal to the untraced run's. Two probes run
// outside the traced session: LSH signatures alone over the final context
// (candidates.signatures_s) and INGEST parsing alone (serve.parse_s).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>

#include "bench.h"
#include "common/parallel.h"
#include "common/resource.h"
#include "core/candidates.h"
#include "core/edge_spill.h"
#include "core/incremental.h"
#include "core/sctx.h"
#include "core/sharded.h"
#include "core/similarity.h"
#include "core/threshold.h"
#include "data/sbin.h"
#include "serve/protocol.h"
#include "trace.h"

namespace slimbench {
namespace {

using Layer = std::map<std::string, double>;

constexpr double kMb = 1 << 20;

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The scoring loop of both drivers: left entities [left_begin, left_end)
// against their candidates, per-thread edges and stats, stats merged in
// shard order.
std::vector<std::vector<slim::WeightedEdge>> ScoreBlock(
    const slim::LinkageContext& ctx, const slim::CandidateGenerator& generator,
    const slim::SimilarityEngine& engine, slim::EntityIdx left_begin,
    slim::EntityIdx left_end, slim::SimilarityStats* stats) {
  std::vector<std::vector<slim::WeightedEdge>> edges(kThreads);
  std::vector<slim::SimilarityStats> shard_stats(kThreads);
  slim::ParallelFor(
      left_end - left_begin,
      [&](size_t begin, size_t end, int shard) {
        auto& out = edges[static_cast<size_t>(shard)];
        auto& st = shard_stats[static_cast<size_t>(shard)];
        slim::CellDistanceCache cache;
        slim::ScoreScratch scratch;
        for (size_t k = begin; k < end; ++k) {
          const slim::EntityIdx u = left_begin + static_cast<slim::EntityIdx>(k);
          const slim::EntityId u_id = ctx.store_e.entity_id(u);
          for (const slim::EntityIdx v : generator.CandidatesFor(u)) {
            const double s = engine.ScoreIndexed(u, v, &st, &cache, &scratch);
            if (s > 0.0) out.push_back({u_id, ctx.store_i.entity_id(v), s});
          }
        }
        st.cache_hits += cache.hits();
        st.cache_misses += cache.misses();
      },
      kThreads);
  for (const slim::SimilarityStats& st : shard_stats) *stats += st;
  return edges;
}

// The stop threshold over the matched weights and the final (u, v)-sorted
// links, as both drivers' seal tail applies them.
std::vector<slim::LinkedEntityPair> ApplyThreshold(
    const slim::SlimConfig& config, const slim::Matching& matching) {
  std::vector<double> weights;
  weights.reserve(matching.pairs.size());
  for (const auto& e : matching.pairs) weights.push_back(e.weight);
  double cutoff = -std::numeric_limits<double>::infinity();
  if (config.apply_stop_threshold) {
    auto decision = slim::DetectStopThreshold(weights, config.threshold_method);
    if (decision.ok()) cutoff = decision->threshold;
  }
  std::vector<slim::LinkedEntityPair> links;
  for (const auto& e : matching.pairs) {
    if (e.weight > cutoff) links.push_back({e.u, e.v, e.weight});
  }
  std::sort(links.begin(), links.end(),
            [](const slim::LinkedEntityPair& a, const slim::LinkedEntityPair& b) {
              if (a.u != b.u) return a.u < b.u;
              return a.v < b.v;
            });
  return links;
}

// Ground-truth pairs whose two ends the generator pairs up, restricted to
// the generator's block.
uint64_t TruePairHits(const slim::LinkageContext& ctx,
                      const slim::GroundTruth& truth,
                      const slim::CandidateGenerator& generator,
                      std::pair<slim::EntityIdx, slim::EntityIdx> lefts,
                      std::pair<slim::EntityIdx, slim::EntityIdx> rights) {
  uint64_t hits = 0;
  for (const auto& [a, b] : truth.a_to_b) {
    const auto u = ctx.store_e.IndexOf(a);
    const auto v = ctx.store_i.IndexOf(b);
    if (!u || !v || *u < lefts.first || *u >= lefts.second ||
        *v < rights.first || *v >= rights.second) {
      continue;
    }
    const auto list = generator.CandidatesFor(*u);
    hits += std::binary_search(list.begin(), list.end(), *v) ? 1 : 0;
  }
  return hits;
}

// Probe: every signature of the context on the global query grid, alone.
double SignatureSeconds(const slim::LinkageContext& ctx,
                        const slim::LshConfig& lsh) {
  const slim::LshWindowSpan span = slim::GlobalWindowSpan(ctx);
  const size_t lefts = ctx.store_e.size();
  std::vector<slim::LshSignature> signatures(lefts + ctx.store_i.size());
  const double t0 = NowSeconds();
  slim::ParallelFor(
      signatures.size(),
      [&](size_t begin, size_t end, int) {
        for (size_t k = begin; k < end; ++k) {
          const slim::WindowSegmentTree& tree =
              k < lefts ? ctx.store_e.tree(static_cast<slim::EntityIdx>(k))
                        : ctx.store_i.tree(static_cast<slim::EntityIdx>(k - lefts));
          signatures[k] = slim::BuildSignature(tree, span.lo, span.end,
                                               lsh.temporal_step_windows,
                                               lsh.signature_spatial_level);
        }
      },
      kThreads);
  return NowSeconds() - t0;
}

// Layer metrics every composition derives the same way from its spans.
void SpanMetrics(const Tracer& tracer, Layer* m) {
  auto util = [&](const char* span) {
    return Ratio(tracer.Cpu(span), tracer.Seconds(span) * kThreads);
  };
  (*m)["candidates.index_s"] = tracer.Seconds("candidates");
  (*m)["candidates.cpu_util"] = util("candidates");
  (*m)["scoring.s"] = tracer.Seconds("scoring");
  (*m)["scoring.cpu_util"] = util("scoring");
  (*m)["matching.s"] = tracer.Seconds("matching");
  (*m)["threshold.s"] = tracer.Seconds("threshold");
}

void ScoringCounters(const slim::SimilarityStats& stats, uint64_t pairs,
                     uint64_t edges, Layer* m) {
  (*m)["candidates.pairs"] = static_cast<double>(pairs);
  (*m)["candidates.list_mb"] =
      static_cast<double>(pairs * sizeof(slim::EntityIdx)) / kMb;
  (*m)["scoring.ns_per_pair"] = Ratio((*m)["scoring.s"] * 1e9,
                                      static_cast<double>(pairs));
  (*m)["scoring.edge_yield"] = Ratio(static_cast<double>(edges),
                                     static_cast<double>(pairs));
  (*m)["scoring.record_comparisons"] =
      static_cast<double>(stats.record_comparisons);
  (*m)["scoring.alibi_pairs"] = static_cast<double>(stats.alibi_pairs);
  (*m)["scoring.cache_hit_ratio"] =
      Ratio(static_cast<double>(stats.cache_hits),
            static_cast<double>(stats.cache_hits + stats.cache_misses));
  (*m)["matching.edges"] = static_cast<double>(edges);
  (*m)["matching.graph_mb"] =
      static_cast<double>(edges * sizeof(slim::WeightedEdge)) / kMb;
}

// SlimLinker::Link, layer by layer.
Layer TracedBatch(const Options& options, const slim::GroundTruth& truth,
                  Tracer* tracer, int* root,
                  std::vector<slim::LinkedEntityPair>* links) {
  const slim::SlimConfig config = LinkConfig(options);
  auto a = slim::ReadSbin(WorkFile(options, "a.sbin"), "A");
  auto b = slim::ReadSbin(WorkFile(options, "b.sbin"), "B");
  if (!a.ok() || !b.ok()) throw std::runtime_error("cannot read the inputs");

  Layer m;
  slim::LinkageContext ctx;
  std::unique_ptr<slim::CandidateGenerator> generator;
  slim::SimilarityStats stats;
  uint64_t edge_count = 0;
  slim::Matching matching;
  {
    Scope session(tracer, "link");
    *root = static_cast<int>(tracer->spans().size()) - 1;
    const uint64_t rss0 = CurrentRssBytes();
    {
      Scope s(tracer, "context");
      ctx = slim::LinkageContext::Build(*a, *b, config.history, kThreads);
    }
    const uint64_t rss1 = CurrentRssBytes();
    m["context.rss_mb"] = static_cast<double>(rss1 > rss0 ? rss1 - rss0 : 0) / kMb;
    {
      Scope s(tracer, "candidates");
      generator = slim::MakeCandidateGenerator(config.candidates, ctx,
                                               config.lsh, config.grid, kThreads);
    }
    std::vector<slim::WeightedEdge> edges;
    {
      Scope s(tracer, "scoring");
      const slim::SimilarityEngine engine(ctx, config.similarity);
      auto shards = ScoreBlock(ctx, *generator, engine, 0,
                               static_cast<slim::EntityIdx>(ctx.store_e.size()),
                               &stats);
      size_t total = 0;
      for (const auto& shard : shards) total += shard.size();
      edges.reserve(total);
      for (const auto& shard : shards) {
        edges.insert(edges.end(), shard.begin(), shard.end());
      }
    }
    edge_count = edges.size();
    slim::BipartiteGraph graph;
    {
      Scope s(tracer, "seal");
      std::sort(edges.begin(), edges.end(), slim::PairEdgeOrder);
      graph = slim::BipartiteGraph(std::move(edges));
    }
    {
      Scope s(tracer, "matching");
      matching = slim::GreedyMaxWeightMatching(graph);
    }
    {
      Scope s(tracer, "threshold");
      *links = ApplyThreshold(config, matching);
    }
  }

  SpanMetrics(*tracer, &m);
  const uint64_t pairs = generator->total_candidate_pairs();
  const double possible = static_cast<double>(ctx.store_e.size()) *
                          static_cast<double>(ctx.store_i.size());
  m["context.build_s"] = tracer->Seconds("context");
  m["context.cpu_util"] =
      Ratio(tracer->Cpu("context"), tracer->Seconds("context") * kThreads);
  m["context.bins"] = static_cast<double>(ctx.vocab.size());
  m["candidates.blocks"] = 1;
  m["candidates.keep_ratio"] = Ratio(static_cast<double>(pairs), possible);
  m["candidates.true_pair_recall"] = Ratio(
      static_cast<double>(TruePairHits(
          ctx, truth, *generator,
          {0, static_cast<slim::EntityIdx>(ctx.store_e.size())},
          {0, static_cast<slim::EntityIdx>(ctx.store_i.size())})),
      static_cast<double>(truth.size()));
  m["seal.sort_s"] = tracer->Seconds("seal");
  m["matching.pairs"] = static_cast<double>(matching.pairs.size());
  m["threshold.kept_ratio"] = Ratio(static_cast<double>(links->size()),
                                    static_cast<double>(matching.pairs.size()));
  ScoringCounters(stats, pairs, edge_count, &m);
  generator.reset();
  m["candidates.signatures_s"] = SignatureSeconds(ctx, config.lsh);
  return m;
}

// SlimLinker::LinkShardedContext over the mapped SCTX context, layer by
// layer.
Layer TracedOutOfCore(const Options& options, const slim::GroundTruth& truth,
                      Tracer* tracer, int* root,
                      std::vector<slim::LinkedEntityPair>* links) {
  const slim::SlimConfig config = LinkConfig(options);
  const std::string sctx_path = WorkFile(options, "context.sctx");
  Layer m;
  slim::LinkageContext ctx;
  slim::SimilarityStats stats;
  uint64_t pairs = 0, hits = 0;
  slim::Matching matching;
  std::unique_ptr<slim::EdgeSpill> spill;
  int blocks = 0;
  {
    Scope session(tracer, "session");
    *root = static_cast<int>(tracer->spans().size()) - 1;
    {
      Scope s(tracer, "sctx.map");
      slim::SctxReadOptions read_options;
      read_options.build_trees = true;
      read_options.threads = kThreads;
      auto loaded = slim::ReadSctx(sctx_path, read_options);
      if (!loaded.ok()) throw std::runtime_error(loaded.status().ToString());
      ctx = std::move(loaded.value());
    }
    const slim::ShardPlan plan =
        slim::EstimateShardPlan(ctx, config, slim::CurrentPeakRssBytes());
    const slim::SimilarityEngine engine(ctx, config.similarity);
    slim::EdgeSpillOptions spill_options;
    spill_options.to_disk = plan.left_shards * plan.shards > 1;
    spill_options.run_bytes = static_cast<size_t>(config.spill_run_bytes);
    spill_options.run_order = slim::EdgeOrder::kScore;
    spill = std::make_unique<slim::EdgeSpill>(spill_options);
    for (const auto& left : plan.left_ranges) {
      for (const auto& right : plan.ranges) {
        ++blocks;
        std::unique_ptr<slim::CandidateGenerator> generator;
        {
          Scope s(tracer, "candidates");
          generator = slim::MakeShardCandidateGenerator(
              config.candidates, ctx, config.lsh, config.grid, left.first,
              left.second, right.first, right.second, kThreads);
        }
        pairs += generator->total_candidate_pairs();
        std::vector<std::vector<slim::WeightedEdge>> edges;
        {
          Scope s(tracer, "scoring");
          edges = ScoreBlock(ctx, *generator, engine, left.first, left.second,
                             &stats);
        }
        {
          Scope s(tracer, "spill.append");
          for (auto& shard : edges) spill->Append(std::move(shard));
        }
        {
          Scope s(tracer, "probe.recall");
          hits += TruePairHits(ctx, truth, *generator, left, right);
        }
      }
    }
    {
      Scope s(tracer, "spill.seal");
      const slim::Status st = spill->Seal();
      if (!st.ok()) throw std::runtime_error(st.ToString());
    }
    {
      Scope s(tracer, "matching");
      slim::StreamingGreedyMatcher matcher;
      const slim::Status st = spill->Scan(
          slim::EdgeOrder::kScore,
          [&matcher](const slim::WeightedEdge& e) { matcher.Offer(e); });
      if (!st.ok()) throw std::runtime_error(st.ToString());
      matching = matcher.Take();
    }
    {
      Scope s(tracer, "threshold");
      *links = ApplyThreshold(config, matching);
    }
  }

  SpanMetrics(*tracer, &m);
  std::error_code ec;
  m["sctx.map_s"] = tracer->Seconds("sctx.map");
  m["sctx.file_mb"] =
      static_cast<double>(std::filesystem::file_size(sctx_path, ec)) / kMb;
  m["context.bins"] = static_cast<double>(ctx.vocab.size());
  m["candidates.blocks"] = blocks;
  m["candidates.keep_ratio"] =
      Ratio(static_cast<double>(pairs), static_cast<double>(ctx.store_e.size()) *
                                            static_cast<double>(ctx.store_i.size()));
  m["candidates.true_pair_recall"] =
      Ratio(static_cast<double>(hits), static_cast<double>(truth.size()));
  // Run sorting and spilling happen inside Append; Seal flushes the last
  // run. Both are the spill's write side.
  m["spill.seal_s"] =
      tracer->Seconds("spill.append") + tracer->Seconds("spill.seal");
  m["spill.edges"] = static_cast<double>(spill->size());
  m["spill.bytes_mb"] = static_cast<double>(spill->spill_bytes_written()) / kMb;
  m["spill.runs"] = static_cast<double>(spill->run_count());
  m["spill.merge_passes"] = spill->merge_passes();
  m["matching.pairs"] = static_cast<double>(matching.pairs.size());
  m["threshold.kept_ratio"] = Ratio(static_cast<double>(links->size()),
                                    static_cast<double>(matching.pairs.size()));
  ScoringCounters(stats, pairs, spill->size(), &m);
  m["candidates.signatures_s"] = SignatureSeconds(ctx, config.lsh);
  return m;
}

// The serve session through IncrementalLinker, in script order.
Layer TracedServe(const Options& options, const slim::GroundTruth& truth,
                  Tracer* tracer, int* root,
                  std::vector<slim::LinkedEntityPair>* links) {
  const slim::SlimConfig config = LinkConfig(options);
  std::vector<std::string> script;
  {
    std::ifstream in(WorkFile(options, "session.txt"));
    std::string line;
    while (std::getline(in, line)) script.push_back(line);
  }
  Layer m;
  // Probe: protocol parsing alone, over every INGEST line.
  std::vector<slim::ServeCommand> commands(script.size());
  const double t0 = NowSeconds();
  for (size_t k = 0; k < script.size(); ++k) {
    if (script[k].rfind("INGEST", 0) != 0) continue;
    auto parsed = slim::ParseServeCommand(script[k]);
    if (!parsed.ok()) throw std::runtime_error(parsed.status().ToString());
    commands[k] = std::move(parsed.value());
  }
  m["serve.parse_s"] = NowSeconds() - t0;
  for (size_t k = 0; k < script.size(); ++k) {
    if (script[k].rfind("INGEST", 0) == 0) continue;
    auto parsed = slim::ParseServeCommand(script[k]);
    if (!parsed.ok()) throw std::runtime_error(parsed.status().ToString());
    commands[k] = std::move(parsed.value());
  }

  slim::IncrementalLinker linker(config);
  slim::SimilarityStats stats;
  uint64_t pairs = 0, edges = 0, matched = 0, scored = 0, reused = 0;
  uint64_t last_matched = 0;
  uint64_t signatures_reused = 0, indexed = 0;
  int rescored = 0;
  double compact_s = 0.0, lsh_s = 0.0, scoring_s = 0.0, matching_s = 0.0;
  {
    Scope session(tracer, "session");
    *root = static_cast<int>(tracer->spans().size()) - 1;
    size_t k = 0;
    while (k < commands.size()) {
      const slim::ServeCommand& cmd = commands[k];
      if (cmd.kind == slim::ServeCommandKind::kIngest) {
        Scope s(tracer, "incremental.append");
        linker.Ingest(cmd.side, cmd.records);
        ++k;
      } else if (cmd.kind == slim::ServeCommandKind::kLink) {
        Scope s(tracer, "incremental.link_epoch");
        auto epoch = linker.LinkEpoch();
        if (!epoch.ok()) throw std::runtime_error(epoch.status().ToString());
        const slim::LinkageResult& r = epoch->linkage;
        const slim::EpochStats& e = epoch->incremental;
        compact_s += r.seconds_histories;
        lsh_s += r.seconds_lsh;
        scoring_s += r.seconds_scoring;
        matching_s += r.seconds_matching;
        stats += r.stats;
        pairs += r.candidate_pairs;
        edges += r.graph.num_edges();
        matched += r.matching.pairs.size();
        last_matched = r.matching.pairs.size();
        scored += e.pairs_scored;
        reused += e.pairs_reused;
        signatures_reused += e.signatures_reused;
        indexed += linker.context().store_e.size() + linker.context().store_i.size();
        rescored += e.rescored_all ? 1 : 0;
        ++k;
      } else {
        // A run of TOPK queries is one span: each query is microseconds.
        Scope s(tracer, "serve.topk");
        for (; k < commands.size() &&
               commands[k].kind == slim::ServeCommandKind::kTopK;
             ++k) {
          linker.TopK(commands[k].entity, commands[k].k);
        }
      }
    }
  }
  *links = linker.links();

  m["incremental.append_s"] = tracer->Seconds("incremental.append");
  m["incremental.compact_s"] = compact_s;
  m["incremental.pairs_reused_ratio"] =
      Ratio(static_cast<double>(reused), static_cast<double>(reused + scored));
  m["incremental.signatures_reused_ratio"] =
      Ratio(static_cast<double>(signatures_reused), static_cast<double>(indexed));
  m["incremental.rescored_epochs"] = rescored;
  m["candidates.index_s"] = lsh_s;
  m["scoring.s"] = scoring_s;
  m["matching.s"] = matching_s;
  m["matching.pairs"] = static_cast<double>(matched);
  m["threshold.kept_ratio"] = Ratio(static_cast<double>(links->size()),
                                    static_cast<double>(last_matched));
  ScoringCounters(stats, pairs, edges, &m);

  // The final epoch's candidate set equals a batch build over the live
  // context (the incremental bit-identity contract), so the probes read it.
  const slim::LinkageContext& ctx = linker.context();
  m["context.bins"] = static_cast<double>(ctx.vocab.size());
  m["candidates.blocks"] = 1;
  const auto generator = slim::MakeCandidateGenerator(
      config.candidates, ctx, config.lsh, config.grid, kThreads);
  m["candidates.keep_ratio"] =
      Ratio(static_cast<double>(generator->total_candidate_pairs()),
            static_cast<double>(ctx.store_e.size()) *
                static_cast<double>(ctx.store_i.size()));
  m["candidates.true_pair_recall"] = Ratio(
      static_cast<double>(TruePairHits(
          ctx, truth, *generator,
          {0, static_cast<slim::EntityIdx>(ctx.store_e.size())},
          {0, static_cast<slim::EntityIdx>(ctx.store_i.size())})),
      static_cast<double>(truth.size()));
  m["candidates.signatures_s"] = SignatureSeconds(ctx, config.lsh);
  return m;
}

}  // namespace

const std::vector<MetricSpec>& LayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"context.build_s", "s"},
      {"context.cpu_util", "ratio"},
      {"context.bins", "count"},
      {"context.rss_mb", "MB"},
      {"candidates.signatures_s", "s"},
      {"candidates.index_s", "s"},
      {"candidates.band_gather_s", "s"},
      {"candidates.cpu_util", "ratio"},
      {"candidates.pairs", "count"},
      {"candidates.keep_ratio", "ratio"},
      {"candidates.list_mb", "MB"},
      {"candidates.blocks", "count"},
      {"candidates.true_pair_recall", "ratio"},
      {"scoring.s", "s"},
      {"scoring.cpu_util", "ratio"},
      {"scoring.ns_per_pair", "ns"},
      {"scoring.edge_yield", "ratio"},
      {"scoring.record_comparisons", "count"},
      {"scoring.alibi_pairs", "count"},
      {"scoring.cache_hit_ratio", "ratio"},
      {"seal.sort_s", "s"},
      {"matching.s", "s"},
      {"matching.edges", "count"},
      {"matching.pairs", "count"},
      {"matching.graph_mb", "MB"},
      {"threshold.s", "s"},
      {"threshold.kept_ratio", "ratio"},
      {"sctx.write_s", "s"},
      {"sctx.map_s", "s"},
      {"sctx.file_mb", "MB"},
      {"spill.seal_s", "s"},
      {"spill.edges", "count"},
      {"spill.bytes_mb", "MB"},
      {"spill.runs", "count"},
      {"spill.merge_passes", "count"},
      {"incremental.append_s", "s"},
      {"incremental.compact_s", "s"},
      {"incremental.pairs_reused_ratio", "ratio"},
      {"incremental.signatures_reused_ratio", "ratio"},
      {"incremental.rescored_epochs", "count"},
      {"serve.parse_s", "s"},
      {"serve.ingest_rec_per_s", "1/s"},
      {"serve.topk_p50_us", "us"},
      {"serve.topk_p99_us", "us"},
      {"trace.untraced_share", "ratio"},
      {"trace.wall_s", "s"},
  };
  return kMetrics;
}

void RunTraced(const Options& options, Report* report) {
  const slim::GroundTruth truth = ReadTruth(WorkFile(options, "truth.bin"));
  std::vector<Layer> reps;
  uint64_t traced_hash = 0;
  int mismatches = 0;
  const double start = NowSeconds();
  do {
    Tracer tracer;
    int root = -1;
    std::vector<slim::LinkedEntityPair> links;
    Layer m;
    switch (options.workload) {
      case Workload::kCheckinBatch:
      case Workload::kCommuteBatch:
        m = TracedBatch(options, truth, &tracer, &root, &links);
        break;
      case Workload::kCheckinOutOfCore:
        m = TracedOutOfCore(options, truth, &tracer, &root, &links);
        break;
      case Workload::kCheckinServe:
        m = TracedServe(options, truth, &tracer, &root, &links);
        break;
    }
    const uint64_t h = HashLinks(links);
    if (reps.empty()) traced_hash = h;
    if (h != traced_hash) ++mismatches;
    m["candidates.band_gather_s"] =
        m["candidates.index_s"] - m["candidates.signatures_s"];
    m["trace.untraced_share"] =
        Ratio(tracer.SelfSeconds(root), tracer.spans()[static_cast<size_t>(root)].duration());
    m["trace.wall_s"] = tracer.spans()[static_cast<size_t>(root)].duration();
    reps.push_back(std::move(m));
    if (!options.trace_file.empty() &&
        !tracer.WriteChromeJson(options.trace_file)) {
      throw std::runtime_error("cannot write " + options.trace_file);
    }
  } while (NowSeconds() - start < options.seconds);

  for (const MetricSpec& spec : LayerMetrics()) {
    std::vector<double> values;
    for (const Layer& m : reps) {
      const auto it = m.find(spec.name);
      if (it != m.end()) values.push_back(it->second);
    }
    if (!values.empty()) report->Set(std::string("layer.") + spec.name, Median(values));
  }
  report->SetText("traced_hash", std::to_string(traced_hash));
  report->Set("traced_reps", static_cast<double>(reps.size()));
  report->Set("traced_mismatches", mismatches);
}

}  // namespace slimbench
