// The sharded linkage driver's contract (core/sharded.h):
//
//   * Link is bit-identical to its default one-block run at every
//     (left shards x right shards x threads), for every candidate
//     generator — including against the committed pre-refactor goldens
//     (tests/golden/), and with the graph-free streaming matcher.
//   * Block-restricted candidate generators are exact restrictions of the
//     monolithic candidate set (the union over an L x K block partition
//     reproduces it).
//   * The shard planner covers [0, rights) with balanced contiguous
//     ranges, honors explicit counts, and derives counts from the memory
//     budget.
//   * The external edge sort (core/edge_spill.h) replays every appended
//     edge exactly once in both global orders, on disk and in memory,
//     degrades to memory when no spill file can be created, and surfaces a
//     corrupt spill as IoError instead of crashing.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/resource.h"
#include "core/edge_spill.h"
#include "slim.h"

namespace slim {
namespace {

// The same SM-style workload test_determinism shards over: big enough that
// every parallel stage actually shards, and that 7 right shards are all
// non-trivial.
const LinkedPairSample& Sample() {
  static const LinkedPairSample* sample = [] {
    CheckinGeneratorOptions gen;
    gen.num_users = 500;
    gen.seed = 77;
    const LocationDataset master = GenerateCheckinDataset(gen);
    PairSampleOptions sampling;
    sampling.entities_per_side = 220;
    sampling.intersection_ratio = 0.5;
    sampling.inclusion_probability = 0.5;
    sampling.seed = 78;
    auto s = SampleLinkedPair(master, sampling);
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    return new LinkedPairSample(std::move(s.value()));
  }();
  return *sample;
}

void ExpectIdenticalResults(const LinkageResult& a, const LinkageResult& b,
                            const std::string& label) {
  // Doubles compare exactly: bit-identical is the contract, not "close".
  EXPECT_EQ(a.links, b.links) << label;
  EXPECT_EQ(a.matching.pairs, b.matching.pairs) << label;
  EXPECT_DOUBLE_EQ(a.matching.total_weight, b.matching.total_weight) << label;
  EXPECT_EQ(a.graph.edges(), b.graph.edges()) << label;
  EXPECT_EQ(a.candidate_pairs, b.candidate_pairs) << label;
  EXPECT_EQ(a.possible_pairs, b.possible_pairs) << label;
  EXPECT_EQ(a.stats.record_comparisons, b.stats.record_comparisons) << label;
  EXPECT_EQ(a.stats.alibi_pairs, b.stats.alibi_pairs) << label;
  EXPECT_EQ(a.stats.entity_pairs, b.stats.entity_pairs) << label;
  // The hit/miss split depends on sharding (each block warms its own
  // cache); only the sum is invariant — same contract as thread counts.
  EXPECT_EQ(a.stats.cache_hits + a.stats.cache_misses,
            b.stats.cache_hits + b.stats.cache_misses)
      << label;
  EXPECT_EQ(a.threshold_valid, b.threshold_valid) << label;
  if (a.threshold_valid && b.threshold_valid) {
    EXPECT_DOUBLE_EQ(a.threshold.threshold, b.threshold.threshold) << label;
  }
}

// ---- Shard planning. ----

TEST(ShardPlan, FixedCoversBalancedContiguousRanges) {
  const ShardPlan plan = ShardPlan::Fixed(23, 5);
  ASSERT_EQ(plan.shards, 5);
  ASSERT_EQ(plan.ranges.size(), 5u);
  EntityIdx expected_begin = 0;
  size_t min_size = 23, max_size = 0;
  for (const auto& [begin, end] : plan.ranges) {
    EXPECT_EQ(begin, expected_begin);
    ASSERT_LT(begin, end);
    min_size = std::min<size_t>(min_size, end - begin);
    max_size = std::max<size_t>(max_size, end - begin);
    expected_begin = end;
  }
  EXPECT_EQ(expected_begin, 23u);
  EXPECT_LE(max_size - min_size, 1u);
}

TEST(ShardPlan, FixedClampsToTheRightStore) {
  const ShardPlan plan = ShardPlan::Fixed(3, 100);
  EXPECT_EQ(plan.shards, 3);
  ASSERT_EQ(plan.ranges.size(), 3u);
  EXPECT_EQ(plan.ranges.front(), (std::pair<EntityIdx, EntityIdx>{0, 1}));

  const ShardPlan empty = ShardPlan::Fixed(0, 4);
  EXPECT_EQ(empty.shards, 1);
  ASSERT_EQ(empty.ranges.size(), 1u);
  EXPECT_EQ(empty.ranges.front(), (std::pair<EntityIdx, EntityIdx>{0, 0}));

  const ShardPlan nonpositive = ShardPlan::Fixed(9, 0);
  EXPECT_EQ(nonpositive.shards, 1);
}

TEST(ShardPlan, BudgetDerivesTheShardCount) {
  const LinkageContext ctx =
      LinkageContext::Build(Sample().a, Sample().b, HistoryConfig{}, 1);
  SlimConfig config;

  // Explicit count wins over any budget.
  config.shards = 3;
  config.shard_memory_budget_bytes = 1;
  EXPECT_EQ(EstimateShardPlan(ctx, config, 0).shards, 3);

  // No count, no budget: one shard.
  config.shards = 0;
  config.shard_memory_budget_bytes = 0;
  EXPECT_EQ(EstimateShardPlan(ctx, config, 0).shards, 1);

  // A huge budget needs no sharding; a tiny one shards hard (clamped to
  // the store size).
  config.shard_memory_budget_bytes = uint64_t{1} << 40;
  EXPECT_EQ(EstimateShardPlan(ctx, config, 0).shards, 1);
  config.shard_memory_budget_bytes = 1;
  const ShardPlan tight = EstimateShardPlan(ctx, config, 0);
  EXPECT_EQ(tight.shards, static_cast<int>(ctx.store_i.size()));
  EXPECT_GT(tight.per_entity_bytes, 0u);

  // Monotone: a bigger budget never yields more shards.
  config.shard_memory_budget_bytes = 1u << 20;
  const int k_small_budget = EstimateShardPlan(ctx, config, 0).shards;
  config.shard_memory_budget_bytes = 8u << 20;
  EXPECT_LE(EstimateShardPlan(ctx, config, 0).shards, k_small_budget);
}

TEST(ShardPlan, PerEntityEstimateHasAFloor) {
  const LinkageContext ctx =
      LinkageContext::Build(Sample().a, Sample().b, HistoryConfig{}, 1);
  EXPECT_GE(EstimateBlockBytesPerEntity(ctx, 0), 64u);
  EXPECT_GE(EstimateBlockBytesPerEntity(ctx, CurrentPeakRssBytes()), 64u);
}

// ---- External edge sort. ----

std::vector<WeightedEdge> MakeEdges(int base, int n) {
  std::vector<WeightedEdge> edges;
  for (int k = 0; k < n; ++k) {
    edges.push_back({base + k, base - k, 0.5 + 0.001 * k});
  }
  return edges;
}

std::vector<WeightedEdge> CollectScan(EdgeSpill* spill, EdgeOrder order) {
  std::vector<WeightedEdge> out;
  const Status s =
      spill->Scan(order, [&out](const WeightedEdge& e) { out.push_back(e); });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

TEST(EdgeSpill, ScansBothGlobalOrdersOnDiskAndInMemory) {
  std::vector<WeightedEdge> all = MakeEdges(100, 3);
  const std::vector<WeightedEdge> tail = MakeEdges(7, 4);
  all.insert(all.end(), tail.begin(), tail.end());

  // Each spill scans the order its runs are sorted in; one spill per
  // order covers both global orders.
  for (const EdgeOrder order : {EdgeOrder::kPair, EdgeOrder::kScore}) {
    std::vector<WeightedEdge> expected = all;
    std::sort(expected.begin(), expected.end(),
              order == EdgeOrder::kPair ? PairEdgeOrder : GreedyEdgeOrder);
    for (const bool to_disk : {false, true}) {
      EdgeSpillOptions options;
      options.to_disk = to_disk;
      options.run_order = order;
      // Two edges per run: multiple runs and a real k-way merge on disk.
      options.run_bytes = 2 * sizeof(WeightedEdge);
      EdgeSpill spill(options);
      EXPECT_EQ(spill.size(), 0u);
      spill.Append(MakeEdges(100, 3));
      spill.Append({});  // empty blocks are legal
      spill.Append(MakeEdges(7, 4));
      ASSERT_TRUE(spill.Seal().ok());
      EXPECT_EQ(spill.size(), 7u);
      if (to_disk && spill.on_disk()) {
        EXPECT_GT(spill.run_count(), 1u);
        EXPECT_EQ(spill.spill_bytes_written(), 7 * sizeof(WeightedEdge));
      }

      // Twice: scans are repeatable.
      EXPECT_EQ(CollectScan(&spill, order), expected)
          << "to_disk=" << to_disk;
      EXPECT_EQ(CollectScan(&spill, order), expected)
          << "to_disk=" << to_disk;
      if (to_disk && spill.on_disk()) {
        EXPECT_EQ(spill.merge_passes(), 2);
        // Scans read the runs back; nothing is rewritten.
        EXPECT_EQ(spill.spill_bytes_written(), 7 * sizeof(WeightedEdge));
      }
    }
  }
}

TEST(EdgeSpillDeathTest, ScanAndDrainRejectTheOtherOrder) {
  EdgeSpillOptions options;
  options.run_order = EdgeOrder::kPair;
  EdgeSpill spill(options);
  spill.Append(MakeEdges(1, 4));
  ASSERT_TRUE(spill.Seal().ok());
  EXPECT_DEATH(CollectScan(&spill, EdgeOrder::kScore), "run order");
  std::vector<WeightedEdge> out;
  EXPECT_DEATH((void)spill.Drain(EdgeOrder::kScore, &out), "run order");
}

TEST(EdgeSpill, SealIsIdempotentAndEmptySpillScansNothing) {
  for (const EdgeOrder order : {EdgeOrder::kPair, EdgeOrder::kScore}) {
    EdgeSpillOptions options;
    options.to_disk = true;
    options.run_order = order;
    EdgeSpill spill(options);
    ASSERT_TRUE(spill.Seal().ok());
    ASSERT_TRUE(spill.Seal().ok());
    EXPECT_EQ(CollectScan(&spill, order), std::vector<WeightedEdge>{});
  }
}

TEST(EdgeSpill, DiskSpillActuallyUsesAFile) {
  EdgeSpillOptions options;
  options.to_disk = true;
  EdgeSpill spill(options);
  if (!spill.on_disk()) GTEST_SKIP() << "no tmpfile on this platform";
  spill.Append(MakeEdges(1, 4));
  ASSERT_TRUE(spill.Seal().ok());
  EXPECT_TRUE(spill.on_disk());
  std::vector<WeightedEdge> expected = MakeEdges(1, 4);
  std::sort(expected.begin(), expected.end(), PairEdgeOrder);
  EXPECT_EQ(CollectScan(&spill, EdgeOrder::kPair), expected);
}

TEST(EdgeSpill, FallsBackToMemoryWhenTheSpillFileCannotBeCreated) {
  EdgeSpillOptions options;
  options.to_disk = true;
  options.run_order = EdgeOrder::kScore;
  // A path whose directory does not exist: creation must fail, and the
  // spill must degrade to the in-memory buffer instead of crashing.
  options.spill_path = "/nonexistent-slim-spill-dir/spill.bin";
  EdgeSpill spill(options);
  EXPECT_FALSE(spill.on_disk());
  spill.Append(MakeEdges(1, 4));
  ASSERT_TRUE(spill.Seal().ok());
  EXPECT_EQ(spill.run_count(), 0u);
  std::vector<WeightedEdge> expected = MakeEdges(1, 4);
  std::sort(expected.begin(), expected.end(), GreedyEdgeOrder);
  EXPECT_EQ(CollectScan(&spill, EdgeOrder::kScore), expected);
}

TEST(EdgeSpill, TruncatedSpillSurfacesAsIoErrorNotACrash) {
  const std::string path = ::testing::TempDir() + "/slim_spill_corrupt.bin";
  for (const EdgeOrder order : {EdgeOrder::kPair, EdgeOrder::kScore}) {
    EdgeSpillOptions options;
    options.to_disk = true;
    options.run_bytes = 2 * sizeof(WeightedEdge);
    options.run_order = order;
    options.spill_path = path;
    EdgeSpill spill(options);
    if (!spill.on_disk()) GTEST_SKIP() << "cannot create " << path;
    spill.Append(MakeEdges(1, 3));
    spill.Append(MakeEdges(20, 3));
    spill.Append(MakeEdges(40, 2));
    ASSERT_TRUE(spill.Seal().ok());
    ASSERT_GT(spill.run_count(), 1u);

    // Truncate the live spill behind the spill's back: the recorded run
    // extents now point past EOF, so the merge's reads come up short.
    {
      std::FILE* f = std::fopen(path.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      std::fclose(f);
    }
    const Status scan = spill.Scan(order, [](const WeightedEdge&) {});
    EXPECT_FALSE(scan.ok());
  }
}

// ---- Shard-restricted candidate generation. ----

class ShardCandidates : public ::testing::TestWithParam<CandidateKind> {};

TEST_P(ShardCandidates, UnionOverAPartitionEqualsTheFullGenerator) {
  const LinkageContext ctx =
      LinkageContext::Build(Sample().a, Sample().b, HistoryConfig{}, 1);
  const SlimConfig defaults;
  const auto full = MakeCandidateGenerator(GetParam(), ctx, defaults.lsh,
                                           defaults.grid, 1);

  const EntityIdx lefts = static_cast<EntityIdx>(ctx.store_e.size());
  for (const int shards : {2, 7}) {
    const ShardPlan plan = ShardPlan::Fixed(ctx.store_i.size(), shards);
    std::vector<std::unique_ptr<CandidateGenerator>> parts;
    uint64_t total = 0;
    for (const auto& [begin, end] : plan.ranges) {
      parts.push_back(MakeShardCandidateGenerator(GetParam(), ctx,
                                                  defaults.lsh, defaults.grid,
                                                  0, lefts, begin, end, 1));
      total += parts.back()->total_candidate_pairs();
      EXPECT_EQ(parts.back()->name(), full->name());
    }
    EXPECT_EQ(total, full->total_candidate_pairs()) << shards;

    for (EntityIdx u = 0; u < ctx.store_e.size(); ++u) {
      std::vector<EntityIdx> merged;
      for (size_t s = 0; s < parts.size(); ++s) {
        const auto span = parts[s]->CandidatesFor(u);
        // Shard lists are ascending and stay inside their range, so
        // concatenation in shard order IS the sorted union.
        for (const EntityIdx v : span) {
          EXPECT_GE(v, plan.ranges[s].first);
          EXPECT_LT(v, plan.ranges[s].second);
        }
        merged.insert(merged.end(), span.begin(), span.end());
      }
      const auto expected = full->CandidatesFor(u);
      ASSERT_EQ(merged, std::vector<EntityIdx>(expected.begin(),
                                               expected.end()))
          << "left " << u << " at " << shards << " shards";
    }
  }
}

TEST_P(ShardCandidates, LeftRightBlockGridEqualsTheFullGenerator) {
  const LinkageContext ctx =
      LinkageContext::Build(Sample().a, Sample().b, HistoryConfig{}, 1);
  const SlimConfig defaults;
  const auto full = MakeCandidateGenerator(GetParam(), ctx, defaults.lsh,
                                           defaults.grid, 1);

  // A 3 x 4 block grid: every left entity appears in exactly one row of
  // blocks, and its candidate list is the row's concatenation in right
  // order — the exact-restriction property the L x K driver relies on.
  const auto left_ranges = BalancedEntityRanges(ctx.store_e.size(), 3);
  const auto right_ranges = BalancedEntityRanges(ctx.store_i.size(), 4);
  uint64_t total = 0;
  for (const auto& [left_begin, left_end] : left_ranges) {
    std::vector<std::unique_ptr<CandidateGenerator>> row;
    for (const auto& [right_begin, right_end] : right_ranges) {
      row.push_back(MakeShardCandidateGenerator(
          GetParam(), ctx, defaults.lsh, defaults.grid, left_begin, left_end,
          right_begin, right_end, 1));
      total += row.back()->total_candidate_pairs();
    }
    for (EntityIdx u = left_begin; u < left_end; ++u) {
      std::vector<EntityIdx> merged;
      for (size_t s = 0; s < row.size(); ++s) {
        const auto span = row[s]->CandidatesFor(u);
        for (const EntityIdx v : span) {
          EXPECT_GE(v, right_ranges[s].first);
          EXPECT_LT(v, right_ranges[s].second);
        }
        merged.insert(merged.end(), span.begin(), span.end());
      }
      const auto expected = full->CandidatesFor(u);
      ASSERT_EQ(merged, std::vector<EntityIdx>(expected.begin(),
                                               expected.end()))
          << "left " << u;
    }
  }
  EXPECT_EQ(total, full->total_candidate_pairs());
}

INSTANTIATE_TEST_SUITE_P(AllGenerators, ShardCandidates,
                         ::testing::Values(CandidateKind::kLsh,
                                           CandidateKind::kBruteForce,
                                           CandidateKind::kGrid),
                         [](const auto& pinfo) {
                           return std::string(CandidateKindName(pinfo.param));
                         });

// ---- The driver: sharded == monolithic, at every K x threads. ----

class ShardedDriver : public ::testing::TestWithParam<CandidateKind> {};

TEST_P(ShardedDriver, MatchesTheMonolithicPathAtEveryShardAndThreadCount) {
  SlimConfig config;
  config.candidates = GetParam();
  config.threads = 1;
  const auto reference = SlimLinker(config).Link(Sample().a, Sample().b);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_GT(reference->links.size(), 0u);

  for (const auto& [left_shards, shards] :
       std::vector<std::pair<int, int>>{{1, 1}, {1, 2}, {1, 7}, {2, 2},
                                        {3, 7}}) {
    for (const int threads : {1, 8}) {
      config.left_shards = left_shards;
      config.shards = shards;
      config.threads = threads;
      const auto sharded = SlimLinker(config).Link(Sample().a, Sample().b);
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      EXPECT_EQ(sharded->shards_used, shards);
      EXPECT_EQ(sharded->left_shards_used, left_shards);
      EXPECT_EQ(sharded->candidates_used, GetParam());
      // Every positive-score edge passes through the spill; the medium is
      // a temp file only when L x K > 1 (spilling a single block would
      // reload everything immediately).
      EXPECT_EQ(sharded->spilled_edges, sharded->graph.num_edges());
      if (left_shards * shards == 1) {
        EXPECT_FALSE(sharded->spill_on_disk);
      }
      ExpectIdenticalResults(
          *reference, *sharded,
          StrFormat("%s left_shards=%d shards=%d threads=%d",
                    std::string(CandidateKindName(GetParam())).c_str(),
                    left_shards, shards, threads));
    }
  }
}

TEST_P(ShardedDriver, StreamingMatcherMatchesWithoutTheGraph) {
  SlimConfig config;
  config.candidates = GetParam();
  config.threads = 2;
  const auto reference = SlimLinker(config).Link(Sample().a, Sample().b);
  ASSERT_TRUE(reference.ok());
  ASSERT_GT(reference->links.size(), 0u);

  // keep_graph = false: edges stream from the score-ordered merge straight
  // into the greedy matcher; links/matching/threshold must still be
  // bit-identical, with only the graph left empty.
  config.keep_graph = false;
  config.left_shards = 2;
  config.shards = 3;
  const auto streamed = SlimLinker(config).Link(Sample().a, Sample().b);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(streamed->graph.num_edges(), 0u);
  EXPECT_EQ(streamed->links, reference->links);
  EXPECT_EQ(streamed->matching.pairs, reference->matching.pairs);
  EXPECT_DOUBLE_EQ(streamed->matching.total_weight,
                   reference->matching.total_weight);
  EXPECT_EQ(streamed->threshold_valid, reference->threshold_valid);
  if (streamed->threshold_valid) {
    EXPECT_DOUBLE_EQ(streamed->threshold.threshold,
                     reference->threshold.threshold);
  }
  EXPECT_EQ(streamed->spilled_edges, reference->graph.num_edges());
  // The score-ordered runs merge in a single pass.
  if (streamed->spill_on_disk) {
    EXPECT_EQ(streamed->merge_passes, 1);
  }
}

TEST_P(ShardedDriver, BudgetDrivenRunMatchesToo) {
  SlimConfig config;
  config.candidates = GetParam();
  config.threads = 2;
  const auto reference = SlimLinker(config).Link(Sample().a, Sample().b);
  ASSERT_TRUE(reference.ok());

  // A deliberately small budget so the planner actually shards.
  config.shards = 0;
  config.shard_memory_budget_bytes = 1u << 20;
  const auto sharded = SlimLinker(config).Link(Sample().a, Sample().b);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_GE(sharded->shards_used, 1);
  ExpectIdenticalResults(*reference, *sharded, "budget-driven");
}

INSTANTIATE_TEST_SUITE_P(AllGenerators, ShardedDriver,
                         ::testing::Values(CandidateKind::kLsh,
                                           CandidateKind::kBruteForce,
                                           CandidateKind::kGrid),
                         [](const auto& pinfo) {
                           return std::string(CandidateKindName(pinfo.param));
                         });

TEST(ShardedDriver, EmptySidesShortCircuit) {
  LocationDataset empty("empty");
  empty.Finalize();
  SlimConfig config;
  config.shards = 4;
  const auto result = SlimLinker(config).Link(empty, Sample().b);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->links.empty());
  EXPECT_EQ(result->possible_pairs, 0u);
}

TEST(ShardedDriver, RequiresFinalizedDatasets) {
  LocationDataset raw("raw");
  raw.Add(1, {37.7, -122.4}, 1000);
  const auto result = SlimLinker(SlimConfig{}).Link(raw, Sample().b);
  EXPECT_FALSE(result.ok());
}

// ---- Golden bit-identity: sharded runs against the committed goldens. ----

std::string GoldenPath(const char* name) {
  return std::string(SLIM_TEST_GOLDEN_DIR) + "/" + name;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// u,v,score at 17 fixed decimals — the exact format of the committed
// quick_links_*.csv goldens (see test_determinism.cc).
std::vector<std::string> FormatLinks(
    const std::vector<LinkedEntityPair>& links) {
  std::vector<std::string> lines;
  lines.reserve(links.size());
  for (const auto& link : links) {
    lines.push_back(std::to_string(link.u) + "," + std::to_string(link.v) +
                    "," + FormatFixed(link.score, 17));
  }
  return lines;
}

class ShardedGoldenLinks : public ::testing::Test {
 protected:
  static const LocationDataset& A() {
    static const LocationDataset* a = Load("quick_a.csv", "A");
    return *a;
  }
  static const LocationDataset& B() {
    static const LocationDataset* b = Load("quick_b.csv", "B");
    return *b;
  }

 private:
  static const LocationDataset* Load(const char* name, const char* label) {
    auto ds = ReadDataset(GoldenPath(name), label);
    EXPECT_TRUE(ds.ok()) << ds.status().ToString();
    return new LocationDataset(std::move(ds.value()));
  }
};

TEST_F(ShardedGoldenLinks, EveryGeneratorShardCountAndThreadCount) {
  const struct {
    CandidateKind kind;
    const char* golden;
  } cases[] = {
      {CandidateKind::kLsh, "quick_links_lsh.csv"},
      {CandidateKind::kBruteForce, "quick_links_brute.csv"},
      {CandidateKind::kGrid, "quick_links_grid.csv"},
  };
  // The (L, K) plans the 1M methodology gates on (docs/BENCHMARKS.md),
  // plus the legacy right-only counts the pre-refactor goldens pinned.
  const std::pair<int, int> plans[] = {{1, 1}, {1, 2}, {1, 7},
                                       {2, 4}, {4, 16}};
  for (const auto& c : cases) {
    const std::vector<std::string> golden = ReadLines(GoldenPath(c.golden));
    ASSERT_GT(golden.size(), 0u) << c.golden;
    for (const auto& [left_shards, shards] : plans) {
      for (const int threads : {1, 8}) {
        SlimConfig config;
        config.candidates = c.kind;
        config.left_shards = left_shards;
        config.shards = shards;
        config.threads = threads;
        const auto result = SlimLinker(config).Link(A(), B());
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(FormatLinks(result->links), golden)
            << c.golden << " left_shards=" << left_shards
            << " shards=" << shards << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace slim
