// Thread-count invariance of the pipeline — the acceptance gate for the
// parallel stages: every stage, and Slim::Link end to end, must produce
// bit-identical results at every thread count, for every candidate
// generator. Per-shard accumulators with ordered merges (common/parallel.h)
// are the mechanism; these tests are the contract.
//
// The *Golden* suite additionally pins the LSH and brute-force links to the
// committed pre-refactor output on the committed quick-bench dataset
// (tests/golden/): a core refactor that changes any link score by even one
// ULP fails here.
#include <algorithm>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "slim.h"

namespace slim {
namespace {

// A linkage experiment big enough that every parallel stage actually
// shards, on the sparse SM-style workload (the paper's scalability case).
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

TEST(Determinism, LinkageContextIsIdenticalAtEveryThreadCount) {
  const HistoryConfig config;
  const LinkageContext reference =
      LinkageContext::Build(Sample().a, Sample().b, config, 1);
  for (int threads : {2, 3, 8}) {
    const LinkageContext ctx =
        LinkageContext::Build(Sample().a, Sample().b, config, threads);
    ASSERT_EQ(ctx.vocab.size(), reference.vocab.size()) << threads;
    for (BinId b = 0; b < ctx.vocab.size(); ++b) {
      ASSERT_EQ(ctx.vocab.window(b), reference.vocab.window(b));
      ASSERT_EQ(ctx.vocab.cell(b), reference.vocab.cell(b));
    }
    auto expect_same_store = [&](const HistoryStore& a,
                                 const HistoryStore& b) {
      ASSERT_EQ(a.size(), b.size()) << threads;
      EXPECT_DOUBLE_EQ(a.avg_bins(), b.avg_bins()) << threads;
      ASSERT_EQ(a.entity_ids(), b.entity_ids()) << threads;
      ASSERT_EQ(a.bin_ids(), b.bin_ids()) << threads;
      ASSERT_EQ(a.bin_counts(), b.bin_counts()) << threads;
      for (BinId bin = 0; bin < a.idf_values().size(); ++bin) {
        ASSERT_EQ(a.bin_entity_count(bin), b.bin_entity_count(bin))
            << threads << " bin " << bin;
        ASSERT_EQ(a.idf(bin), b.idf(bin)) << threads << " bin " << bin;
      }
    };
    expect_same_store(ctx.store_e, reference.store_e);
    expect_same_store(ctx.store_i, reference.store_i);
  }
}

TEST(Determinism, LshCandidatesAreIdenticalAtEveryThreadCount) {
  const HistoryConfig hconfig;
  const LinkageContext ctx =
      LinkageContext::Build(Sample().a, Sample().b, hconfig, 1);
  const SlimConfig defaults;  // the stock LSH operating point
  const auto reference = MakeCandidateGenerator(
      CandidateKind::kLsh, ctx, defaults.lsh, defaults.grid, 1);
  ASSERT_GT(reference->total_candidate_pairs(), 0u);
  for (int threads : {2, 5, 8}) {
    const auto generator = MakeCandidateGenerator(
        CandidateKind::kLsh, ctx, defaults.lsh, defaults.grid, threads);
    EXPECT_EQ(generator->total_candidate_pairs(),
              reference->total_candidate_pairs())
        << threads;
    for (EntityIdx u = 0; u < ctx.store_e.size(); ++u) {
      const auto a = generator->CandidatesFor(u);
      const auto b = reference->CandidatesFor(u);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << threads << " entity idx " << u;
    }
  }
}

void ExpectIdenticalResults(const LinkageResult& a, const LinkageResult& b,
                            int threads) {
  // links, matching, and graph carry doubles — operator== compares them
  // exactly, which is the point: bit-identical, not approximately equal.
  EXPECT_EQ(a.links, b.links) << threads;
  EXPECT_EQ(a.matching.pairs, b.matching.pairs) << threads;
  EXPECT_EQ(a.matching.total_weight, b.matching.total_weight) << threads;
  EXPECT_EQ(a.graph.edges(), b.graph.edges()) << threads;
  EXPECT_EQ(a.candidate_pairs, b.candidate_pairs) << threads;
  EXPECT_EQ(a.possible_pairs, b.possible_pairs) << threads;
  EXPECT_EQ(a.stats.record_comparisons, b.stats.record_comparisons);
  EXPECT_EQ(a.stats.alibi_pairs, b.stats.alibi_pairs);
  EXPECT_EQ(a.stats.entity_pairs, b.stats.entity_pairs);
  // NOTE: stats.cache_hits / cache_misses are deliberately NOT compared —
  // the hit/miss split depends on which worker scored which entities (each
  // worker warms its own CellDistanceCache). Their sum is invariant
  // whenever every comparison goes through the cache.
  EXPECT_EQ(a.stats.cache_hits + a.stats.cache_misses,
            b.stats.cache_hits + b.stats.cache_misses)
      << threads;
  EXPECT_EQ(a.threshold_valid, b.threshold_valid) << threads;
  if (a.threshold_valid && b.threshold_valid) {
    EXPECT_EQ(a.threshold.threshold, b.threshold.threshold) << threads;
  }
}

// Every candidate generator must produce a thread-count-invariant linkage.
class GeneratorDeterminism
    : public ::testing::TestWithParam<CandidateKind> {};

TEST_P(GeneratorDeterminism, LinkIsIdenticalAtThreads128) {
  SlimConfig config;  // stock pipeline
  config.candidates = GetParam();
  config.threads = 1;
  auto reference = SlimLinker(config).Link(Sample().a, Sample().b);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_GT(reference->links.size(), 0u);
  EXPECT_EQ(reference->candidates_used, GetParam());

  for (int threads : {2, 8}) {
    config.threads = threads;
    auto result = SlimLinker(config).Link(Sample().a, Sample().b);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectIdenticalResults(*reference, *result, threads);
  }
}

INSTANTIATE_TEST_SUITE_P(AllGenerators, GeneratorDeterminism,
                         ::testing::Values(CandidateKind::kLsh,
                                           CandidateKind::kBruteForce,
                                           CandidateKind::kGrid),
                         [](const auto& pinfo) {
                           return std::string(CandidateKindName(pinfo.param));
                         });

// The scoring loop cuts each left block into a fixed number of chunks
// that the workers claim on demand. Its edge cases — fewer left entities
// than chunks, one-entity left blocks, more threads than left entities,
// and an empty left side — must all give the one-thread result.
TEST(Determinism, ScoringChunksMatchOneThreadAtTheEdges) {
  std::vector<Record> few;
  for (const EntityId id : std::span(Sample().a.entity_ids()).first(7)) {
    for (const Record& r : Sample().a.RecordsOf(id)) few.push_back(r);
  }
  const LocationDataset left = LocationDataset::FromRecords("few", few);
  LocationDataset empty("empty");
  empty.Finalize();
  for (const CandidateKind kind :
       {CandidateKind::kLsh, CandidateKind::kBruteForce}) {
    for (const int left_shards : {1, 7}) {
      SCOPED_TRACE(std::string(CandidateKindName(kind)) + " left_shards " +
                   std::to_string(left_shards));
      SlimConfig config;
      config.candidates = kind;
      config.left_shards = left_shards;
      config.threads = 1;
      auto reference = SlimLinker(config).Link(left, Sample().b);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      ASSERT_GT(reference->matching.pairs.size(), 0u);
      EXPECT_EQ(reference->left_shards_used, left_shards);
      for (const int threads : {3, 16}) {
        config.threads = threads;
        auto result = SlimLinker(config).Link(left, Sample().b);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ExpectIdenticalResults(*reference, *result, threads);
      }
    }
    SlimConfig config;
    config.candidates = kind;
    config.threads = 1;
    auto reference = SlimLinker(config).Link(empty, Sample().b);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_TRUE(reference->links.empty());
    config.threads = 8;
    auto result = SlimLinker(config).Link(empty, Sample().b);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectIdenticalResults(*reference, *result, 8);
  }
}

// ---- Golden bit-identity against the committed pre-refactor output. ----

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

// Formats links exactly as tests/golden/quick_links_*.csv were written:
// u,v,score at 17 fixed decimals (locale-safe, enough digits that equal
// strings mean bit-equal doubles for these magnitudes).
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

class GoldenLinks : public ::testing::Test {
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

TEST_F(GoldenLinks, LshLinksMatchPreRefactorOutput) {
  SlimConfig config;  // stock defaults, LSH on
  config.threads = 1;
  auto result = SlimLinker(config).Link(A(), B());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->candidate_pairs, 1021u);  // pre-refactor LSH filter size
  EXPECT_EQ(FormatLinks(result->links),
            ReadLines(GoldenPath("quick_links_lsh.csv")));
}

TEST_F(GoldenLinks, BruteForceLinksMatchPreRefactorOutput) {
  SlimConfig config;
  config.candidates = CandidateKind::kBruteForce;
  config.threads = 1;
  auto result = SlimLinker(config).Link(A(), B());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(FormatLinks(result->links),
            ReadLines(GoldenPath("quick_links_brute.csv")));
}

TEST_F(GoldenLinks, GoldenRunsAreThreadCountInvariantToo) {
  for (CandidateKind kind :
       {CandidateKind::kLsh, CandidateKind::kBruteForce,
        CandidateKind::kGrid}) {
    SlimConfig config;
    config.candidates = kind;
    config.threads = 1;
    auto r1 = SlimLinker(config).Link(A(), B());
    config.threads = 8;
    auto r8 = SlimLinker(config).Link(A(), B());
    ASSERT_TRUE(r1.ok() && r8.ok());
    ExpectIdenticalResults(*r1, *r8, 8);
  }
}

// ---- Commute-generator golden: seeded byte-stability. ----

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// The exact options tests/golden/commute_small.csv was generated with
// (slim_generate --workload commute --entities 8 --days 2 --seed 44).
CommuteGeneratorOptions GoldenCommuteOptions() {
  CommuteGeneratorOptions opt;
  opt.num_commuters = 8;
  opt.duration_days = 2.0;  // seed stays at the default 44
  return opt;
}

TEST(GoldenCommute, DatasetIsByteStable) {
  // Regenerating the committed golden must reproduce it byte for byte: any
  // change to the generator's sampling order, RNG, or the CSV writer's
  // formatting fails here and demands a deliberate golden refresh.
  const LocationDataset ds = GenerateCommuteDataset(GoldenCommuteOptions());
  const std::string path = ::testing::TempDir() + "commute_small_regen.csv";
  const Status st = WriteDataset(ds, path, DatasetFormat::kCsv);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(ReadFileBytes(path),
            ReadFileBytes(GoldenPath("commute_small.csv")));
}

TEST(GoldenCommute, LinkageIsThreadCountInvariant) {
  // The commute workload joins the determinism matrix: an experiment
  // sampled from the committed golden must link bit-identically at every
  // thread count.
  auto master = ReadDataset(GoldenPath("commute_small.csv"), "commute");
  ASSERT_TRUE(master.ok()) << master.status().ToString();
  PairSampleOptions sampling;
  sampling.seed = 9;
  auto sample = SampleLinkedPair(*master, sampling);
  ASSERT_TRUE(sample.ok()) << sample.status().ToString();

  SlimConfig config;
  config.threads = 1;
  auto reference = SlimLinker(config).Link(sample->a, sample->b);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_GT(reference->links.size(), 0u);
  for (int threads : {2, 8}) {
    config.threads = threads;
    auto result = SlimLinker(config).Link(sample->a, sample->b);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectIdenticalResults(*reference, *result, threads);
  }
}

}  // namespace
}  // namespace slim
