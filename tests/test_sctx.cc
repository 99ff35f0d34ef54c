// SCTX (core/sctx.h) contract:
//
//   * build -> WriteSctx -> ReadSctx reproduces every dataset-level
//     statistic and CSR structure of the in-heap context exactly — IDF to
//     the bit, window masks, quantized counts, the lot — so a mapped
//     context scores and links bit-identically to the build it came from,
//     for every candidate generator.
//   * build_trees = false loads a context without the window-tree heap;
//     brute/grid pipelines run unchanged on it (LSH requires trees).
//   * Link with SlimConfig::sctx_path serializes on the first run, maps
//     on every run, and matches the heap-context default run either way.
//   * Corrupt inputs (bad magic, version skew, truncation, trailing
//     garbage) fail with a Status, mirroring tests/test_sbin.cc.
#include "core/sctx.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "slim.h"

namespace slim {
namespace {

// Small but non-trivial: enough entities that every CSR array and the
// window masks carry real structure.
const LinkedPairSample& Sample() {
  static const LinkedPairSample* sample = [] {
    CheckinGeneratorOptions gen;
    gen.num_users = 300;
    gen.seed = 91;
    const LocationDataset master = GenerateCheckinDataset(gen);
    PairSampleOptions sampling;
    sampling.entities_per_side = 140;
    sampling.intersection_ratio = 0.5;
    sampling.inclusion_probability = 0.5;
    sampling.seed = 92;
    auto s = SampleLinkedPair(master, sampling);
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    return new LinkedPairSample(std::move(s.value()));
  }();
  return *sample;
}

class SctxTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           ("slim_sctx_" + std::string(info->name()) + "_" +
            std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const char* name) { return (dir_ / name).string(); }

  std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  void WriteFile(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  static LinkageContext BuildContext() {
    return LinkageContext::Build(Sample().a, Sample().b, HistoryConfig{}, 2);
  }

  std::filesystem::path dir_;
};

// Every public view of one store, compared exactly. IDF compares with ==
// on the doubles: SCTX stores raw bit patterns, so bit-identity — not
// closeness — is the contract.
void ExpectStoresEqual(const HistoryStore& a, const HistoryStore& b,
                       bool expect_trees) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.entity_ids(), b.entity_ids());
  EXPECT_EQ(a.bin_ids(), b.bin_ids());
  EXPECT_EQ(a.bin_counts(), b.bin_counts());
  EXPECT_EQ(a.idf_values(), b.idf_values());
  EXPECT_EQ(a.avg_bins(), b.avg_bins());
  EXPECT_EQ(b.has_trees(), expect_trees);
  for (EntityIdx u = 0; u < a.size(); ++u) {
    ASSERT_EQ(a.num_bins(u), b.num_bins(u)) << u;
    const auto aw = a.windows(u), bw = b.windows(u);
    ASSERT_TRUE(std::equal(aw.begin(), aw.end(), bw.begin(), bw.end())) << u;
    const auto aq = a.quantized_counts(u), bq = b.quantized_counts(u);
    ASSERT_TRUE(std::equal(aq.begin(), aq.end(), bq.begin(), bq.end())) << u;
    EXPECT_EQ(a.total_records(u), b.total_records(u)) << u;
    EXPECT_EQ(std::memcmp(a.window_mask(u), b.window_mask(u),
                          HistoryStore::kWindowMaskWords * sizeof(uint64_t)),
              0)
        << u;
    for (size_t k = 0; k < aw.size(); ++k) {
      EXPECT_EQ(a.WindowBinRange(u, k), b.WindowBinRange(u, k)) << u;
    }
  }
}

TEST_F(SctxTest, RoundTripReproducesEveryStructureExactly) {
  const LinkageContext built = BuildContext();
  const std::string path = Path("ctx.sctx");
  ASSERT_TRUE(WriteSctx(built, path).ok());

  auto loaded = ReadSctx(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const LinkageContext& mapped = loaded.value();

  EXPECT_EQ(mapped.config.spatial_level, built.config.spatial_level);
  EXPECT_EQ(mapped.config.window_seconds, built.config.window_seconds);
  EXPECT_EQ(mapped.config.region_radius_meters,
            built.config.region_radius_meters);

  ASSERT_EQ(mapped.vocab.size(), built.vocab.size());
  for (BinId b = 0; b < built.vocab.size(); ++b) {
    EXPECT_EQ(mapped.vocab.window(b), built.vocab.window(b));
    EXPECT_EQ(mapped.vocab.cell(b), built.vocab.cell(b));
  }

  ExpectStoresEqual(built.store_e, mapped.store_e, /*expect_trees=*/true);
  ExpectStoresEqual(built.store_i, mapped.store_i, /*expect_trees=*/true);
  EXPECT_NE(mapped.backing, nullptr);
  EXPECT_EQ(built.backing, nullptr);
}

TEST_F(SctxTest, MappedContextSurvivesCopyAndOutlivesTheOriginal) {
  const std::string path = Path("ctx.sctx");
  ASSERT_TRUE(WriteSctx(BuildContext(), path).ok());
  LinkageContext copy;
  {
    auto loaded = ReadSctx(path);
    ASSERT_TRUE(loaded.ok());
    copy = loaded.value();  // views must stay valid past the original
  }
  const LinkageContext built = BuildContext();
  ExpectStoresEqual(built.store_e, copy.store_e, /*expect_trees=*/true);
}

TEST_F(SctxTest, SkippingTreesLoadsATreeFreeContext) {
  const std::string path = Path("ctx.sctx");
  ASSERT_TRUE(WriteSctx(BuildContext(), path).ok());
  SctxReadOptions options;
  options.build_trees = false;
  auto loaded = ReadSctx(path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->store_e.has_trees());
  EXPECT_FALSE(loaded->store_i.has_trees());
  const LinkageContext built = BuildContext();
  ExpectStoresEqual(built.store_e, loaded->store_e, /*expect_trees=*/false);
  ExpectStoresEqual(built.store_i, loaded->store_i, /*expect_trees=*/false);
}

// ---- Pipeline bit-identity over the mapped context. ----

class SctxPipeline : public SctxTest,
                     public ::testing::WithParamInterface<CandidateKind> {};

TEST_P(SctxPipeline, MappedContextLinksBitIdentically) {
  SlimConfig config;
  config.candidates = GetParam();
  config.threads = 2;
  const auto reference = SlimLinker(config).Link(Sample().a, Sample().b);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_GT(reference->links.size(), 0u);

  const std::string path = Path("ctx.sctx");
  ASSERT_TRUE(WriteSctx(BuildContext(), path).ok());
  SctxReadOptions options;
  options.build_trees = GetParam() == CandidateKind::kLsh;
  auto loaded = ReadSctx(path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  config.left_shards = 2;
  config.shards = 3;
  const auto mapped = SlimLinker(config).LinkShardedContext(loaded.value());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->links, reference->links);
  EXPECT_EQ(mapped->matching.pairs, reference->matching.pairs);
  EXPECT_EQ(mapped->graph.edges(), reference->graph.edges());
  EXPECT_EQ(mapped->candidate_pairs, reference->candidate_pairs);
}

TEST_P(SctxPipeline, SctxPathDriverSerializesOnceThenMaps) {
  SlimConfig config;
  config.candidates = GetParam();
  config.threads = 2;
  const auto reference = SlimLinker(config).Link(Sample().a, Sample().b);
  ASSERT_TRUE(reference.ok());

  // First run: no file yet — build, serialize, map, link.
  config.sctx_path = Path("driver.sctx");
  config.left_shards = 2;
  config.shards = 2;
  const auto first = SlimLinker(config).Link(Sample().a, Sample().b);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->links, reference->links);
  ASSERT_TRUE(std::filesystem::exists(config.sctx_path));

  // Second run: the file exists — mapped directly, same links. Corrupting
  // nothing between runs, the bytes must be stable (one build, one file).
  const auto before = ReadFile(config.sctx_path);
  const auto second = SlimLinker(config).Link(Sample().a, Sample().b);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->links, reference->links);
  EXPECT_EQ(ReadFile(config.sctx_path), before);
}

INSTANTIATE_TEST_SUITE_P(AllGenerators, SctxPipeline,
                         ::testing::Values(CandidateKind::kLsh,
                                           CandidateKind::kBruteForce,
                                           CandidateKind::kGrid),
                         [](const auto& pinfo) {
                           return std::string(CandidateKindName(pinfo.param));
                         });

// ---- Error paths. ----

TEST_F(SctxTest, MissingFileFails) {
  auto r = ReadSctx(Path("nope.sctx"));
  ASSERT_FALSE(r.ok());
}

TEST_F(SctxTest, BadMagicFails) {
  const std::string path = Path("junk.sctx");
  WriteFile(path, std::string(200, 'J'));
  auto r = ReadSctx(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("magic"), std::string::npos)
      << r.status().message();
}

TEST_F(SctxTest, TooShortHeaderFails) {
  const std::string path = Path("short.sctx");
  WriteFile(path, std::string("SCTX"));
  auto r = ReadSctx(path);
  ASSERT_FALSE(r.ok());
}

TEST_F(SctxTest, UnsupportedVersionFails) {
  const std::string path = Path("v9.sctx");
  ASSERT_TRUE(WriteSctx(BuildContext(), path).ok());
  std::string bytes = ReadFile(path);
  bytes[4] = 9;  // bump the version field
  WriteFile(path, bytes);
  auto r = ReadSctx(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("version 9"), std::string::npos)
      << r.status().message();
}

TEST_F(SctxTest, TruncatedFileFails) {
  const std::string path = Path("trunc.sctx");
  ASSERT_TRUE(WriteSctx(BuildContext(), path).ok());
  std::string bytes = ReadFile(path);
  bytes.resize(bytes.size() - 9);
  WriteFile(path, bytes);
  auto r = ReadSctx(path);
  ASSERT_FALSE(r.ok());
}

TEST_F(SctxTest, TrailingGarbageFails) {
  const std::string path = Path("trail.sctx");
  ASSERT_TRUE(WriteSctx(BuildContext(), path).ok());
  WriteFile(path, ReadFile(path) + "extra!!!");
  auto r = ReadSctx(path);
  ASSERT_FALSE(r.ok());
}

TEST_F(SctxTest, WriteToUnwritablePathFails) {
  EXPECT_FALSE(
      WriteSctx(BuildContext(), "/nonexistent_dir_xyz/out.sctx").ok());
}

}  // namespace
}  // namespace slim
