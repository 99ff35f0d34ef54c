// SCTX (core/sctx.h) contract:
//
//   * build -> WriteSctx -> ReadSctx reproduces every dataset-level
//     statistic and CSR structure of the in-heap context exactly — IDF to
//     the bit, window masks, the lot — so a mapped context scores and
//     links bit-identically to the build it came from, for every candidate
//     generator.
//   * build_trees = false loads a context without the window-tree heap;
//     brute/grid pipelines run unchanged on it (LSH requires trees).
//   * Link with SlimConfig::sctx_path serializes on the first run, maps
//     on every run, and matches the heap-context default run either way.
//   * Corrupt inputs (bad magic, version skew, truncation, trailing
//     garbage, a decreasing CSR offset, a bin id outside the vocabulary,
//     a window index that disagrees with its entity's bins or
//     fingerprint) fail with a Status, mirroring tests/test_sbin.cc.
#include "core/sctx.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
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
    // The mapped vocabulary indexes its window runs for Find() too.
    EXPECT_EQ(mapped.vocab.Find(built.vocab.window(b), built.vocab.cell(b)),
              std::optional<BinId>(b));
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

// Byte positions of the left store's CSR arrays inside an SCTX file,
// derived from the header the way core/sctx.cc lays the arrays out.
struct LeftStoreLayout {
  uint64_t vocab = 0, entities = 0, total_bins = 0, total_windows = 0;
  size_t window_masks = 0, windows = 0;
  size_t bin_offsets = 0, window_offsets = 0, window_bin_begin = 0;
  size_t bin_ids = 0;
};

uint64_t U64At(const std::string& bytes, size_t pos) {
  uint64_t value;
  std::memcpy(&value, bytes.data() + pos, sizeof(value));
  return value;
}

uint32_t U32At(const std::string& bytes, size_t pos) {
  uint32_t value;
  std::memcpy(&value, bytes.data() + pos, sizeof(value));
  return value;
}

void PutU32(std::string* bytes, size_t pos, uint32_t value) {
  std::memcpy(bytes->data() + pos, &value, sizeof(value));
}

void PutU64(std::string* bytes, size_t pos, uint64_t value) {
  std::memcpy(bytes->data() + pos, &value, sizeof(value));
}

LeftStoreLayout LayoutOf(const std::string& bytes) {
  const auto pad8 = [](uint64_t b) { return (b + 7) & ~uint64_t{7}; };
  LeftStoreLayout l;
  l.vocab = U64At(bytes, 40);
  l.entities = U64At(bytes, 48);
  l.total_bins = U64At(bytes, 56);
  l.total_windows = U64At(bytes, 64);
  const uint64_t n = l.entities, tw = l.total_windows;
  const uint64_t masks = n * HistoryStore::kWindowMaskWords;
  uint64_t pos = 96;               // header
  pos += 2 * pad8(l.vocab * 8);    // vocab windows, cells
  pos += 2 * pad8(n * 8);          // entity ids, records
  l.window_masks = pos;
  pos += pad8(masks * 8);          // window masks
  pos += pad8(l.vocab * 8);        // idf
  l.windows = pos;
  pos += pad8(tw * 8);             // windows
  l.bin_offsets = pos;
  pos += pad8((n + 1) * 4);
  l.window_offsets = pos;
  pos += pad8((n + 1) * 4);
  l.window_bin_begin = pos;
  pos += pad8((tw + 1) * 4);
  pos += pad8(l.vocab * 4);        // holder counts
  l.bin_ids = pos;
  return l;
}

TEST_F(SctxTest, DecreasingInteriorOffsetFails) {
  const std::string path = Path("offsets.sctx");
  ASSERT_TRUE(WriteSctx(BuildContext(), path).ok());
  const std::string valid = ReadFile(path);
  const LeftStoreLayout l = LayoutOf(valid);
  // The layout is right: each array starts at 0 and ends at its sentinel.
  ASSERT_GE(l.entities, 3u);
  ASSERT_EQ(U32At(valid, l.bin_offsets + 4 * l.entities), l.total_bins);
  ASSERT_EQ(U32At(valid, l.window_offsets + 4 * l.entities), l.total_windows);
  ASSERT_EQ(U32At(valid, l.window_bin_begin + 4 * l.total_windows),
            l.total_bins);
  const struct {
    const char* name;
    size_t pos;
    uint64_t total;
  } arrays[] = {{"bin_offsets", l.bin_offsets, l.total_bins},
                {"window_offsets", l.window_offsets, l.total_windows},
                {"window_bin_begin", l.window_bin_begin, l.total_bins}};
  for (const auto& array : arrays) {
    ASSERT_EQ(U32At(valid, array.pos), 0u) << array.name;
    // Entry 1 jumps to the sentinel value: still within [0, total], but
    // entry 2 is smaller, so the span between them would run backwards.
    ASSERT_LT(U32At(valid, array.pos + 8), array.total) << array.name;
    std::string bytes = valid;
    PutU32(&bytes, array.pos + 4, static_cast<uint32_t>(array.total));
    WriteFile(path, bytes);
    auto r = ReadSctx(path);
    ASSERT_FALSE(r.ok()) << array.name;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << array.name;
    EXPECT_NE(r.status().message().find("offsets"), std::string::npos)
        << r.status().message();
  }
}

TEST_F(SctxTest, BinIdOutsideTheVocabularyFails) {
  const std::string path = Path("bin_ids.sctx");
  ASSERT_TRUE(WriteSctx(BuildContext(), path).ok());
  std::string bytes = ReadFile(path);
  const LeftStoreLayout l = LayoutOf(bytes);
  ASSERT_GT(l.total_bins, 0u);
  ASSERT_LT(U32At(bytes, l.bin_ids), l.vocab);  // the layout is right
  PutU32(&bytes, l.bin_ids, static_cast<uint32_t>(l.vocab));
  WriteFile(path, bytes);
  auto r = ReadSctx(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("bin id"), std::string::npos)
      << r.status().message();
}

// The window-index cases below patch a file the offset and bin-id checks
// accept; only the window-index pass can tell it from a valid one.
void ExpectWindowIndexRejected(const std::string& path) {
  auto r = ReadSctx(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("window index"), std::string::npos)
      << r.status().message();
}

TEST_F(SctxTest, FirstWindowNotAtFirstBinFails) {
  const std::string path = Path("window_begin.sctx");
  ASSERT_TRUE(WriteSctx(BuildContext(), path).ok());
  std::string bytes = ReadFile(path);
  const LeftStoreLayout l = LayoutOf(bytes);
  // Entity 1's first window entry moves one bin later: the entry stays
  // between its neighbours, so the array still never decreases.
  const uint32_t w = U32At(bytes, l.window_offsets + 4);
  ASSERT_LT(w, l.total_windows);
  const size_t entry = l.window_bin_begin + 4 * size_t{w};
  const uint32_t begin = U32At(bytes, entry);
  ASSERT_EQ(begin, U32At(bytes, l.bin_offsets + 4));  // the layout is right
  ASSERT_LE(begin + 1, U32At(bytes, entry + 4));
  PutU32(&bytes, entry, begin + 1);
  WriteFile(path, bytes);
  ExpectWindowIndexRejected(path);
}

TEST_F(SctxTest, SwappedWindowsFail) {
  const std::string path = Path("window_order.sctx");
  ASSERT_TRUE(WriteSctx(BuildContext(), path).ok());
  std::string bytes = ReadFile(path);
  const LeftStoreLayout l = LayoutOf(bytes);
  // The first entity with two windows gets them in swapped order; the
  // set of windows — and so the fingerprint — is unchanged.
  size_t first = l.total_windows;
  for (size_t u = 0; u < l.entities; ++u) {
    const uint32_t w0 = U32At(bytes, l.window_offsets + 4 * u);
    const uint32_t w1 = U32At(bytes, l.window_offsets + 4 * (u + 1));
    if (w1 - w0 >= 2) {
      first = w0;
      break;
    }
  }
  ASSERT_LT(first + 1, l.total_windows);
  const uint64_t a = U64At(bytes, l.windows + 8 * first);
  const uint64_t b = U64At(bytes, l.windows + 8 * (first + 1));
  ASSERT_LT(static_cast<int64_t>(a), static_cast<int64_t>(b));
  PutU64(&bytes, l.windows + 8 * first, b);
  PutU64(&bytes, l.windows + 8 * (first + 1), a);
  WriteFile(path, bytes);
  ExpectWindowIndexRejected(path);
}

TEST_F(SctxTest, ClearedFingerprintBitFails) {
  const std::string path = Path("window_mask.sctx");
  ASSERT_TRUE(WriteSctx(BuildContext(), path).ok());
  std::string bytes = ReadFile(path);
  const LeftStoreLayout l = LayoutOf(bytes);
  // Clear the lowest set bit of entity 0's fingerprint.
  size_t word = 0;
  while (word < HistoryStore::kWindowMaskWords &&
         U64At(bytes, l.window_masks + 8 * word) == 0) {
    ++word;
  }
  ASSERT_LT(word, HistoryStore::kWindowMaskWords);
  const size_t pos = l.window_masks + 8 * word;
  const uint64_t mask = U64At(bytes, pos);
  PutU64(&bytes, pos, mask & (mask - 1));
  WriteFile(path, bytes);
  ExpectWindowIndexRejected(path);
}

TEST_F(SctxTest, WriteToUnwritablePathFails) {
  EXPECT_FALSE(
      WriteSctx(BuildContext(), "/nonexistent_dir_xyz/out.sctx").ok());
}

}  // namespace
}  // namespace slim
