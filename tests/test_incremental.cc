// Property tests of the incremental linkage engine: after any sequence of
// Ingest/LinkEpoch calls, the epoch's links, matching, graph, and
// threshold must be BIT-identical to a from-scratch batch link over the
// union of everything ingested — at every thread count and with every
// candidate generator. This is the contract slim_serve's byte-compare CI
// step rests on (docs/SERVING.md).
#include "core/incremental.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/slim.h"
#include "data/cab_generator.h"
#include "data/sampler.h"

namespace slim {
namespace {

const LocationDataset& CabMaster() {
  static const LocationDataset ds = [] {
    CabGeneratorOptions opt;
    opt.num_taxis = 36;
    opt.duration_days = 1.5;
    opt.record_interval_seconds = 360.0;
    return GenerateCabDataset(opt);
  }();
  return ds;
}

LinkedPairSample CabSample(uint64_t seed = 11) {
  PairSampleOptions opt;
  opt.entities_per_side = 18;
  opt.intersection_ratio = 0.5;
  opt.inclusion_probability = 0.5;
  opt.seed = seed;
  auto s = SampleLinkedPair(CabMaster(), opt);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return std::move(s.value());
}

SlimConfig MakeConfig(CandidateKind candidates, int threads) {
  SlimConfig c;
  c.candidates = candidates;
  c.lsh.signature_spatial_level = 10;
  c.lsh.temporal_step_windows = 8;
  c.lsh.similarity_threshold = 0.4;
  c.threads = threads;
  return c;
}

/// Splits a record vector into `parts` slices by timestamp rank, so later
/// epochs both extend existing entities and introduce brand-new ones
/// (entities whose activity starts late).
std::vector<std::vector<Record>> SplitByTime(const std::vector<Record>& all,
                                             int parts) {
  std::vector<Record> sorted = all;
  std::sort(sorted.begin(), sorted.end(),
            [](const Record& a, const Record& b) {
              if (a.timestamp != b.timestamp) return a.timestamp < b.timestamp;
              if (a.entity != b.entity) return a.entity < b.entity;
              return a.location.lng_deg < b.location.lng_deg;
            });
  std::vector<std::vector<Record>> out(parts);
  const size_t per = (sorted.size() + parts - 1) / parts;
  for (size_t i = 0; i < sorted.size(); ++i) {
    out[std::min<size_t>(i / per, parts - 1)].push_back(sorted[i]);
  }
  return out;
}

LinkageResult BatchLink(const SlimConfig& config,
                        const std::vector<Record>& a,
                        const std::vector<Record>& b) {
  const SlimLinker linker(config);
  auto r = linker.Link(LocationDataset::FromRecords("A", a),
                       LocationDataset::FromRecords("B", b));
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r.value());
}

/// The bit-identity surfaces: links, matching, graph, threshold. Exact
/// double comparison throughout — "close" is a bug here.
void ExpectBitIdentical(const LinkageResult& inc, const LinkageResult& batch,
                        const char* what) {
  EXPECT_EQ(inc.links, batch.links) << what;
  EXPECT_EQ(inc.matching.pairs, batch.matching.pairs) << what;
  EXPECT_EQ(inc.matching.total_weight, batch.matching.total_weight) << what;
  EXPECT_EQ(inc.graph.edges(), batch.graph.edges()) << what;
  EXPECT_EQ(inc.threshold_valid, batch.threshold_valid) << what;
  if (inc.threshold_valid && batch.threshold_valid) {
    EXPECT_EQ(inc.threshold.threshold, batch.threshold.threshold) << what;
  }
  EXPECT_EQ(inc.candidate_pairs, batch.candidate_pairs) << what;
}

struct IncrementalCase {
  CandidateKind candidates;
  int threads;
};

class IncrementalEqualsBatch
    : public ::testing::TestWithParam<IncrementalCase> {};

// The tentpole property: every epoch of a three-epoch ingest schedule is
// bit-identical to the from-scratch batch link over the union so far.
TEST_P(IncrementalEqualsBatch, EpochsMatchBatchOnUnion) {
  const IncrementalCase param = GetParam();
  const SlimConfig config = MakeConfig(param.candidates, param.threads);
  const LinkedPairSample s = CabSample();
  const auto parts_a = SplitByTime(s.a.records(), 3);
  const auto parts_b = SplitByTime(s.b.records(), 3);

  IncrementalLinker linker(config);
  std::vector<Record> union_a, union_b;
  for (int e = 0; e < 3; ++e) {
    union_a.insert(union_a.end(), parts_a[e].begin(), parts_a[e].end());
    union_b.insert(union_b.end(), parts_b[e].begin(), parts_b[e].end());
    linker.Ingest(LinkageSide::kE, parts_a[e]);
    linker.Ingest(LinkageSide::kI, parts_b[e]);
    auto epoch = linker.LinkEpoch();
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
    EXPECT_EQ(epoch->epoch, e + 1);
    const LinkageResult batch = BatchLink(config, union_a, union_b);
    ExpectBitIdentical(epoch->linkage, batch,
                       ("epoch " + std::to_string(e + 1)).c_str());
    EXPECT_EQ(linker.links(), batch.links);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGeneratorsAndThreads, IncrementalEqualsBatch,
    ::testing::Values(IncrementalCase{CandidateKind::kLsh, 1},
                      IncrementalCase{CandidateKind::kLsh, 8},
                      IncrementalCase{CandidateKind::kBruteForce, 1},
                      IncrementalCase{CandidateKind::kBruteForce, 8},
                      IncrementalCase{CandidateKind::kGrid, 1},
                      IncrementalCase{CandidateKind::kGrid, 8}),
    [](const ::testing::TestParamInfo<IncrementalCase>& info) {
      return std::string(CandidateKindName(info.param.candidates)) +
             "_threads" + std::to_string(info.param.threads);
    });

// One-sided epochs (only A ingested, B empty) must behave like the batch
// path on an empty side: zero links, no crash, and the records must show
// up once the other side arrives.
TEST(Incremental, EmptySideEpochsAreEmptyAndRecoverable) {
  const SlimConfig config = MakeConfig(CandidateKind::kBruteForce, 2);
  const LinkedPairSample s = CabSample();

  IncrementalLinker linker(config);
  linker.Ingest(LinkageSide::kE, s.a.records());
  auto first = linker.LinkEpoch();
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->linkage.links.empty());

  linker.Ingest(LinkageSide::kI, s.b.records());
  auto second = linker.LinkEpoch();
  ASSERT_TRUE(second.ok());
  const LinkageResult batch =
      BatchLink(config, s.a.records(), s.b.records());
  ExpectBitIdentical(second->linkage, batch, "after B arrives");
  EXPECT_EQ(second->added_links, batch.links);
  EXPECT_TRUE(second->removed_links.empty());
}

// An epoch with nothing buffered re-seals the previous state: identical
// links and an empty delta.
TEST(Incremental, EmptyEpochResealsIdenticalLinks) {
  const SlimConfig config = MakeConfig(CandidateKind::kLsh, 2);
  const LinkedPairSample s = CabSample();

  IncrementalLinker linker(config);
  linker.Ingest(LinkageSide::kE, s.a.records());
  linker.Ingest(LinkageSide::kI, s.b.records());
  auto first = linker.LinkEpoch();
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->linkage.links.empty());

  auto second = linker.LinkEpoch();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->linkage.links, first->linkage.links);
  EXPECT_TRUE(second->added_links.empty());
  EXPECT_TRUE(second->removed_links.empty());
}

// Pure count increments — duplicating records an entity already has, so
// no new entity and no new (entity, bin) pair — must stay bit-identical
// to batch on the union (which now contains the duplicates too).
TEST(Incremental, CountOnlyAppendsReuseUntouchedPairs) {
  const SlimConfig config = MakeConfig(CandidateKind::kBruteForce, 2);
  const LinkedPairSample s = CabSample();

  IncrementalLinker linker(config);
  linker.Ingest(LinkageSide::kE, s.a.records());
  linker.Ingest(LinkageSide::kI, s.b.records());
  ASSERT_TRUE(linker.LinkEpoch().ok());

  // Duplicate the first entity's records: same windows, same cells.
  const EntityId touched = s.a.entity_ids().front();
  const auto dup = s.a.RecordsOf(touched);
  const std::vector<Record> delta(dup.begin(), dup.end());
  linker.Ingest(LinkageSide::kE, delta);
  auto epoch = linker.LinkEpoch();
  ASSERT_TRUE(epoch.ok());

  std::vector<Record> union_a = s.a.records();
  union_a.insert(union_a.end(), delta.begin(), delta.end());
  const LinkageResult batch = BatchLink(config, union_a, s.b.records());
  ExpectBitIdentical(epoch->linkage, batch, "count-only append");
}

// Appending records that visit never-seen (window, cell) bins must grow
// the vocabulary, invalidate the cache (IDF/avg|H| shift), and still land
// exactly on the batch result.
TEST(Incremental, NewBinsGrowVocabularyAndInvalidate) {
  const SlimConfig config = MakeConfig(CandidateKind::kBruteForce, 2);
  const LinkedPairSample s = CabSample();
  const auto parts_b = SplitByTime(s.b.records(), 2);

  IncrementalLinker linker(config);
  linker.Ingest(LinkageSide::kE, s.a.records());
  linker.Ingest(LinkageSide::kI, parts_b[0]);
  ASSERT_TRUE(linker.LinkEpoch().ok());
  const size_t bins_before = linker.context().vocab.size();

  // The second time slice visits new windows — every bin there is new.
  linker.Ingest(LinkageSide::kI, parts_b[1]);
  auto epoch = linker.LinkEpoch();
  ASSERT_TRUE(epoch.ok());
  EXPECT_GT(linker.context().vocab.size(), bins_before);
  EXPECT_TRUE(epoch->incremental.rescored_all);
  EXPECT_EQ(epoch->incremental.pairs_reused, 0u);

  const LinkageResult batch =
      BatchLink(config, s.a.records(), s.b.records());
  ExpectBitIdentical(epoch->linkage, batch, "new-bin epoch");
}

// A brand-new entity shifts |U| and therefore every IDF value: the engine
// must re-score everything (no stale-IDF reuse) and agree with batch.
TEST(Incremental, NewEntityShiftsIdfAndRescoresAll) {
  const SlimConfig config = MakeConfig(CandidateKind::kBruteForce, 2);
  const LinkedPairSample s = CabSample();
  const EntityId held_out = s.b.entity_ids().back();
  std::vector<Record> b_initial, b_heldout;
  for (const Record& r : s.b.records()) {
    (r.entity == held_out ? b_heldout : b_initial).push_back(r);
  }
  ASSERT_FALSE(b_heldout.empty());

  IncrementalLinker linker(config);
  linker.Ingest(LinkageSide::kE, s.a.records());
  linker.Ingest(LinkageSide::kI, b_initial);
  ASSERT_TRUE(linker.LinkEpoch().ok());
  // Snapshot the IDF of every bin by its stable (window, cell) key —
  // BinIds renumber when the vocabulary compacts new bins in.
  const LinkageContext& ctx = linker.context();
  std::vector<std::pair<std::pair<int64_t, CellId>, double>> idf_before;
  for (BinId b = 0; b < static_cast<BinId>(ctx.vocab.size()); ++b) {
    idf_before.push_back(
        {{ctx.vocab.window(b), ctx.vocab.cell(b)}, ctx.store_i.idf(b)});
  }

  linker.Ingest(LinkageSide::kI, b_heldout);
  auto epoch = linker.LinkEpoch();
  ASSERT_TRUE(epoch.ok());
  EXPECT_TRUE(epoch->incremental.rescored_all);
  // |U_I| grew, so log(|U|/holders) must shift for every bin the new
  // entity does not hold — at least one such bin always exists.
  size_t shifted = 0;
  for (const auto& [key, idf] : idf_before) {
    const auto id = ctx.vocab.Find(key.first, key.second);
    ASSERT_TRUE(id.has_value());
    if (ctx.store_i.idf(*id) != idf) ++shifted;
  }
  EXPECT_GT(shifted, 0u);

  const LinkageResult batch =
      BatchLink(config, s.a.records(), s.b.records());
  ExpectBitIdentical(epoch->linkage, batch, "new-entity epoch");
}

// Entity ids are the stable key across epochs: TopK(u) keeps answering
// for an entity ingested in epoch 1 even after later epochs reshuffle
// every internal index.
TEST(Incremental, EntityIdsStayStableAcrossEpochs) {
  const SlimConfig config = MakeConfig(CandidateKind::kBruteForce, 2);
  const LinkedPairSample s = CabSample();
  const auto parts_b = SplitByTime(s.b.records(), 2);

  IncrementalLinker linker(config);
  linker.Ingest(LinkageSide::kE, s.a.records());
  linker.Ingest(LinkageSide::kI, parts_b[0]);
  ASSERT_TRUE(linker.LinkEpoch().ok());
  ASSERT_FALSE(linker.links().empty());
  const EntityId u = linker.links().front().u;
  const auto top_before = linker.TopK(u, 3);
  ASSERT_FALSE(top_before.empty());
  EXPECT_EQ(top_before.front().u, u);

  linker.Ingest(LinkageSide::kI, parts_b[1]);
  ASSERT_TRUE(linker.LinkEpoch().ok());
  const auto top_after = linker.TopK(u, 3);
  ASSERT_FALSE(top_after.empty());
  EXPECT_EQ(top_after.front().u, u);
  // Ranking is (score desc, v asc) over this epoch's scored pairs.
  for (size_t i = 1; i < top_after.size(); ++i) {
    EXPECT_GE(top_after[i - 1].score, top_after[i].score);
  }
  // And the ranking agrees with the batch graph over the union.
  const LinkageResult batch =
      BatchLink(config, s.a.records(), s.b.records());
  double best = 0.0;
  for (const WeightedEdge& e : batch.graph.edges()) {
    if (e.u == u) best = std::max(best, e.weight);
  }
  EXPECT_EQ(top_after.front().score, best);

  // Every left entity's full ranking is its batch-graph edges ordered by
  // (score desc, v asc): k at least its degree returns all of them.
  for (const EntityId left : s.a.entity_ids()) {
    std::vector<LinkedEntityPair> expected;
    for (const WeightedEdge& e : batch.graph.edges()) {
      if (e.u == left) expected.push_back({e.u, e.v, e.weight});
    }
    std::sort(expected.begin(), expected.end(),
              [](const LinkedEntityPair& a, const LinkedEntityPair& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.v < b.v;
              });
    EXPECT_EQ(linker.TopK(left, expected.size() + 1), expected)
        << "u=" << left;
  }
  // An entity never ingested on the left ranks nothing.
  const EntityId unknown =
      *std::max_element(s.a.entity_ids().begin(), s.a.entity_ids().end()) +
      1;
  EXPECT_TRUE(linker.TopK(unknown, 3).empty());
}

// The epoch delta feed (SUBSCRIBE) is exact: removed ∪ kept = previous,
// kept ∪ added = current, compared on full (u, v, score) triples.
TEST(Incremental, EpochDeltasReconcile) {
  const SlimConfig config = MakeConfig(CandidateKind::kLsh, 2);
  const LinkedPairSample s = CabSample();
  const auto parts_a = SplitByTime(s.a.records(), 2);
  const auto parts_b = SplitByTime(s.b.records(), 2);

  IncrementalLinker linker(config);
  linker.Ingest(LinkageSide::kE, parts_a[0]);
  linker.Ingest(LinkageSide::kI, parts_b[0]);
  auto first = linker.LinkEpoch();
  ASSERT_TRUE(first.ok());
  const std::vector<LinkedEntityPair> before = first->linkage.links;

  linker.Ingest(LinkageSide::kE, parts_a[1]);
  linker.Ingest(LinkageSide::kI, parts_b[1]);
  auto second = linker.LinkEpoch();
  ASSERT_TRUE(second.ok());

  std::vector<LinkedEntityPair> reconstructed;
  for (const LinkedEntityPair& link : before) {
    const bool removed =
        std::find(second->removed_links.begin(), second->removed_links.end(),
                  link) != second->removed_links.end();
    if (!removed) reconstructed.push_back(link);
  }
  reconstructed.insert(reconstructed.end(), second->added_links.begin(),
                       second->added_links.end());
  std::sort(reconstructed.begin(), reconstructed.end(),
            [](const LinkedEntityPair& a, const LinkedEntityPair& b) {
              if (a.u != b.u) return a.u < b.u;
              return a.v < b.v;
            });
  EXPECT_EQ(reconstructed, second->linkage.links);
}

}  // namespace
}  // namespace slim
