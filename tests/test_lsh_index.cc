// Banded LSH candidates (core/candidates.h, CandidateKind::kLsh) over the
// dense linkage context: collision behaviour, recall on a sampled
// workload, signature alignment on the global query grid, the list
// contract, and the bucket-count monotonicity.
#include <algorithm>

#include <gtest/gtest.h>

#include "core/candidates.h"
#include "data/cab_generator.h"
#include "test_util.h"

namespace slim {
namespace {

constexpr int64_t kWindow = 900;

HistoryConfig HConfig(int level = 16) {
  HistoryConfig c;
  c.spatial_level = level;
  c.window_seconds = kWindow;
  return c;
}

LshConfig LConfig() {
  LshConfig c;
  c.similarity_threshold = 0.6;
  c.signature_spatial_level = 14;
  c.temporal_step_windows = 4;
  c.num_buckets = 4096;
  return c;
}

std::unique_ptr<CandidateGenerator> Lsh(const LinkageContext& ctx,
                                        const LshConfig& config = LConfig()) {
  return MakeCandidateGenerator(CandidateKind::kLsh, ctx, config,
                                GridBlockingConfig{});
}

TEST(LshCandidates, EmptySidesProduceNoCandidates) {
  LocationDataset a("a"), b("b");
  a.Finalize();
  b.Finalize();
  const LinkageContext ctx = LinkageContext::Build(a, b, HConfig());
  ASSERT_EQ(ctx.store_e.size(), 0u);
  EXPECT_EQ(Lsh(ctx)->total_candidate_pairs(), 0u);
}

TEST(LshCandidates, IdenticalBehaviourCollides) {
  // Entities with the same trajectory on both sides must be candidates.
  Rng rng(1);
  std::vector<LatLng> anchors;
  for (int k = 0; k < 8; ++k) {
    anchors.push_back(testing::RandomPointInBox(&rng));
  }
  const LocationDataset ds =
      testing::MakeAnchoredDataset(anchors, 24, kWindow);
  const LinkageContext ctx = LinkageContext::Build(ds, ds, HConfig());
  const auto gen = Lsh(ctx);
  for (EntityIdx u = 0; u < ctx.store_e.size(); ++u) {
    const EntityId entity = ctx.store_e.entity_id(u);
    const auto cands = gen->CandidatesFor(u);
    EXPECT_TRUE(std::binary_search(cands.begin(), cands.end(),
                                   *ctx.store_i.IndexOf(entity)))
        << "entity " << entity << " does not see itself";
  }
}

TEST(LshCandidates, DisjointPlacesRarelyCollide) {
  // Left entities live in SF, right entities in (translated) LA: their
  // dominating cells never match, so candidate lists stay empty.
  Rng rng(2);
  std::vector<LatLng> sf, la;
  for (int k = 0; k < 6; ++k) {
    const LatLng p = testing::RandomPointInBox(&rng);
    sf.push_back(p);
    la.push_back({p.lat_deg - 3.0, p.lng_deg + 4.0});
  }
  const LocationDataset ds_e = testing::MakeAnchoredDataset(sf, 24, kWindow);
  const LocationDataset ds_i = testing::MakeAnchoredDataset(la, 24, kWindow);
  const LinkageContext ctx = LinkageContext::Build(ds_e, ds_i, HConfig());
  EXPECT_EQ(Lsh(ctx)->total_candidate_pairs(), 0u);
}

TEST(LshCandidates, SignaturesAccessibleAndAligned) {
  Rng rng(4);
  std::vector<LatLng> anchors;
  for (int k = 0; k < 3; ++k) {
    anchors.push_back(testing::RandomPointInBox(&rng));
  }
  const LocationDataset ds =
      testing::MakeAnchoredDataset(anchors, 12, kWindow);
  const LinkageContext ctx = LinkageContext::Build(ds, ds, HConfig());
  const LshConfig lc = LConfig();
  const LshWindowSpan span = GlobalWindowSpan(ctx);
  ASSERT_FALSE(span.empty());
  const LshSignature left =
      BuildSignature(ctx.store_e.tree(0), span.lo, span.end,
                     lc.temporal_step_windows, lc.signature_spatial_level);
  const LshSignature right =
      BuildSignature(ctx.store_i.tree(0), span.lo, span.end,
                     lc.temporal_step_windows, lc.signature_spatial_level);
  // One position per query window of the shared grid.
  const int64_t steps =
      (span.end - span.lo + lc.temporal_step_windows - 1) /
      lc.temporal_step_windows;
  EXPECT_EQ(left.size(), static_cast<size_t>(steps));
  EXPECT_EQ(right.size(), left.size());
  EXPECT_DOUBLE_EQ(SignatureSimilarity(left, right), 1.0);
}

TEST(LshCandidates, CandidateRecallForSimilarPairsIsHigh) {
  // Sample a cab workload twice (the linkage setting): for most entities
  // the true counterpart must be among the LSH candidates.
  CabGeneratorOptions gopt;
  gopt.num_taxis = 30;
  gopt.duration_days = 2.0;
  gopt.record_interval_seconds = 300.0;
  const LocationDataset master = GenerateCabDataset(gopt);

  // Two half-sampled sides with identical entity ids (master ids).
  Rng rng(7);
  LocationDataset a("a"), b("b");
  for (const Record& r : master.records()) {
    if (rng.NextBernoulli(0.5)) a.Add(r);
    if (rng.NextBernoulli(0.5)) b.Add(r);
  }
  a.Finalize();
  b.Finalize();

  const LinkageContext ctx = LinkageContext::Build(a, b, HConfig());
  LshConfig lc = LConfig();
  // Operating point found on this workload (cf. the Fig. 8 sweep):
  // level-10 signatures over 2-hour queries with t = 0.4 keep full recall
  // while pruning ~90% of the pair space.
  lc.signature_spatial_level = 10;
  lc.temporal_step_windows = 8;
  lc.similarity_threshold = 0.4;
  const auto gen = Lsh(ctx, lc);

  size_t hits = 0, total = 0;
  for (EntityIdx u = 0; u < ctx.store_e.size(); ++u) {
    const auto v = ctx.store_i.IndexOf(ctx.store_e.entity_id(u));
    if (!v.has_value()) continue;
    ++total;
    const auto cands = gen->CandidatesFor(u);
    hits += std::binary_search(cands.begin(), cands.end(), *v);
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(hits) / static_cast<double>(total), 0.8);
  // And it must actually filter: far fewer candidates than the full cross
  // product.
  EXPECT_LT(gen->total_candidate_pairs(),
            static_cast<uint64_t>(ctx.store_e.size()) * ctx.store_i.size());
}

TEST(LshCandidates, CandidateListsAreSortedAndUnique) {
  Rng rng(8);
  std::vector<LatLng> anchors;
  for (int k = 0; k < 10; ++k)
    anchors.push_back(testing::RandomPointInBox(&rng));
  const LocationDataset ds =
      testing::MakeAnchoredDataset(anchors, 24, kWindow);
  const LinkageContext ctx = LinkageContext::Build(ds, ds, HConfig());
  const auto gen = Lsh(ctx);
  for (EntityIdx u = 0; u < ctx.store_e.size(); ++u) {
    const auto cands = gen->CandidatesFor(u);
    EXPECT_TRUE(std::is_sorted(cands.begin(), cands.end()));
    EXPECT_EQ(std::adjacent_find(cands.begin(), cands.end()), cands.end());
  }
}

TEST(LshCandidates, MoreBucketsNeverAddCandidates) {
  // Hash collisions only merge buckets; growing the bucket array can only
  // shrink (or keep) the candidate sets.
  Rng rng(9);
  std::vector<LatLng> anchors;
  for (int k = 0; k < 12; ++k)
    anchors.push_back(testing::RandomPointInBox(&rng));
  const LocationDataset ds =
      testing::MakeAnchoredDataset(anchors, 24, kWindow);
  const LinkageContext ctx = LinkageContext::Build(ds, ds, HConfig());
  LshConfig small = LConfig();
  small.num_buckets = 16;
  LshConfig big = LConfig();
  big.num_buckets = 1 << 20;
  EXPECT_GE(Lsh(ctx, small)->total_candidate_pairs(),
            Lsh(ctx, big)->total_candidate_pairs());
}

}  // namespace
}  // namespace slim
