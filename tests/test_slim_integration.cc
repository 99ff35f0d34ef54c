// End-to-end tests of the full SLIM pipeline (Alg. 1) on synthetic
// workloads with known ground truth.
#include "core/slim.h"

#include <limits>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "data/cab_generator.h"
#include "data/checkin_generator.h"
#include "data/sampler.h"
#include "eval/metrics.h"

namespace slim {
namespace {

const LocationDataset& CabMaster() {
  static const LocationDataset ds = [] {
    CabGeneratorOptions opt;
    opt.num_taxis = 40;
    opt.duration_days = 2.0;
    opt.record_interval_seconds = 300.0;
    return GenerateCabDataset(opt);
  }();
  return ds;
}

LinkedPairSample CabSample(double rho = 0.5, double p = 0.5,
                           uint64_t seed = 7) {
  PairSampleOptions opt;
  opt.entities_per_side = 20;
  opt.intersection_ratio = rho;
  opt.inclusion_probability = p;
  opt.seed = seed;
  auto s = SampleLinkedPair(CabMaster(), opt);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return std::move(s.value());
}

SlimConfig DefaultConfig(bool lsh = false) {
  SlimConfig c;
  c.candidates = lsh ? CandidateKind::kLsh : CandidateKind::kBruteForce;
  // LSH operating point for this small dense cab workload (see the Fig. 8
  // sweep): coarse level-10 signatures, 2-hour queries, permissive t.
  c.lsh.signature_spatial_level = 10;
  c.lsh.temporal_step_windows = 8;
  c.lsh.similarity_threshold = 0.4;
  c.threads = 2;
  return c;
}

TEST(SlimIntegration, RecoversMostTruePairsOnCab) {
  const LinkedPairSample s = CabSample();
  const SlimLinker linker(DefaultConfig());
  auto r = linker.Link(s.a, s.b);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const LinkageQuality q = EvaluateLinks(r->links, s.truth);
  EXPECT_GE(q.precision, 0.8) << "tp=" << q.true_positives
                              << " fp=" << q.false_positives;
  EXPECT_GE(q.recall, 0.7);
}

TEST(SlimIntegration, StopThresholdCutsFalsePositives) {
  // At 50% intersection half the matched pairs are false: the threshold
  // must remove most of them (precision of the *unfiltered* matching is
  // structurally ~0.5).
  const LinkedPairSample s = CabSample();
  SlimConfig keep_all = DefaultConfig();
  keep_all.apply_stop_threshold = false;
  SlimConfig thresholded = DefaultConfig();

  auto r_all = SlimLinker(keep_all).Link(s.a, s.b);
  auto r_thr = SlimLinker(thresholded).Link(s.a, s.b);
  ASSERT_TRUE(r_all.ok() && r_thr.ok());
  const LinkageQuality q_all = EvaluateLinks(r_all->links, s.truth);
  const LinkageQuality q_thr = EvaluateLinks(r_thr->links, s.truth);
  EXPECT_GT(q_thr.precision, q_all.precision);
  EXPECT_TRUE(r_thr->threshold_valid);
  EXPECT_LE(r_thr->links.size(), r_all->links.size());
}

TEST(SlimIntegration, MatchingIsOneToOne) {
  const LinkedPairSample s = CabSample();
  auto r = SlimLinker(DefaultConfig()).Link(s.a, s.b);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->matching.IsValidMatching());
  std::unordered_set<EntityId> us, vs;
  for (const auto& link : r->links) {
    EXPECT_TRUE(us.insert(link.u).second);
    EXPECT_TRUE(vs.insert(link.v).second);
  }
}

TEST(SlimIntegration, DeterministicAcrossThreadCounts) {
  const LinkedPairSample s = CabSample();
  SlimConfig c1 = DefaultConfig();
  c1.threads = 1;
  SlimConfig c4 = DefaultConfig();
  c4.threads = 4;
  auto r1 = SlimLinker(c1).Link(s.a, s.b);
  auto r4 = SlimLinker(c4).Link(s.a, s.b);
  ASSERT_TRUE(r1.ok() && r4.ok());
  ASSERT_EQ(r1->links.size(), r4->links.size());
  for (size_t k = 0; k < r1->links.size(); ++k) {
    EXPECT_EQ(r1->links[k].u, r4->links[k].u);
    EXPECT_EQ(r1->links[k].v, r4->links[k].v);
    EXPECT_DOUBLE_EQ(r1->links[k].score, r4->links[k].score);
  }
  EXPECT_EQ(r1->graph.num_edges(), r4->graph.num_edges());
}

TEST(SlimIntegration, LshKeepsMostOfTheQuality) {
  const LinkedPairSample s = CabSample();
  auto brute = SlimLinker(DefaultConfig(false)).Link(s.a, s.b);
  auto lsh = SlimLinker(DefaultConfig(true)).Link(s.a, s.b);
  ASSERT_TRUE(brute.ok() && lsh.ok());
  const double f1_bf = EvaluateLinks(brute->links, s.truth).f1;
  const double f1_lsh = EvaluateLinks(lsh->links, s.truth).f1;
  ASSERT_GT(f1_bf, 0.0);
  // On this tiny 20-entity sample F1 is heavily quantised; the paper-scale
  // relative-F1 claims are exercised by bench/fig08.
  EXPECT_GE(f1_lsh / f1_bf, 0.6);
  // And it must have pruned the pair space.
  EXPECT_LT(lsh->candidate_pairs, lsh->possible_pairs);
  EXPECT_LT(lsh->stats.record_comparisons, brute->stats.record_comparisons);
}

TEST(SlimConfigValidation, RejectsEveryFieldTheLinkageWouldAbortOn) {
  EXPECT_TRUE(ValidateSlimConfig(SlimConfig{}).ok());
  // One bad field per case, every other field at its default.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<SlimConfig> bad(13);
  bad[0].history.window_seconds = 0;
  bad[1].history.spatial_level = -1;
  bad[2].history.spatial_level = CellId::kMaxLevel + 1;
  bad[3].similarity.b = 1.5;
  bad[4].similarity.b = -0.1;
  bad[5].similarity.b = nan;
  bad[6].lsh.signature_spatial_level = -1;
  bad[7].lsh.signature_spatial_level = 14;  // above spatial level 12
  bad[8].lsh.temporal_step_windows = 0;
  bad[9].lsh.similarity_threshold = 0.0;
  bad[10].lsh.similarity_threshold = 1.0;
  bad[11].lsh.similarity_threshold = nan;
  bad[12].lsh.num_buckets = 0;
  for (size_t k = 0; k < bad.size(); ++k) {
    EXPECT_EQ(ValidateSlimConfig(bad[k]).code(), StatusCode::kInvalidArgument)
        << "case " << k;
  }
}

TEST(SlimConfigValidation, LshFieldsOnlyMatterForLshCandidates) {
  SlimConfig config;
  config.candidates = CandidateKind::kBruteForce;
  config.lsh.temporal_step_windows = 0;
  config.lsh.num_buckets = 0;
  EXPECT_TRUE(ValidateSlimConfig(config).ok());
}

TEST(SlimIntegration, EmptyDatasetsProduceEmptyResult) {
  LocationDataset e("E"), i("I");
  e.Finalize();
  i.Finalize();
  auto r = SlimLinker(DefaultConfig()).Link(e, i);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->links.empty());
  EXPECT_EQ(r->possible_pairs, 0u);
}

TEST(SlimIntegration, UnfinalizedInputsRejected) {
  LocationDataset e("E"), i("I");
  e.Add(0, {37.7, -122.4}, 10);
  i.Finalize();
  auto r = SlimLinker(DefaultConfig()).Link(e, i);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SlimIntegration, DegenerateThresholdKeepsAllLinks) {
  // Two symmetric entity pairs produce two IDENTICAL matched edge weights;
  // the GMM detector cannot fit and must fail open (keep every link).
  LocationDataset e("E"), i("I");
  for (int w = 0; w < 10; ++w) {
    e.Add(0, {37.70, -122.40}, w * 900 + 100);
    e.Add(1, {37.95, -122.40}, w * 900 + 100);
    i.Add(5, {37.70, -122.40}, w * 900 + 200);
    i.Add(6, {37.95, -122.40}, w * 900 + 200);
  }
  e.Finalize();
  i.Finalize();
  auto r = SlimLinker(DefaultConfig()).Link(e, i);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->threshold_valid);
  ASSERT_EQ(r->links.size(), 2u);
  EXPECT_EQ(r->links[0].u, 0);
  EXPECT_EQ(r->links[0].v, 5);
  EXPECT_EQ(r->links[1].u, 1);
  EXPECT_EQ(r->links[1].v, 6);
}

TEST(SlimIntegration, HungarianMatcherAlsoWorks) {
  const LinkedPairSample s = CabSample();
  SlimConfig cfg = DefaultConfig();
  cfg.matcher = MatcherKind::kHungarian;
  auto r = SlimLinker(cfg).Link(s.a, s.b);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->matching.IsValidMatching());
  const LinkageQuality q = EvaluateLinks(r->links, s.truth);
  EXPECT_GE(q.precision, 0.8);
  // The exact matcher's total weight bounds the greedy heuristic's.
  auto greedy = SlimLinker(DefaultConfig()).Link(s.a, s.b);
  ASSERT_TRUE(greedy.ok());
  EXPECT_GE(r->matching.total_weight,
            greedy->matching.total_weight - 1e-9);
}

TEST(SlimIntegration, SparseCheckinWorkloadLinks) {
  CheckinGeneratorOptions gopt;
  gopt.num_users = 400;
  gopt.num_cities = 10;
  const LocationDataset master = GenerateCheckinDataset(gopt);
  PairSampleOptions sopt;
  sopt.entities_per_side = 150;
  sopt.inclusion_probability = 0.7;
  auto s = SampleLinkedPair(master, sopt);
  ASSERT_TRUE(s.ok());

  SlimConfig cfg = DefaultConfig();
  cfg.history.window_seconds = 3600;  // sparse data: wider windows
  auto r = SlimLinker(cfg).Link(s->a, s->b);
  ASSERT_TRUE(r.ok());
  const LinkageQuality q = EvaluateLinks(r->links, s->truth);
  EXPECT_GT(q.f1, 0.4);  // sparse check-ins are hard; must beat chance
}

// Property sweep over the spatio-temporal level (the Fig. 4 axes): the
// pipeline must run and the one-to-one constraint must hold at every
// configuration; at level >= 12 with 15-min windows quality is high.
struct LevelCase {
  int spatial_level;
  int64_t window_seconds;
};

class SlimLevelSweep : public ::testing::TestWithParam<LevelCase> {};

TEST_P(SlimLevelSweep, PipelineHealthyAtEveryLevel) {
  const LevelCase c = GetParam();
  const LinkedPairSample s = CabSample();
  SlimConfig cfg = DefaultConfig();
  cfg.history.spatial_level = c.spatial_level;
  cfg.history.window_seconds = c.window_seconds;
  auto r = SlimLinker(cfg).Link(s.a, s.b);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->matching.IsValidMatching());
  for (const auto& e : r->graph.edges()) EXPECT_GT(e.weight, 0.0);
  if (c.spatial_level >= 12 && c.window_seconds <= 1800) {
    EXPECT_GE(EvaluateLinks(r->links, s.truth).f1, 0.75);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Levels, SlimLevelSweep,
    ::testing::Values(LevelCase{4, 900}, LevelCase{8, 900},
                      LevelCase{12, 900}, LevelCase{16, 900},
                      LevelCase{12, 300}, LevelCase{12, 3600},
                      LevelCase{16, 21600}));

}  // namespace
}  // namespace slim
