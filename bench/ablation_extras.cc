// Extra ablations beyond the paper's Fig. 10, covering three more design
// choices:
//   (a) the BM25-style length-normalisation parameter b of Eq. 2,
//   (b) the stop-threshold detector backend (GMM-expected-F1 vs Otsu vs
//       2-means — the paper reports "similar results", Sec. 5.2.1),
//   (c) the matcher: the paper's greedy heuristic vs the exact Hungarian
//       solver (quality and cost of the assignment step).
#include "bench_util.h"
#include "eval/table.h"

namespace slim {
namespace {

void Run() {
  const BenchScale scale = BenchScaleFromEnv();
  bench::PrintHeader(
      "Extra ablations", "b parameter, threshold detector backend, matcher "
      "choice — Cab",
      "b near 0.5 is a broad optimum; all three detectors land similar "
      "thresholds; greedy matches Hungarian's linkage quality at a "
      "fraction of the cost");

  const LocationDataset& master = CachedCabMaster(scale);
  auto sample = SampleLinkedPair(master, bench::CabSampleOptions(scale));
  SLIM_CHECK_MSG(sample.ok(), sample.status().ToString().c_str());

  std::printf("\n--- (a) length-normalisation parameter b (Eq. 2) ---\n");
  {
    TablePrinter table({"b", "precision", "recall", "f1"});
    for (double b : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      SlimConfig cfg = bench::DefaultSlimConfig();
      cfg.similarity.b = b;
      auto r = SlimLinker(cfg).Link(sample->a, sample->b);
      SLIM_CHECK_MSG(r.ok(), r.status().ToString().c_str());
      const LinkageQuality q = EvaluateLinks(r->links, sample->truth);
      table.AddRow({Fmt(b, 2), Fmt(q.precision), Fmt(q.recall), Fmt(q.f1)});
    }
    table.Print();
  }

  std::printf("\n--- (b) stop-threshold detector backend ---\n");
  {
    TablePrinter table(
        {"detector", "threshold", "precision", "recall", "f1"});
    struct Entry {
      const char* name;
      ThresholdMethod method;
    };
    for (const Entry& e :
         {Entry{"gmm_expected_f1", ThresholdMethod::kGmmExpectedF1},
          Entry{"otsu", ThresholdMethod::kOtsu},
          Entry{"two_means", ThresholdMethod::kTwoMeans}}) {
      SlimConfig cfg = bench::DefaultSlimConfig();
      cfg.threshold_method = e.method;
      auto r = SlimLinker(cfg).Link(sample->a, sample->b);
      SLIM_CHECK_MSG(r.ok(), r.status().ToString().c_str());
      const LinkageQuality q = EvaluateLinks(r->links, sample->truth);
      table.AddRow({e.name,
                    r->threshold_valid ? Fmt(r->threshold.threshold, 1)
                                       : "n/a",
                    Fmt(q.precision), Fmt(q.recall), Fmt(q.f1)});
    }
    table.Print();
  }

  std::printf("\n--- (c) matcher: greedy heuristic vs exact Hungarian ---\n");
  {
    TablePrinter table({"matcher", "total_weight", "f1", "matching_sec"});
    for (bool hungarian : {false, true}) {
      SlimConfig cfg = bench::DefaultSlimConfig();
      cfg.matcher =
          hungarian ? MatcherKind::kHungarian : MatcherKind::kGreedy;
      auto r = SlimLinker(cfg).Link(sample->a, sample->b);
      SLIM_CHECK_MSG(r.ok(), r.status().ToString().c_str());
      const LinkageQuality q = EvaluateLinks(r->links, sample->truth);
      table.AddRow({hungarian ? "hungarian" : "greedy",
                    Fmt(r->matching.total_weight, 1), Fmt(q.f1),
                    Fmt(r->seconds_matching, 4)});
    }
    table.Print();
  }

  std::printf("\n--- (d) region records (Sec. 2.1 extension) under "
              "location noise ---\n");
  {
    // Re-sample with strong per-side location noise: region records absorb
    // cell-boundary jitter that point records cannot.
    PairSampleOptions noisy = bench::CabSampleOptions(scale);
    noisy.location_noise_meters = 1500.0;
    auto noisy_sample = SampleLinkedPair(master, noisy);
    SLIM_CHECK_MSG(noisy_sample.ok(),
                   noisy_sample.status().ToString().c_str());
    TablePrinter table({"record_semantics", "precision", "recall", "f1"});
    for (double radius : {0.0, 2000.0}) {
      SlimConfig cfg = bench::DefaultSlimConfig();
      cfg.history.spatial_level = 14;
      cfg.history.region_radius_meters = radius;
      auto r = SlimLinker(cfg).Link(noisy_sample->a, noisy_sample->b);
      SLIM_CHECK_MSG(r.ok(), r.status().ToString().c_str());
      const LinkageQuality q = EvaluateLinks(r->links, noisy_sample->truth);
      table.AddRow({radius > 0 ? "regions(2km)" : "points", Fmt(q.precision),
                    Fmt(q.recall), Fmt(q.f1)});
    }
    table.Print();
  }
}

}  // namespace
}  // namespace slim

int main() { slim::Run(); }
