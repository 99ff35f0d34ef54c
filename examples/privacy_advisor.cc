// Privacy advisor: estimate the re-identification risk of an "anonymised"
// mobility dataset (the paper's motivating privacy application, Sec. 1).
//
// Scenario: a check-in service wants to release an anonymised dump of its
// location records. An attacker holds a second, public dataset (here: the
// other half of the same underlying behaviour). The advisor runs SLIM as
// the attacker would and reports, per released entity, how exposed it is:
// whether it was linked, with what score margin, and which of its
// time-location bins carried the most identifying signal (lowest idf).
#include <algorithm>
#include <cstdio>

#include "slim.h"

int main() {
  // The "world": sparse check-in behaviour across a handful of cities.
  slim::CheckinGeneratorOptions gen;
  gen.num_users = 600;
  gen.num_cities = 12;
  const slim::LocationDataset world = slim::GenerateCheckinDataset(gen);

  // The release (dataset A) and the attacker's side information (B).
  slim::PairSampleOptions sampling;
  sampling.entities_per_side = 220;
  sampling.intersection_ratio = 0.6;
  sampling.inclusion_probability = 0.7;
  auto sample = slim::SampleLinkedPair(world, sampling);
  if (!sample.ok()) {
    std::fprintf(stderr, "%s\n", sample.status().ToString().c_str());
    return 1;
  }

  // Attack: SLIM with wider windows (check-ins are sparse).
  slim::SlimConfig config;
  config.history.window_seconds = 3600;
  const slim::SlimLinker linker(config);
  auto result = linker.Link(sample->a, sample->b);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  const size_t released = sample->a.num_entities();
  const size_t linked = result->links.size();
  size_t correctly = 0;
  for (const auto& link : result->links) {
    correctly += sample->truth.AreLinked(link.u, link.v) ? 1 : 0;
  }
  std::printf("privacy assessment of the released dataset\n");
  std::printf("  released entities:            %zu\n", released);
  std::printf("  linked by the attacker:       %zu (%.1f%%)\n", linked,
              100.0 * static_cast<double>(linked) /
                  static_cast<double>(released));
  std::printf("  of which correctly re-identified: %zu\n", correctly);

  // Per-entity exposure: the most exposed released entities, ranked by how
  // far their link score clears the stop threshold.
  struct Exposure {
    slim::EntityId entity;
    double margin;
    double score;
  };
  std::vector<Exposure> exposures;
  const double threshold =
      result->threshold_valid ? result->threshold.threshold : 0.0;
  for (const auto& link : result->links) {
    exposures.push_back({link.u, link.score - threshold, link.score});
  }
  std::sort(exposures.begin(), exposures.end(),
            [](const Exposure& a, const Exposure& b) {
              return a.margin > b.margin;
            });

  // Identifying-signal analysis: the rarest bins of the top exposures.
  // A symmetric context over the release alone: store_e.idf(bin) is
  // log(N / holders) over A.
  const slim::HistoryConfig hc = config.history;
  const slim::LinkageContext release =
      slim::LinkageContext::Build(sample->a, sample->a, hc);
  const slim::HistoryStore& store = release.store_e;
  std::printf("\nmost exposed released entities:\n");
  std::printf("  %-8s %-10s %-10s %s\n", "entity", "score", "margin",
              "rarest visited bin (idf)");
  const size_t top = std::min<size_t>(exposures.size(), 8);
  for (size_t k = 0; k < top; ++k) {
    const auto& ex = exposures[k];
    double max_idf = 0.0;
    slim::TimeLocationBin rarest;
    if (const auto u = store.IndexOf(ex.entity)) {
      for (const slim::BinId bin : store.bins(*u)) {
        const double idf = store.idf(bin);
        if (idf > max_idf) {
          max_idf = idf;
          rarest.window = release.vocab.window(bin);
          rarest.cell = release.vocab.cell(bin);
        }
      }
    }
    std::printf("  %-8lld %-10.1f %-10.1f cell %s @ window %lld (%.2f)\n",
                static_cast<long long>(ex.entity), ex.score, ex.margin,
                rarest.cell.IsValid() ? rarest.cell.ToToken().c_str() : "-",
                static_cast<long long>(rarest.window), max_idf);
  }

  std::printf(
      "\nadvice: entities above are linkable from spatio-temporal shape "
      "alone;\ncoarsening their rare bins (or suppressing those windows) "
      "before release\nwould cut the top identifying signal.\n");
  return 0;
}
