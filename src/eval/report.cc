#include "eval/report.h"

#include <algorithm>
#include <fstream>

#include "common/strings.h"
#include "stats/histogram.h"

namespace slim {

std::string RenderLinkageReport(const LinkageResult& result,
                                const ReportOptions& options) {
  std::string md;
  md += "# " + options.title + "\n\n";
  md += StrFormat("Linking `%s` (left) to `%s` (right).\n\n",
                  options.dataset_a.c_str(), options.dataset_b.c_str());

  md += "## Headline\n\n";
  md += StrFormat("- **links produced:** %zu\n", result.links.size());
  md += StrFormat("- **pairs matched before thresholding:** %zu\n",
                  result.matching.pairs.size());
  md += StrFormat("- **positive-score candidate edges:** %zu\n",
                  result.graph.num_edges());
  if (result.threshold_valid) {
    md += StrFormat(
        "- **stop threshold:** %.2f (model-expected precision %.3f, "
        "recall %.3f, F1 %.3f)\n",
        result.threshold.threshold, result.threshold.expected_precision,
        result.threshold.expected_recall, result.threshold.expected_f1);
  } else {
    md += "- **stop threshold:** not applied (weight distribution did not "
          "support a two-population fit; all matched pairs kept)\n";
  }
  md += StrFormat("- **candidate generator:** %s\n",
                  std::string(CandidateKindName(result.candidates_used))
                      .c_str());
  md += StrFormat(
      "- **pair space:** %s of %s possible pairs scored (%.2f%%)\n",
      FormatWithCommas(static_cast<int64_t>(result.candidate_pairs)).c_str(),
      FormatWithCommas(static_cast<int64_t>(result.possible_pairs)).c_str(),
      result.possible_pairs > 0
          ? 100.0 * static_cast<double>(result.candidate_pairs) /
                static_cast<double>(result.possible_pairs)
          : 0.0);
  md += StrFormat(
      "- **record comparisons:** %s; alibi pairs hit: %s\n",
      FormatWithCommas(static_cast<int64_t>(result.stats.record_comparisons))
          .c_str(),
      FormatWithCommas(static_cast<int64_t>(result.stats.alibi_pairs))
          .c_str());
  const uint64_t cache_lookups =
      result.stats.cache_hits + result.stats.cache_misses;
  md += StrFormat(
      "- **distance cache:** %s hits / %s misses (%.1f%% hit rate; each "
      "scoring worker keeps its own cache, so the split can vary from run "
      "to run, while hits + misses does not)\n\n",
      FormatWithCommas(static_cast<int64_t>(result.stats.cache_hits)).c_str(),
      FormatWithCommas(static_cast<int64_t>(result.stats.cache_misses))
          .c_str(),
      cache_lookups > 0 ? 100.0 * static_cast<double>(result.stats.cache_hits) /
                              static_cast<double>(cache_lookups)
                        : 0.0);

  if (options.quality.has_value()) {
    const LinkageQuality& q = *options.quality;
    md += "## Ground-truth quality\n\n";
    md += "| precision | recall | F1 | TP | FP | FN |\n";
    md += "|---|---|---|---|---|---|\n";
    md += StrFormat("| %.4f | %.4f | %.4f | %llu | %llu | %llu |\n\n",
                    q.precision, q.recall, q.f1,
                    static_cast<unsigned long long>(q.true_positives),
                    static_cast<unsigned long long>(q.false_positives),
                    static_cast<unsigned long long>(q.false_negatives));
  }

  md += "## Phase timings\n\n";
  md += "| phase | seconds |\n|---|---|\n";
  md += StrFormat("| histories | %.3f |\n", result.seconds_histories);
  md += StrFormat("| LSH index | %.3f |\n", result.seconds_lsh);
  md += StrFormat("| scoring | %.3f |\n", result.seconds_scoring);
  md += StrFormat("| matching | %.3f |\n", result.seconds_matching);
  md += StrFormat("| **total** | **%.3f** |\n\n", result.seconds_total);

  if (result.matching.pairs.size() >= 2) {
    std::vector<double> weights;
    weights.reserve(result.matching.pairs.size());
    for (const auto& e : result.matching.pairs) weights.push_back(e.weight);
    const auto [mn, mx] = std::minmax_element(weights.begin(), weights.end());
    if (*mx > *mn) {
      md += "## Matched-score distribution\n\n```\n";
      Histogram h(*mn, *mx, options.histogram_bins);
      for (double w : weights) h.Add(w);
      md += h.ToAscii(40);
      if (result.threshold_valid) {
        md += StrFormat("stop threshold at %.2f\n",
                        result.threshold.threshold);
      }
      md += "```\n";
    }
  }
  return md;
}

Status WriteLinkageReport(const LinkageResult& result,
                          const ReportOptions& options,
                          const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open for write: " + path);
  const std::string md = RenderLinkageReport(result, options);
  out.write(md.data(), static_cast<std::streamsize>(md.size()));
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

}  // namespace slim
