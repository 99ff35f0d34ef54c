#include "eval/robustness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/strings.h"

namespace slim {
namespace {

// One independent degradation stream per (sweep seed, axis, grid value,
// side) so every grid point corrupts the data its own reproducible way.
uint64_t MixSeed(uint64_t seed, DegradationAxis axis, double value,
                 int side) {
  uint64_t value_bits = 0;
  std::memcpy(&value_bits, &value, sizeof(value_bits));
  uint64_t h = seed;
  h ^= SplitMix64(static_cast<uint64_t>(axis) + 1).Next();
  h ^= SplitMix64(value_bits).Next();
  h ^= SplitMix64(static_cast<uint64_t>(side) + 0x51).Next();
  return h;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

bool IsIdentityDegradation(const DegradationSpec& spec) {
  return spec.gps_noise_meters <= 0.0 &&
         spec.record_keep_probability >= 1.0 &&
         spec.entity_keep_fraction >= 1.0 &&
         spec.truncate_keep_fraction >= 1.0;
}

LocationDataset DegradeDataset(const LocationDataset& input,
                               const DegradationSpec& spec) {
  SLIM_CHECK_MSG(spec.record_keep_probability > 0.0 &&
                     spec.record_keep_probability <= 1.0,
                 "record_keep_probability must be in (0, 1]");
  SLIM_CHECK_MSG(spec.entity_keep_fraction > 0.0 &&
                     spec.entity_keep_fraction <= 1.0,
                 "entity_keep_fraction must be in (0, 1]");
  SLIM_CHECK_MSG(spec.truncate_keep_fraction > 0.0 &&
                     spec.truncate_keep_fraction <= 1.0,
                 "truncate_keep_fraction must be in (0, 1]");

  const std::vector<EntityId>& ids = input.entity_ids();
  Rng master_rng(spec.seed);

  // Entity drop: survivors are the first ceil(q * N) ranks of a seeded
  // Fisher-Yates shuffle — the kept count is exact, not just expected.
  std::vector<bool> keep_entity(ids.size(), true);
  if (spec.entity_keep_fraction < 1.0 && !ids.empty()) {
    std::vector<size_t> order(ids.size());
    for (size_t k = 0; k < order.size(); ++k) order[k] = k;
    for (size_t k = order.size() - 1; k > 0; --k) {
      const size_t j = static_cast<size_t>(master_rng.NextUint64(k + 1));
      std::swap(order[k], order[j]);
    }
    const size_t kept = static_cast<size_t>(std::ceil(
        spec.entity_keep_fraction * static_cast<double>(ids.size())));
    keep_entity.assign(ids.size(), false);
    for (size_t k = 0; k < kept; ++k) keep_entity[order[k]] = true;
  }

  std::vector<Record> records;
  records.reserve(input.num_records());
  for (size_t rank = 0; rank < ids.size(); ++rank) {
    if (!keep_entity[rank]) continue;
    // Per-rank stream: a fixed dataset always degrades the same way,
    // independent of which other entities exist.
    Rng rng = master_rng.Fork(rank);
    const auto recs = input.RecordsOf(ids[rank]);
    size_t take = recs.size();
    if (spec.truncate_keep_fraction < 1.0) {
      take = static_cast<size_t>(std::ceil(
          spec.truncate_keep_fraction * static_cast<double>(recs.size())));
    }
    for (size_t k = 0; k < take; ++k) {
      if (spec.record_keep_probability < 1.0 &&
          !rng.NextBernoulli(spec.record_keep_probability)) {
        continue;
      }
      Record r = recs[k];
      if (spec.gps_noise_meters > 0.0) {
        r.location = DestinationPoint(
                         r.location, rng.NextDouble(0.0, 360.0),
                         std::abs(rng.NextGaussian()) * spec.gps_noise_meters)
                         .Normalized();
      }
      records.push_back(r);
    }
  }
  return LocationDataset::FromRecords(input.name(), std::move(records));
}

const char* DegradationAxisName(DegradationAxis axis) {
  switch (axis) {
    case DegradationAxis::kGpsNoise:
      return "gps_noise_meters";
    case DegradationAxis::kDownsample:
      return "record_keep";
    case DegradationAxis::kEntityDrop:
      return "entity_keep_b";
    case DegradationAxis::kTruncate:
      return "truncate_keep";
  }
  return "unknown";
}

DegradationSpec SpecForAxisValue(DegradationAxis axis, double value,
                                 uint64_t seed) {
  DegradationSpec spec;
  spec.seed = seed;
  switch (axis) {
    case DegradationAxis::kGpsNoise:
      spec.gps_noise_meters = value;
      break;
    case DegradationAxis::kDownsample:
      spec.record_keep_probability = value;
      break;
    case DegradationAxis::kEntityDrop:
      spec.entity_keep_fraction = value;
      break;
    case DegradationAxis::kTruncate:
      spec.truncate_keep_fraction = value;
      break;
  }
  return spec;
}

SweepPoint RunSweepPoint(const LocationDataset& a, const LocationDataset& b,
                         const GroundTruth& truth, DegradationAxis axis,
                         double value, const SweepOptions& options) {
  // Side A never loses entities (the asymmetric-density axis drops B
  // entities only); noise / downsampling / truncation hit both sides
  // through independent streams.
  DegradationSpec spec_a =
      SpecForAxisValue(axis, value, MixSeed(options.seed, axis, value, 0));
  spec_a.entity_keep_fraction = 1.0;
  const DegradationSpec spec_b =
      SpecForAxisValue(axis, value, MixSeed(options.seed, axis, value, 1));

  const double start = NowSeconds();
  LocationDataset da = DegradeDataset(a, spec_a);
  LocationDataset db = DegradeDataset(b, spec_b);
  if (options.min_records > 0) {
    da.FilterMinRecords(options.min_records);
    db.FilterMinRecords(options.min_records);
  }

  auto result = SlimLinker(options.config).Link(da, db);
  SLIM_CHECK_MSG(result.ok(), result.status().ToString().c_str());

  SweepPoint point;
  point.value = value;
  point.quality = EvaluateLinks(result->links, truth);
  point.links = result->links.size();
  point.entities_a = da.num_entities();
  point.entities_b = db.num_entities();
  point.seconds = NowSeconds() - start;
  return point;
}

SweepCurve RunDegradationSweep(const LocationDataset& a,
                               const LocationDataset& b,
                               const GroundTruth& truth, DegradationAxis axis,
                               const std::vector<double>& values,
                               const SweepOptions& options) {
  SweepCurve curve;
  curve.axis = axis;
  curve.points.reserve(values.size());
  for (double value : values) {
    curve.points.push_back(
        RunSweepPoint(a, b, truth, axis, value, options));
  }
  return curve;
}

std::string RenderSweepReport(
    const std::vector<SweepWorkloadResult>& results) {
  std::string md = "# SLIM robustness sweep\n\n";
  md +=
      "Linkage quality (against the undegraded ground truth) as each "
      "degradation axis tightens; axis definitions in docs/DATASETS.md.\n";
  for (const SweepWorkloadResult& wl : results) {
    md += StrFormat("\n## Workload `%s`\n\n", wl.workload.c_str());
    md += StrFormat(
        "Baseline (no degradation): precision %.4f, recall %.4f, F1 %.4f "
        "— %zu links over %zu truth pairs (%zu x %zu entities).\n",
        wl.baseline.quality.precision, wl.baseline.quality.recall,
        wl.baseline.quality.f1, wl.baseline.links, wl.truth_pairs,
        wl.baseline.entities_a, wl.baseline.entities_b);
    for (const SweepCurve& curve : wl.curves) {
      md += StrFormat("\n### Axis `%s`\n\n", DegradationAxisName(curve.axis));
      md += "| value | precision | recall | F1 | links | entities A x B |\n";
      md += "|---|---|---|---|---|---|\n";
      for (const SweepPoint& p : curve.points) {
        md += StrFormat("| %g | %.4f | %.4f | %.4f | %zu | %zu x %zu |\n",
                        p.value, p.quality.precision, p.quality.recall,
                        p.quality.f1, p.links, p.entities_a, p.entities_b);
      }
    }
  }
  return md;
}

namespace {

void AppendPointJson(const SweepPoint& p, const char* indent,
                     std::string* out) {
  *out += "{\n";
  *out += StrFormat("%s  \"value\": %g,\n", indent, p.value);
  *out += StrFormat("%s  \"precision\": %.6f,\n", indent,
                    p.quality.precision);
  *out += StrFormat("%s  \"recall\": %.6f,\n", indent, p.quality.recall);
  *out += StrFormat("%s  \"f1\": %.6f,\n", indent, p.quality.f1);
  *out += StrFormat("%s  \"links\": %zu,\n", indent, p.links);
  *out += StrFormat("%s  \"entities_a\": %zu,\n", indent, p.entities_a);
  *out += StrFormat("%s  \"entities_b\": %zu,\n", indent, p.entities_b);
  *out += StrFormat("%s  \"seconds\": %.6f\n", indent, p.seconds);
  *out += indent;
  *out += "}";
}

}  // namespace

Status WriteSweepJson(const std::vector<SweepWorkloadResult>& results,
                      bool quick, uint64_t seed, const std::string& path) {
  std::string json = "{\n  \"schema\": \"slim-sweep-v1\",\n";
  json += StrFormat("  \"quick\": %s,\n", quick ? "true" : "false");
  json += StrFormat("  \"seed\": %llu,\n",
                    static_cast<unsigned long long>(seed));
  json += "  \"workloads\": [\n";
  for (size_t w = 0; w < results.size(); ++w) {
    const SweepWorkloadResult& wl = results[w];
    json += "    {\n";
    json += StrFormat("      \"workload\": \"%s\",\n", wl.workload.c_str());
    json += StrFormat("      \"truth_pairs\": %zu,\n", wl.truth_pairs);
    json += "      \"baseline\": ";
    AppendPointJson(wl.baseline, "      ", &json);
    json += ",\n      \"curves\": [\n";
    for (size_t c = 0; c < wl.curves.size(); ++c) {
      const SweepCurve& curve = wl.curves[c];
      json += StrFormat("        {\n          \"axis\": \"%s\",\n",
                        DegradationAxisName(curve.axis));
      json += "          \"points\": [\n";
      for (size_t k = 0; k < curve.points.size(); ++k) {
        json += "            ";
        AppendPointJson(curve.points[k], "            ", &json);
        json += k + 1 < curve.points.size() ? ",\n" : "\n";
      }
      json += "          ]\n        }";
      json += c + 1 < wl.curves.size() ? ",\n" : "\n";
    }
    json += "      ]\n    }";
    json += w + 1 < results.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) return Status::IoError("cannot open " + path);
  out << json;
  out.flush();
  if (!out.good()) return Status::IoError("cannot write " + path);
  return Status::Ok();
}

}  // namespace slim
