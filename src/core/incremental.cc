#include "core/incremental.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace slim {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// TopK reads the last epoch's graph, so every epoch must keep it.
SlimConfig WithGraph(SlimConfig config) {
  config.keep_graph = true;
  return config;
}

}  // namespace

IncrementalLinker::IncrementalLinker(SlimConfig config)
    : linker_(WithGraph(std::move(config))) {}

void IncrementalLinker::Ingest(LinkageSide side,
                               std::span<const Record> records) {
  LocationDataset& dataset = side == LinkageSide::kE ? records_e_ : records_i_;
  for (const Record& r : records) dataset.Add(r);
  (side == LinkageSide::kE ? pending_records_e_ : pending_records_i_) +=
      records.size();
}

Result<EpochResult> IncrementalLinker::LinkEpoch() {
  const auto t_start = std::chrono::steady_clock::now();
  // 1. The batch build over every record ingested so far (Finalize sorts
  //    only this epoch's records into place), then 2-5. the batch driver
  //    over it, so the epoch is the batch link of the union. The previous
  //    context goes first, so two never coexist.
  records_e_.Finalize();
  records_i_.Finalize();
  ctx_ = {};
  ctx_ = LinkageContext::Build(records_e_, records_i_, config().history,
                               config().threads);
  const double build_seconds = SecondsSince(t_start);
  Result<LinkageResult> linked = linker_.LinkShardedContext(ctx_);
  if (!linked.ok()) return linked.status();

  EpochResult out;
  out.epoch = ++epoch_;
  LinkageResult& result = out.linkage;
  result = std::move(linked.value());
  result.seconds_histories = build_seconds;
  result.seconds_total = SecondsSince(t_start);
  out.incremental.appended_records = pending_records_e_ + pending_records_i_;
  out.incremental.pairs_scored = result.candidate_pairs;
  pending_records_e_ = pending_records_i_ = 0;

  // Link delta versus the previous epoch, by full (u, v, score) triple
  // (both lists are (u, v)-sorted and pair-unique).
  auto before = links_.begin();
  auto after = result.links.begin();
  while (before != links_.end() || after != result.links.end()) {
    const bool take_after =
        before == links_.end() ||
        (after != result.links.end() &&
         (after->u < before->u ||
          (after->u == before->u && after->v < before->v)));
    const bool take_before =
        after == result.links.end() ||
        (before != links_.end() &&
         (before->u < after->u ||
          (before->u == after->u && before->v < after->v)));
    if (take_after) {
      out.added_links.push_back(*after++);
    } else if (take_before) {
      out.removed_links.push_back(*before++);
    } else if (before->score != after->score) {
      out.removed_links.push_back(*before++);
      out.added_links.push_back(*after++);
    } else {
      ++before;
      ++after;
    }
  }
  links_ = result.links;
  graph_ = result.graph;
  return out;
}

std::vector<LinkedEntityPair> IncrementalLinker::TopK(EntityId u,
                                                      size_t k) const {
  // u's run in the (u, v)-sorted graph: exactly its positive-score pairs.
  const std::vector<WeightedEdge>& edges = graph_.edges();
  const auto run = std::equal_range(
      edges.begin(), edges.end(), WeightedEdge{u, 0, 0.0},
      [](const WeightedEdge& a, const WeightedEdge& b) { return a.u < b.u; });
  std::vector<LinkedEntityPair> top;
  top.reserve(static_cast<size_t>(run.second - run.first));
  for (auto it = run.first; it != run.second; ++it) {
    top.push_back({u, it->v, it->weight});
  }
  std::sort(top.begin(), top.end(),
            [](const LinkedEntityPair& a, const LinkedEntityPair& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.v < b.v;
            });
  if (top.size() > k) top.resize(k);
  return top;
}

}  // namespace slim
