#include "match/matcher.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/check.h"

namespace slim {

bool Matching::IsValidMatching() const {
  std::unordered_set<EntityId> left, right;
  for (const auto& e : pairs) {
    if (!left.insert(e.u).second) return false;
    if (!right.insert(e.v).second) return false;
  }
  return true;
}

bool GreedyEdgeOrder(const WeightedEdge& a, const WeightedEdge& b) {
  if (a.weight != b.weight) return a.weight > b.weight;
  if (a.u != b.u) return a.u < b.u;
  return a.v < b.v;
}

void StreamingGreedyMatcher::Offer(const WeightedEdge& edge) {
  SLIM_DCHECK(!any_ || !GreedyEdgeOrder(edge, last_));
  last_ = edge;
  any_ = true;
  if (used_u_.count(edge.u) || used_v_.count(edge.v)) return;
  used_u_.insert(edge.u);
  used_v_.insert(edge.v);
  matching_.pairs.push_back(edge);
  matching_.total_weight += edge.weight;
}

Matching StreamingGreedyMatcher::Take() {
  SLIM_DCHECK(matching_.IsValidMatching());
  used_u_.clear();
  used_v_.clear();
  any_ = false;
  return std::move(matching_);
}

namespace {

constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

// Dense ranks of the distinct right ids, in order of first appearance. An
// open-addressing table sized by the distinct ids (grown at half load),
// never by the edge count: at 2.5M edges over 30k right ids it holds
// 64k slots.
class RightRanks {
 public:
  uint32_t RankOf(EntityId v) {
    if (2 * (size_t{size_} + 1) > ranks_.size()) Grow();
    size_t slot = Slot(v);
    while (ranks_[slot] != kNone) {
      if (ids_[slot] == v) return ranks_[slot];
      slot = (slot + 1) & (ranks_.size() - 1);
    }
    ids_[slot] = v;
    ranks_[slot] = size_;
    return size_++;
  }
  uint32_t size() const { return size_; }

 private:
  size_t Slot(EntityId v) const {
    const uint64_t h = static_cast<uint64_t>(v) * 0x9e3779b97f4a7c15ULL;
    return static_cast<size_t>(h >> (64 - shift_));
  }

  void Grow() {
    std::vector<EntityId> ids = std::move(ids_);
    std::vector<uint32_t> ranks = std::move(ranks_);
    ++shift_;
    ids_.assign(size_t{1} << shift_, 0);
    ranks_.assign(size_t{1} << shift_, kNone);
    for (size_t i = 0; i < ranks.size(); ++i) {
      if (ranks[i] == kNone) continue;
      size_t slot = Slot(ids[i]);
      while (ranks_[slot] != kNone) slot = (slot + 1) & (ranks_.size() - 1);
      ids_[slot] = ids[i];
      ranks_[slot] = ranks[i];
    }
  }

  int shift_ = 9;  // the first insert grows the table to 2^10 slots
  std::vector<EntityId> ids_;
  std::vector<uint32_t> ranks_;
  uint32_t size_ = 0;
};

// The proposal matcher over (u, v)-sorted edges (see matcher.h). On such
// edges GreedyEdgeOrder is "weight desc, then index asc", so edges are
// named by their uint32_t index.
Matching ProposalMatching(const std::vector<WeightedEdge>& edges) {
  SLIM_CHECK_MSG(edges.size() < kNone, "more than 2^32 - 1 edges");
  const auto n = static_cast<uint32_t>(edges.size());
  const auto before = [&edges](uint32_t i, uint32_t j) {
    const double wi = edges[i].weight;
    const double wj = edges[j].weight;
    if (wi != wj) return wi > wj;
    return i < j;
  };

  // run_begin[l]: the first edge of the l-th left vertex's contiguous run;
  // right[i]: the dense rank of edge i's right vertex.
  std::vector<uint32_t> run_begin;
  std::vector<uint32_t> right(n);
  RightRanks ranks;
  for (uint32_t i = 0; i < n; ++i) {
    if (i == 0 || edges[i].u != edges[i - 1].u) run_begin.push_back(i);
    right[i] = ranks.RankOf(edges[i].v);
  }
  run_begin.push_back(n);
  const auto num_left = static_cast<uint32_t>(run_begin.size() - 1);

  // suitor[r]: the edge now proposed to right vertex r. Edge i may take r
  // when r has none or i comes first; a suitor only ever gets better, so
  // an edge that cannot take its right vertex never can again.
  std::vector<uint32_t> suitor(ranks.size(), kNone);
  const auto may_take = [&](uint32_t i) {
    const uint32_t s = suitor[right[i]];
    return s == kNone || before(i, s);
  };
  // A left vertex displaced for the first time sorts its run into
  // order[run] once; cursor[l] then walks it and never looks back.
  std::vector<uint32_t> order(n);
  std::vector<uint32_t> cursor(num_left, kNone);

  for (uint32_t l = 0; l < num_left; ++l) {
    uint32_t edge = kNone;
    for (uint32_t i = run_begin[l]; i < run_begin[l + 1]; ++i) {
      if (may_take(i) && (edge == kNone || before(i, edge))) edge = i;
    }
    while (edge != kNone) {
      const uint32_t displaced = std::exchange(suitor[right[edge]], edge);
      if (displaced == kNone) break;
      const auto d = static_cast<uint32_t>(
          std::upper_bound(run_begin.begin(), run_begin.end(), displaced) -
          run_begin.begin() - 1);
      const uint32_t end = run_begin[d + 1];
      if (cursor[d] == kNone) {
        cursor[d] = run_begin[d];
        std::iota(order.begin() + cursor[d], order.begin() + end, cursor[d]);
        std::sort(order.begin() + cursor[d], order.begin() + end, before);
      }
      edge = kNone;
      while (cursor[d] < end && edge == kNone) {
        const uint32_t i = order[cursor[d]++];
        if (may_take(i)) edge = i;
      }
    }
  }

  // The surviving proposals in GreedyEdgeOrder: the greedy stream's
  // acceptance order, so total_weight sums in the same order too.
  std::vector<uint32_t> matched;
  for (const uint32_t s : suitor) {
    if (s != kNone) matched.push_back(s);
  }
  std::sort(matched.begin(), matched.end(), before);
  Matching matching;
  matching.pairs.reserve(matched.size());
  for (const uint32_t i : matched) {
    matching.pairs.push_back(edges[i]);
    matching.total_weight += edges[i].weight;
  }
  SLIM_DCHECK(matching.IsValidMatching());
  return matching;
}

}  // namespace

Matching GreedyMaxWeightMatching(const BipartiteGraph& graph) {
  // The drivers seal their graphs (u, v)-sorted; any other input is
  // matched through a (u, v)-sorted copy.
  const std::vector<WeightedEdge>& edges = graph.edges();
  if (std::is_sorted(edges.begin(), edges.end(), PairEdgeOrder)) {
    return ProposalMatching(edges);
  }
  std::vector<WeightedEdge> sorted = edges;
  std::sort(sorted.begin(), sorted.end(), PairEdgeOrder);
  return ProposalMatching(sorted);
}

Matching HungarianMaxWeightMatching(const BipartiteGraph& graph) {
  // Collect vertex universes; ensure rows <= cols by transposing if needed.
  std::vector<EntityId> lefts, rights;
  {
    std::unordered_set<EntityId> ls, rs;
    for (const auto& e : graph.edges()) {
      if (ls.insert(e.u).second) lefts.push_back(e.u);
      if (rs.insert(e.v).second) rights.push_back(e.v);
    }
  }
  std::sort(lefts.begin(), lefts.end());
  std::sort(rights.begin(), rights.end());
  const bool transposed = lefts.size() > rights.size();
  if (transposed) std::swap(lefts, rights);

  const size_t n = lefts.size();
  const size_t m = rights.size();
  Matching result;
  if (n == 0) return result;

  std::unordered_map<EntityId, size_t> lidx, ridx;
  for (size_t i = 0; i < n; ++i) lidx[lefts[i]] = i;
  for (size_t j = 0; j < m; ++j) ridx[rights[j]] = j;

  // Dense cost matrix, minimisation form: cost = -weight; absent edge = 0.
  std::vector<std::vector<double>> cost(n, std::vector<double>(m, 0.0));
  for (const auto& e : graph.edges()) {
    const size_t i = transposed ? lidx.at(e.v) : lidx.at(e.u);
    const size_t j = transposed ? ridx.at(e.u) : ridx.at(e.v);
    cost[i][j] = std::min(cost[i][j], -e.weight);
  }

  // Shortest-augmenting-path Hungarian (1-indexed internal arrays).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> u_pot(n + 1, 0.0), v_pot(m + 1, 0.0);
  std::vector<size_t> p(m + 1, 0);    // p[j]: row matched to column j
  std::vector<size_t> way(m + 1, 0);
  for (size_t i = 1; i <= n; ++i) {
    p[0] = i;
    size_t j0 = 0;
    std::vector<double> minv(m + 1, kInf);
    std::vector<char> used(m + 1, 0);
    do {
      used[j0] = 1;
      const size_t i0 = p[j0];
      double delta = kInf;
      size_t j1 = 0;
      for (size_t j = 1; j <= m; ++j) {
        if (used[j]) continue;
        const double cur = cost[i0 - 1][j - 1] - u_pot[i0] - v_pot[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (size_t j = 0; j <= m; ++j) {
        if (used[j]) {
          u_pot[p[j]] += delta;
          v_pot[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      const size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  // Read out assignments; keep only pairs backed by a real positive edge.
  std::unordered_map<EntityId, std::unordered_map<EntityId, double>> weights;
  for (const auto& e : graph.edges()) weights[e.u][e.v] = e.weight;
  for (size_t j = 1; j <= m; ++j) {
    if (p[j] == 0) continue;
    const EntityId a = transposed ? rights[j - 1] : lefts[p[j] - 1];
    const EntityId b = transposed ? lefts[p[j] - 1] : rights[j - 1];
    const auto it = weights.find(a);
    if (it == weights.end()) continue;
    const auto jt = it->second.find(b);
    if (jt == it->second.end()) continue;
    result.pairs.push_back({a, b, jt->second});
    result.total_weight += jt->second;
  }
  std::sort(result.pairs.begin(), result.pairs.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) {
              if (a.u != b.u) return a.u < b.u;
              return a.v < b.v;
            });
  SLIM_DCHECK(result.IsValidMatching());
  return result;
}

}  // namespace slim
