// google-benchmark micro suites for the performance-critical primitives:
// spatial cells, window-tree queries, bin pairing, the span intersections,
// similarity scoring, LSH and grid candidate construction, matching, and the
// GMM fit.
#include <benchmark/benchmark.h>

#include <random>

#include "slim.h"

namespace slim {
namespace {

// ---------------------------------------------------------------- geo ----

void BM_CellFromLatLng(benchmark::State& state) {
  Rng rng(1);
  std::vector<LatLng> pts;
  for (int i = 0; i < 1024; ++i) {
    pts.push_back({rng.NextDouble(-80, 80), rng.NextDouble(-180, 179)});
  }
  const int level = static_cast<int>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(CellId::FromLatLng(pts[i++ & 1023], level));
  }
}
BENCHMARK(BM_CellFromLatLng)->Arg(8)->Arg(16)->Arg(24);

void BM_CellMinDistance(benchmark::State& state) {
  Rng rng(2);
  std::vector<CellId> cells;
  for (int i = 0; i < 1024; ++i) {
    cells.push_back(CellId::FromLatLng(
        {rng.NextDouble(30, 45), rng.NextDouble(-125, -110)}, 12));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MinDistanceMeters(cells[i & 1023], cells[(i + 7) & 1023]));
    ++i;
  }
}
BENCHMARK(BM_CellMinDistance);

// ----------------------------------------------------------- temporal ----

WindowSegmentTree MakeTree(int windows, int cells_per_window, uint64_t seed) {
  Rng rng(seed);
  std::vector<WindowedCellCount> entries;
  for (int w = 0; w < windows; ++w) {
    for (int c = 0; c < cells_per_window; ++c) {
      entries.push_back({w,
                         CellId::FromIndices(14, 8000 + rng.NextUint64(64),
                                             8000 + rng.NextUint64(64)),
                         static_cast<uint32_t>(1 + rng.NextUint64(4))});
    }
  }
  return WindowSegmentTree::Build(std::move(entries));
}

void BM_WindowTreeBuild(benchmark::State& state) {
  const int windows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeTree(windows, 3, 3));
  }
  state.SetItemsProcessed(state.iterations() * windows * 3);
}
BENCHMARK(BM_WindowTreeBuild)->Arg(64)->Arg(512)->Arg(4096);

void BM_DominatingCellQuery(benchmark::State& state) {
  const WindowSegmentTree tree = MakeTree(2048, 3, 4);
  Rng rng(5);
  for (auto _ : state) {
    const int64_t lo = rng.NextInt64(0, 2000);
    benchmark::DoNotOptimize(tree.DominatingCell(lo, lo + 48, 10));
  }
}
BENCHMARK(BM_DominatingCellQuery);

// ------------------------------------------------------- score kernel ----

// Two strictly ascending bursty spans of length n — runs of consecutive
// windows separated by idle gaps, each run shared or private to one side —
// the scoring loop's typical shape (see bench_kernel.cc).
template <typename T>
std::pair<std::vector<T>, std::vector<T>> KernelBenchSpans(size_t n,
                                                           uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> run_len(8, 48);
  std::uniform_int_distribution<int> gap(16, 256);
  std::uniform_int_distribution<int> owner(0, 2);
  std::vector<T> a, b;
  T value = 0;
  while (a.size() < n || b.size() < n) {
    value = static_cast<T>(value + static_cast<T>(gap(rng)));
    const int len = run_len(rng);
    const int who = owner(rng);
    const bool to_a = who != 2 && a.size() < n;
    const bool to_b = who != 1 && b.size() < n;
    for (int k = 0; k < len; ++k) {
      value = static_cast<T>(value + 1);
      if (to_a) a.push_back(value);
      if (to_b) b.push_back(value);
    }
  }
  return {std::move(a), std::move(b)};
}

// Args: {span length}. Times the linear merge (the engine's path for
// balanced spans).
void BM_KernelIntersectI64(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto [a, b] = KernelBenchSpans<int64_t>(n, 12);
  std::vector<uint32_t> oa(n), ob(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntersectLinearI64(
        a.data(), a.size(), b.data(), b.size(), oa.data(), ob.data()));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(2 * n));
}
BENCHMARK(BM_KernelIntersectI64)->Arg(64)->Arg(1024)->Arg(16384);

void BM_KernelIntersectU32(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto [a, b] = KernelBenchSpans<uint32_t>(n, 13);
  std::vector<uint32_t> oa(n), ob(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntersectLinearU32(
        a.data(), a.size(), b.data(), b.size(), oa.data(), ob.data()));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(2 * n));
}
BENCHMARK(BM_KernelIntersectU32)->Arg(64)->Arg(1024)->Arg(16384);

void BM_KernelIntersectSkewedGallop(benchmark::State& state) {
  // 128:1 skew — IntersectSortedI64 takes the galloping path.
  const auto [big, _unused] = KernelBenchSpans<int64_t>(16384, 15);
  std::mt19937_64 rng(16);
  std::bernoulli_distribution keep(128.0 / 16384.0);
  std::vector<int64_t> small;
  for (const int64_t v : big) {
    if (keep(rng)) small.push_back(v);
  }
  std::vector<uint32_t> oa(small.size()), ob(small.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        IntersectSortedI64(small.data(), small.size(), big.data(),
                           big.size(), oa.data(), ob.data()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(small.size() + big.size()));
}
BENCHMARK(BM_KernelIntersectSkewedGallop);

// --------------------------------------------------------- similarity ----

LocationDataset BenchCab(int taxis) {
  CabGeneratorOptions opt;
  opt.num_taxis = taxis;
  opt.duration_days = 1.0;
  opt.record_interval_seconds = 240.0;
  return GenerateCabDataset(opt);
}

void BM_HistoryBuild(benchmark::State& state) {
  const LocationDataset ds = BenchCab(static_cast<int>(state.range(0)));
  HistoryConfig hc;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LinkageContext::Build(ds, ds, hc));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.num_records()));
}
BENCHMARK(BM_HistoryBuild)->Arg(8)->Arg(32);

void BM_SimilarityScorePair(benchmark::State& state) {
  const LocationDataset ds = BenchCab(16);
  HistoryConfig hc;
  const LinkageContext ctx = LinkageContext::Build(ds, ds, hc);
  const SimilarityEngine engine(ctx, SimilarityConfig{});
  SimilarityStats stats;
  size_t i = 0;
  const size_t n = ctx.store_e.size();
  for (auto _ : state) {
    const auto u = static_cast<EntityIdx>(i % n);
    const auto v = static_cast<EntityIdx>((i + 1) % n);
    benchmark::DoNotOptimize(engine.ScoreIndexed(u, v, &stats));
    ++i;
  }
}
BENCHMARK(BM_SimilarityScorePair);

// A dense commute-shaped pair: every commuter occupies about a quarter of
// the two-week span's windows, so both sides keep window bitmaps and the
// pairs take the bitmap intersection.
void BM_SimilarityScoreDensePair(benchmark::State& state) {
  CommuteGeneratorOptions opt;
  opt.num_commuters = 16;
  const LocationDataset ds = GenerateCommuteDataset(opt);
  const LinkageContext ctx = LinkageContext::Build(ds, ds, HistoryConfig{});
  const SimilarityEngine engine(ctx, SimilarityConfig{});
  const size_t n = ctx.store_e.size();
  for (EntityIdx u = 0; u < n; ++u) {
    if (!engine.HasWindowBitmap(LinkageSide::kE, u)) {
      state.SkipWithError("a commuter without a window bitmap");
      return;
    }
  }
  SimilarityStats stats;
  ScoreScratch scratch;
  size_t i = 0;
  for (auto _ : state) {
    const auto u = static_cast<EntityIdx>(i % n);
    const auto v = static_cast<EntityIdx>((i + 1) % n);
    benchmark::DoNotOptimize(
        engine.ScoreIndexed(u, v, &stats, nullptr, &scratch));
    ++i;
  }
}
BENCHMARK(BM_SimilarityScoreDensePair);

void BM_MnnPairing(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(6);
  std::vector<double> dist(n * n);
  for (auto& d : dist) d = rng.NextDouble(0, 1e5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MutuallyNearestPairs(dist, n, n));
  }
}
BENCHMARK(BM_MnnPairing)->Arg(4)->Arg(16)->Arg(64);

// ----------------------------------------------------------------- lsh ----

void BM_LshCandidatesBuild(benchmark::State& state) {
  const LocationDataset ds = BenchCab(static_cast<int>(state.range(0)));
  HistoryConfig hc;
  hc.spatial_level = 16;
  const LinkageContext ctx = LinkageContext::Build(ds, ds, hc);
  LshConfig lc;
  lc.signature_spatial_level = 12;
  lc.temporal_step_windows = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeCandidateGenerator(CandidateKind::kLsh, ctx,
                                                    lc, GridBlockingConfig{}));
  }
}
BENCHMARK(BM_LshCandidatesBuild)->Arg(16)->Arg(64);

// Grid blocking on a dense commute-shaped pair: every commuter holds
// hundreds of bins, many of them shared at the employment centres, so the
// right side's key index and each left entity's union carry the cost.
void BM_GridCandidatesBuild(benchmark::State& state) {
  CommuteGeneratorOptions opt;
  opt.num_commuters = static_cast<int>(state.range(0));
  const LocationDataset ds = GenerateCommuteDataset(opt);
  const LinkageContext ctx = LinkageContext::Build(ds, ds, HistoryConfig{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeCandidateGenerator(
        CandidateKind::kGrid, ctx, LshConfig{}, GridBlockingConfig{}));
  }
}
BENCHMARK(BM_GridCandidatesBuild)->Arg(16)->Arg(64);

void BM_SignatureBuild(benchmark::State& state) {
  const WindowSegmentTree tree = MakeTree(2048, 3, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildSignature(tree, 0, 2048, 48, 10));
  }
}
BENCHMARK(BM_SignatureBuild);

// ------------------------------------------------------------- match ----

BipartiteGraph RandomGraph(size_t n, double density, uint64_t seed) {
  Rng rng(seed);
  BipartiteGraph g;
  for (size_t u = 0; u < n; ++u) {
    for (size_t v = 0; v < n; ++v) {
      if (rng.NextBernoulli(density)) {
        g.AddEdge(static_cast<EntityId>(u), static_cast<EntityId>(1000 + v),
                  rng.NextDouble(0.1, 100.0));
      }
    }
  }
  return g;
}

void BM_GreedyMatching(benchmark::State& state) {
  const BipartiteGraph g =
      RandomGraph(static_cast<size_t>(state.range(0)), 0.3, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyMaxWeightMatching(g));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_edges()));
}
BENCHMARK(BM_GreedyMatching)->Arg(64)->Arg(256)->Arg(1024);

// Complete n x n graph in which every left vertex outbids all earlier
// ones (weight 1 + u n + (n - v)): each new left vertex displaces a chain
// through all earlier ones, so proposals that rescan their whole run
// instead of walking a sorted cursor take O(n^3).
void BM_GreedyMatchingOutbid(benchmark::State& state) {
  const auto n = static_cast<int64_t>(state.range(0));
  BipartiteGraph g;
  g.Reserve(static_cast<size_t>(n * n));
  for (int64_t u = 0; u < n; ++u) {
    for (int64_t v = 0; v < n; ++v) {
      g.AddEdge(u, v, static_cast<double>(1 + u * n + (n - v)));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyMaxWeightMatching(g));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_edges()));
}
BENCHMARK(BM_GreedyMatchingOutbid)->Arg(1024);

void BM_HungarianMatching(benchmark::State& state) {
  const BipartiteGraph g =
      RandomGraph(static_cast<size_t>(state.range(0)), 0.3, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HungarianMaxWeightMatching(g));
  }
}
BENCHMARK(BM_HungarianMatching)->Arg(16)->Arg(64)->Arg(128);

// ------------------------------------------------------------- stats ----

void BM_GmmFit(benchmark::State& state) {
  Rng rng(10);
  std::vector<double> values;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n / 2; ++i) values.push_back(rng.NextGaussian());
  for (int i = 0; i < n / 2; ++i) {
    values.push_back(50.0 + 5.0 * rng.NextGaussian());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitGmm1D(values));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GmmFit)->Arg(256)->Arg(4096);

void BM_StopThresholdDetection(benchmark::State& state) {
  Rng rng(11);
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) values.push_back(100 + 20 * rng.NextGaussian());
  for (int i = 0; i < 500; ++i) {
    values.push_back(3000 + 400 * rng.NextGaussian());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(DetectStopThreshold(values));
  }
}
BENCHMARK(BM_StopThresholdDetection);

// ------------------------------------------------------------ end-to-end --

void BM_SlimLinkEndToEnd(benchmark::State& state) {
  const LocationDataset master = BenchCab(24);
  PairSampleOptions opt;
  opt.entities_per_side = 12;
  auto sample = SampleLinkedPair(master, opt);
  SLIM_CHECK(sample.ok());
  SlimConfig cfg;
  cfg.threads = 1;
  const SlimLinker linker(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linker.Link(sample->a, sample->b));
  }
}
BENCHMARK(BM_SlimLinkEndToEnd)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace slim

BENCHMARK_MAIN();
