// Scoring primitives for the sparse inner loops of SimilarityEngine.
//
// SLIM's score (Eq. 2) spends its time in sorted-span intersection over the
// dense CSR layout of core/linkage_context.h: matching the occupied-window
// lists of an entity pair (int64 window indices) and, for the grid
// prefilter, their BinId spans (uint32). There is one implementation: a
// branchless two-pointer merge, with a galloping search when one span is
// much longer than the other. Both operate on integers and emit the same
// matched positions in the same order, so the choice between them never
// changes a score.
//
// Intersection inputs must be STRICTLY ascending (no duplicates inside one
// span). The CSR window lists and per-window BinId spans satisfy this by
// construction; it is what makes "each left element matches at most one
// right element" true.
#ifndef SLIM_CORE_SCORE_KERNEL_H_
#define SLIM_CORE_SCORE_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace slim {

/// The scoring kernel, kept only as a provenance name for bench records
/// (slim_link --bench_json and the benchmark harness report "kernel").
/// There is exactly one kernel.
enum class ScoreKernel {
  kScalar,
};

/// The kernel's provenance name: always "scalar".
const char* ScoreKernelName(ScoreKernel kernel);

/// The identity: the one kernel is always the one that runs. Kept so
/// provenance code can name the kernel a config scores with.
ScoreKernel ResolveScoreKernel(ScoreKernel requested);

/// Span-length ratio beyond which IntersectSorted* abandons the linear
/// merge for the galloping search: with one span this much longer than the
/// other, binary probing beats scanning.
inline constexpr size_t kGallopSpanRatio = 16;

/// Shared contract of every intersection below: inputs are strictly
/// ascending spans, `out_a`/`out_b` have capacity >= min(na, nb), the return
/// value is the number of matches, and matched positions are emitted in
/// ascending order.

/// Branchless two-pointer merge over the whole of both spans. Exposed for
/// the differential tests and the kernel bench.
size_t IntersectLinearI64(const int64_t* a, size_t na, const int64_t* b,
                          size_t nb, uint32_t* out_a, uint32_t* out_b);
size_t IntersectLinearU32(const uint32_t* a, size_t na, const uint32_t* b,
                          size_t nb, uint32_t* out_a, uint32_t* out_b);

/// Galloping intersection (exponential probe + binary search driven by the
/// shorter span). Identical output to the linear merge; exposed for the
/// differential tests.
size_t IntersectGallopI64(const int64_t* a, size_t na, const int64_t* b,
                          size_t nb, uint32_t* out_a, uint32_t* out_b);
size_t IntersectGallopU32(const uint32_t* a, size_t na, const uint32_t* b,
                          size_t nb, uint32_t* out_a, uint32_t* out_b);

/// The entry points the engine uses: galloping when the span lengths
/// differ by more than kGallopSpanRatio, the linear merge otherwise.
size_t IntersectSortedI64(const int64_t* a, size_t na, const int64_t* b,
                          size_t nb, uint32_t* out_a, uint32_t* out_b);
size_t IntersectSortedU32(const uint32_t* a, size_t na, const uint32_t* b,
                          size_t nb, uint32_t* out_a, uint32_t* out_b);

/// Co-visit mass of two histories (the grid prefilter of
/// GridBlockingConfig::min_overlap_records):
///   sum over shared bins of min(counts_a, counts_b).
/// `bins_*` are ascending BinId spans with the record counts `counts_*`
/// parallel to them (HistoryStore::bins / counts); `match_a`/`match_b` are
/// caller scratch (resized as needed). Exact in u64, so shard-invariant.
uint64_t OverlapMass(std::span<const uint32_t> bins_a,
                     std::span<const uint32_t> counts_a,
                     std::span<const uint32_t> bins_b,
                     std::span<const uint32_t> counts_b,
                     std::vector<uint32_t>* match_a,
                     std::vector<uint32_t>* match_b);

}  // namespace slim

#endif  // SLIM_CORE_SCORE_KERNEL_H_
