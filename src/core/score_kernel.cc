#include "core/score_kernel.h"

#include <algorithm>

#include "common/check.h"

namespace slim {
namespace {

// Branchless two-pointer merge. Candidate-pair window lists interleave
// finely (two users active over the same days), which makes the classic
// branchy merge mispredict on nearly every step. Writing the candidate
// indices unconditionally and advancing n only on equality turns the whole
// step into setcc/add data flow with no data-dependent branches. The
// unconditional store is safe: n < min(na, nb) whenever the loop body runs
// (every emitted match advances both cursors, so n matches would already
// have exhausted the shorter side), and callers size the output to that
// minimum. Visits the exact positions the branchy merge visits, in the
// same order, so the emitted pairs are identical.
template <typename T>
size_t IntersectLinearImpl(const T* a, size_t na, const T* b, size_t nb,
                           uint32_t* out_a, uint32_t* out_b) {
  size_t i = 0, j = 0, n = 0;
  while (i < na && j < nb) {
    const T ai = a[i];
    const T bj = b[j];
    out_a[n] = static_cast<uint32_t>(i);
    out_b[n] = static_cast<uint32_t>(j);
    n += static_cast<size_t>(ai == bj);
    i += static_cast<size_t>(ai <= bj);
    j += static_cast<size_t>(bj <= ai);
  }
  return n;
}

// Galloping merge: drive the shorter span, exponential-probe + binary-search
// the longer one.
template <typename T>
size_t GallopSmallIntoLarge(const T* s, size_t ns, const T* l, size_t nl,
                            uint32_t* out_s, uint32_t* out_l) {
  size_t j = 0, n = 0;
  for (size_t i = 0; i < ns && j < nl; ++i) {
    const T key = s[i];
    size_t lo = j, step = 1;
    while (lo + step < nl && l[lo + step] < key) {
      lo += step;
      step <<= 1;
    }
    const size_t hi = std::min(lo + step + 1, nl);
    j = static_cast<size_t>(std::lower_bound(l + lo, l + hi, key) - l);
    if (j < nl && l[j] == key) {
      out_s[n] = static_cast<uint32_t>(i);
      out_l[n] = static_cast<uint32_t>(j);
      ++n;
      ++j;  // strictly ascending: the next key is > this one
    }
  }
  return n;
}

template <typename T>
size_t IntersectGallopImpl(const T* a, size_t na, const T* b, size_t nb,
                           uint32_t* out_a, uint32_t* out_b) {
  if (na <= nb) return GallopSmallIntoLarge(a, na, b, nb, out_a, out_b);
  return GallopSmallIntoLarge(b, nb, a, na, out_b, out_a);
}

template <typename T>
size_t IntersectSortedImpl(const T* a, size_t na, const T* b, size_t nb,
                           uint32_t* out_a, uint32_t* out_b) {
  if (na == 0 || nb == 0) return 0;
  const size_t lo = std::min(na, nb);
  const size_t hi = std::max(na, nb);
  if (hi > lo * kGallopSpanRatio) {
    return IntersectGallopImpl(a, na, b, nb, out_a, out_b);
  }
  return IntersectLinearImpl(a, na, b, nb, out_a, out_b);
}

}  // namespace

const char* ScoreKernelName(ScoreKernel /*kernel*/) { return "scalar"; }

ScoreKernel ResolveScoreKernel(ScoreKernel requested) { return requested; }

size_t IntersectLinearI64(const int64_t* a, size_t na, const int64_t* b,
                          size_t nb, uint32_t* out_a, uint32_t* out_b) {
  return IntersectLinearImpl(a, na, b, nb, out_a, out_b);
}

size_t IntersectLinearU32(const uint32_t* a, size_t na, const uint32_t* b,
                          size_t nb, uint32_t* out_a, uint32_t* out_b) {
  return IntersectLinearImpl(a, na, b, nb, out_a, out_b);
}

size_t IntersectGallopI64(const int64_t* a, size_t na, const int64_t* b,
                          size_t nb, uint32_t* out_a, uint32_t* out_b) {
  return IntersectGallopImpl(a, na, b, nb, out_a, out_b);
}

size_t IntersectGallopU32(const uint32_t* a, size_t na, const uint32_t* b,
                          size_t nb, uint32_t* out_a, uint32_t* out_b) {
  return IntersectGallopImpl(a, na, b, nb, out_a, out_b);
}

size_t IntersectSortedI64(const int64_t* a, size_t na, const int64_t* b,
                          size_t nb, uint32_t* out_a, uint32_t* out_b) {
  return IntersectSortedImpl(a, na, b, nb, out_a, out_b);
}

size_t IntersectSortedU32(const uint32_t* a, size_t na, const uint32_t* b,
                          size_t nb, uint32_t* out_a, uint32_t* out_b) {
  return IntersectSortedImpl(a, na, b, nb, out_a, out_b);
}

void QuantizeCountsSaturating(std::span<const uint32_t> counts, uint16_t* out) {
  for (size_t k = 0; k < counts.size(); ++k) {
    out[k] = QuantizeCountSaturating(counts[k]);
  }
}

uint64_t QuantizedOverlap(std::span<const uint32_t> bins_a,
                          std::span<const uint16_t> counts_a,
                          std::span<const uint32_t> bins_b,
                          std::span<const uint16_t> counts_b,
                          std::vector<uint32_t>* match_a,
                          std::vector<uint32_t>* match_b) {
  SLIM_CHECK(bins_a.size() == counts_a.size() &&
             bins_b.size() == counts_b.size());
  SLIM_CHECK(match_a != nullptr && match_b != nullptr);
  const size_t cap = std::min(bins_a.size(), bins_b.size());
  if (cap == 0) return 0;
  if (match_a->size() < cap) match_a->resize(cap);
  if (match_b->size() < cap) match_b->resize(cap);
  const size_t n =
      IntersectSortedU32(bins_a.data(), bins_a.size(), bins_b.data(),
                         bins_b.size(), match_a->data(), match_b->data());
  uint64_t sum = 0;
  for (size_t k = 0; k < n; ++k) {
    sum += std::min(counts_a[(*match_a)[k]], counts_b[(*match_b)[k]]);
  }
  return sum;
}

}  // namespace slim
