// SCTX v2: the serialized on-disk form of a dense LinkageContext.
//
// SBIN (data/sbin.h) makes *datasets* binary; SCTX does the same for the
// built context — the bin vocabulary plus both CSR history stores
// (offsets, bin ids, counts, window index, 512-bit
// window masks, per-bin holder counts, and the IDF array as raw IEEE-754
// bit patterns, so a loaded context scores bit-identically to the in-heap
// one). The file is written once after the context build (FileWriter,
// common/io.h) and then memory-mapped read-only: every flat array in the
// loaded context is a FlatArray view into the mapping, so K shard passes —
// or K cooperating processes — share page-cache pages instead of each
// holding a heap copy.
//
// Layout (little-endian, every array 8-byte aligned by zero padding):
//
//   [0]  magic "SCTX" | u32 version | u64 file_size
//        i32 spatial_level | pad | i64 window_seconds | f64 region_radius
//        u64 vocab_size
//        per store (E then I): u64 entities | u64 total_bins
//                              | u64 total_windows
//   then vocab windows[] cells[], then per store the flat arrays in a
//   fixed order (see sctx.cc). file_size self-checks truncation; every
//   array offset is derived from the header, so a corrupt header cannot
//   index outside the mapping.
//
// The one heap structure SCTX does not carry is the per-entity
// WindowSegmentTree (a flat leaf index only the LSH signature layer
// queries). ReadSctx rebuilds it from the mapped CSR + vocabulary, whose
// bins are already (window, cell)-sorted, so the rebuild copies without
// sorting — or skips it (build_trees = false) when the run's candidate
// generator never needs it, which is the memory-lean choice for brute/grid
// runs.
#ifndef SLIM_CORE_SCTX_H_
#define SLIM_CORE_SCTX_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "core/linkage_context.h"

namespace slim {

/// The SCTX format version this build reads and writes. v2 dropped v1's
/// u16 copy of the bin counts; a v1 file fails with the version-skew error.
inline constexpr uint32_t kSctxVersion = 2;

/// Serializes `context` to `path` (overwrites). The context may use any
/// backing (an owned build or a previously mapped file).
Status WriteSctx(const LinkageContext& context, const std::string& path);

struct SctxReadOptions {
  /// Rebuild the per-entity window trees (required by the LSH candidate
  /// generator; brute/grid runs can skip them — HistoryStore::has_trees()).
  bool build_trees = true;
  /// Worker threads for the tree rebuild; <= 0 means the library default.
  int threads = 0;
};

/// Maps `path` read-only and returns a context whose flat arrays view the
/// mapping (LinkageContext::backing keeps it alive across copies). Fails
/// with InvalidArgument on bad magic / version skew / structural
/// inconsistencies (an offset array that does not run from 0 up to its
/// header count, a bin id outside the vocabulary, a window index that
/// disagrees with its entity's bins or fingerprint) and IoError on
/// unreadable or truncated files.
Result<LinkageContext> ReadSctx(const std::string& path,
                                const SctxReadOptions& options = {});

}  // namespace slim

#endif  // SLIM_CORE_SCTX_H_
