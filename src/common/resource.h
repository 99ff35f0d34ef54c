// Process resource introspection for the benchmark instrumentation, and
// the one call that hands freed heap memory back to the OS.
#ifndef SLIM_COMMON_RESOURCE_H_
#define SLIM_COMMON_RESOURCE_H_

#include <cstdint>

namespace slim {

/// High-water-mark resident set size of this process, in bytes. Monotone
/// non-decreasing over the process lifetime (the kernel never lowers the
/// peak), so per-stage samples bound each stage's footprint from above.
/// Returns 0 on platforms without getrusage support.
uint64_t CurrentPeakRssBytes();

/// Returns the heap's free pages to the OS (glibc: malloc_trim(0), which
/// trims the main heap's top and releases the free pages of every arena).
/// Live allocations are untouched. A no-op on other allocators.
void ReleaseFreeHeapMemory();

}  // namespace slim

#endif  // SLIM_COMMON_RESOURCE_H_
