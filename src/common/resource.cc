#include "common/resource.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace slim {

uint64_t CurrentPeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  // macOS reports ru_maxrss in bytes.
  return static_cast<uint64_t>(usage.ru_maxrss);
#else
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

void ReleaseFreeHeapMemory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace slim
