// Keeps the library's anonymous spill files inside the benchmark's work
// directory.
//
// The out-of-core driver spills edges through std::tmpfile, which glibc
// always places in /tmp, while the benchmark reads and writes only inside
// its checkout. This definition takes the C library's place for this one
// executable (the library is linked in statically, so its calls bind here)
// and keeps the same contract: an unlinked file, removed when closed.
#include <stdlib.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "bench.h"

namespace {
std::string g_spill_dir = ".";
}  // namespace

namespace slimbench {
void SetSpillDirectory(const std::string& dir) { g_spill_dir = dir; }
}  // namespace slimbench

extern "C" std::FILE* tmpfile() {
  std::string path = g_spill_dir + "/spill-XXXXXX";
  const int fd = mkstemp(path.data());
  if (fd < 0) return nullptr;
  unlink(path.c_str());
  std::FILE* file = fdopen(fd, "w+b");
  if (file == nullptr) close(fd);
  return file;
}
