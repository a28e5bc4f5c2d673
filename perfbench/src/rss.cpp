#include "rss.hpp"

#include <malloc.h>
#include <unistd.h>

#include <cstdio>

namespace perfbench {

std::int64_t current_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long size_pages = 0;
  long resident_pages = 0;
  const int matched = std::fscanf(f, "%ld %ld", &size_pages, &resident_pages);
  std::fclose(f);
  if (matched != 2) return 0;
  return static_cast<std::int64_t>(resident_pages) * sysconf(_SC_PAGESIZE);
}

std::int64_t rss_baseline_bytes() {
  malloc_trim(0);
  return current_rss_bytes();
}

}  // namespace perfbench
