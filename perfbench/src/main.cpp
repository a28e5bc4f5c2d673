// perfbench_driver: runs one benchmark workload and prints its result
// as the last line of standard output (see README.md).
//
// Usage: perfbench_driver --workload NAME --seed N --seconds S
//                         --trace 0|1 --state-dir DIR [--build-id ID]
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <utility>

#include "bench.hpp"
#include "fleet.hpp"
#include "ingest.hpp"
#include "report.hpp"

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atoi(value);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--state-dir") {
      args.state_dir = value;
    } else if (key == "--build-id") {
      args.build_id = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", key.c_str());
      return 2;
    }
  }
  if (args.workload.empty() || args.seconds < 1 || args.state_dir.empty()) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "--state-dir DIR [--build-id ID]\n",
                 argv[0]);
    return 2;
  }

  // A fixed mmap threshold (32 MiB, glibc's dynamic maximum) instead of
  // the default adaptive one: the adaptive threshold moves with every
  // large block freed before it, so the same workload's memory growth
  // would depend on the sizes of earlier temporaries (seed by seed, the
  // ingest replay's RSS landed in two modes ~13 % apart).
  mallopt(M_MMAP_THRESHOLD, 32 << 20);

  perfbench::RunResult result;
  try {
    if (args.workload == "ingest_replay") {
      result = perfbench::run_ingest(args);
    } else if (auto fleet = perfbench::run_fleet(args)) {
      result = std::move(*fleet);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  for (const std::string& f : result.failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  std::printf("%s\n", perfbench::to_json(result).c_str());
  return result.correct ? 0 : 1;
}
