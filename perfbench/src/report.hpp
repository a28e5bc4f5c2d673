// One benchmark run's outcome: correctness verdict, operation counts
// and named metrics, printed as the single JSON result line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// One line per failed check, printed to stderr.
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    failures.push_back(what);
  }
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
/// with every value printed at full precision.
std::string to_json(const RunResult& r);

}  // namespace perfbench
