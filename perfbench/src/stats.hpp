// Order statistics for the benchmark's timing samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes); 0 for
/// an empty sample.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  return (*std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid)) + hi) /
         2.0;
}

/// Samples a tail percentile needs beyond it before it is reported.
constexpr std::size_t kMinTailSamples = 10;

/// A sample count large enough for tail_percentile(v, q) to be reported.
inline std::size_t samples_for_tail(double q) {
  return static_cast<std::size_t>(std::ceil(static_cast<double>(kMinTailSamples) / (1.0 - q)));
}

/// Nearest-rank percentile `q` (0 < q < 1) of `v`, or nullopt when fewer
/// than kMinTailSamples samples lie strictly beyond its rank — a tail
/// read from a handful of samples is noise, not a percentile.
inline std::optional<double> tail_percentile(std::vector<double> v, double q) {
  if (v.empty() || !(q > 0.0 && q < 1.0)) return std::nullopt;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  if (v.size() - 1 - idx < kMinTailSamples) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

}  // namespace perfbench
