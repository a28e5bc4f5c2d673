// Process memory readings for the benchmark's memory metric.
#pragma once

#include <cstdint>

namespace perfbench {

/// Current (not peak) resident set size in bytes, from /proc/self/statm;
/// 0 where procfs is unavailable.
std::int64_t current_rss_bytes();

/// current_rss_bytes() after returning the heap's free memory to the
/// system, so that growth measured from it counts every page the
/// following work touches instead of depending on what earlier work
/// happened to leave free.
std::int64_t rss_baseline_bytes();

}  // namespace perfbench
