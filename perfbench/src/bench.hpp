// Shared plumbing of the benchmark driver: run arguments, the metric
// sets every workload reports, and the cross-run determinism memory.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  /// Directory for the determinism memory and trace files.
  std::string state_dir;
  /// Identifies the built code (run.py passes a hash of the driver
  /// binary): digests recorded by one build are compared only with runs
  /// of the same build, so a change that moves them on purpose starts a
  /// fresh record instead of failing against the old one.
  std::string build_id;
};

/// Timed (untraced) run: the end-to-end metrics. Every workload fills
/// every field; see README.md for each workload's reading of them.
struct EndToEnd {
  double sim_rate = 0.0;
  std::vector<double> step_ms;
  double setup_s = 0.0;
  double rss_per_node_bytes = 0.0;
  double readings_per_s = 0.0;
  std::vector<double> batch_us;
};

/// Traced run: per-layer readings. Fields of a layer a workload does not
/// exercise stay 0.
struct Layers {
  double scheduler_events = 0, scheduler_events_per_s = 0, scheduler_probe_ns_per_event = 0;
  double medium_transmissions = 0, medium_deliveries = 0, medium_collision_losses = 0,
         medium_channel_losses = 0, medium_deliveries_per_tx = 0,
         medium_probe_ns_per_tx_sleepy = 0, medium_probe_ns_per_delivery_listen = 0;
  double sender_cycles = 0, sender_beacons = 0, sender_events_per_cycle = 0;
  double timeline_segments_per_node = 0;
  double frame_buffer_live_peak = 0;
  double parallel_windows = 0, parallel_barrier_stalls = 0, parallel_stalls_per_window = 0,
         parallel_boundary_tx = 0, parallel_boundary_share = 0, parallel_speedup = 0;
  double scenario_build_s = 0, scenario_run_busy_s = 0;
  double receiver_busy_s = 0, receiver_ns_per_frame = 0, receiver_messages = 0,
         receiver_duplicates = 0, receiver_fragments = 0, receiver_decode_failures = 0;
  double ingest_busy_s = 0, ingest_ns_per_reading = 0, ingest_reports = 0;
  double batch_busy_s = 0, batch_batches = 0, batch_bytes_per_reading = 0;
  double rules_busy_s = 0, rules_ns_per_reading = 0, rules_fired = 0;
  double gateway_chain_share = 0, gateway_lattice_share = 0;
  double trace_overhead = 0, trace_coverage = 0;
};

/// Adds the end-to-end metrics to `r`; a tail percentile without ten
/// samples beyond it fails the run's checks.
void emit(const EndToEnd& e, RunResult& r);
void emit(const Layers& l, RunResult& r);

class SpanLog;
/// Write the traced run's spans as Chrome trace JSON under
/// args.state_dir.
void write_trace(const RunArgs& args, const SpanLog& spans);

/// setup_s: the median of `samples` (wall seconds per set-up) after
/// topping them up with `setup_once` calls to at least 5 samples, and
/// further while they sum to under 0.25 s (up to 25 samples), so that
/// set-ups of a few milliseconds are not read from a handful of runs.
double setup_median(std::vector<double> samples, const std::function<double()>& setup_once);

/// Wall-clock deadline `seconds` from now, in now_ns() units.
std::int64_t deadline_after(double seconds);

/// Compare `digest` with the one an earlier run of the same build,
/// workload, seed and `tag` recorded under args.state_dir, recording it
/// if none was. Returns false on a mismatch.
bool same_as_earlier_runs(const RunArgs& args, const std::string& tag, std::uint64_t digest);

}  // namespace perfbench
