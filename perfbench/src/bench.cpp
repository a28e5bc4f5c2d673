#include "bench.hpp"

#include <cinttypes>
#include <cstdio>

#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

void emit_timing(const char* name, const std::vector<double>& samples, const char* unit,
                 RunResult& r) {
  const std::string base = name;
  r.metric(base + ".p50", median(samples), unit);
  const auto p99 = tail_percentile(samples, 0.99);
  r.check(p99.has_value(), base + ".p99: " + std::to_string(samples.size()) +
                               " samples leave fewer than 10 beyond the 99th percentile");
  r.metric(base + ".p99", p99.value_or(0.0), unit);
}

}  // namespace

void emit(const EndToEnd& e, RunResult& r) {
  r.metric("sim_rate", e.sim_rate, "sim_s/s");
  emit_timing("step_ms", e.step_ms, "ms", r);
  r.metric("setup_s", e.setup_s, "s");
  r.metric("rss_per_node_bytes", e.rss_per_node_bytes, "bytes");
  r.metric("readings_per_s", e.readings_per_s, "1/s");
  emit_timing("batch_us", e.batch_us, "us", r);
}

void emit(const Layers& l, RunResult& r) {
  r.metric("scheduler.events", l.scheduler_events, "count");
  r.metric("scheduler.events_per_s", l.scheduler_events_per_s, "1/s");
  r.metric("scheduler.probe_ns_per_event", l.scheduler_probe_ns_per_event, "ns");
  r.metric("medium.transmissions", l.medium_transmissions, "count");
  r.metric("medium.deliveries", l.medium_deliveries, "count");
  r.metric("medium.collision_losses", l.medium_collision_losses, "count");
  r.metric("medium.channel_losses", l.medium_channel_losses, "count");
  r.metric("medium.deliveries_per_tx", l.medium_deliveries_per_tx, "ratio");
  r.metric("medium.probe_ns_per_tx.sleepy", l.medium_probe_ns_per_tx_sleepy, "ns");
  r.metric("medium.probe_ns_per_delivery.listen", l.medium_probe_ns_per_delivery_listen,
           "ns");
  r.metric("sender.cycles", l.sender_cycles, "count");
  r.metric("sender.beacons", l.sender_beacons, "count");
  r.metric("sender.events_per_cycle", l.sender_events_per_cycle, "ratio");
  r.metric("timeline.segments_per_node", l.timeline_segments_per_node, "count");
  r.metric("frame_buffer.live_peak", l.frame_buffer_live_peak, "count");
  r.metric("parallel.windows", l.parallel_windows, "count");
  r.metric("parallel.barrier_stalls", l.parallel_barrier_stalls, "count");
  r.metric("parallel.stalls_per_window", l.parallel_stalls_per_window, "ratio");
  r.metric("parallel.boundary_tx", l.parallel_boundary_tx, "count");
  r.metric("parallel.boundary_share", l.parallel_boundary_share, "ratio");
  r.metric("parallel.speedup", l.parallel_speedup, "ratio");
  r.metric("scenario.build_s", l.scenario_build_s, "s");
  r.metric("scenario.run_busy_s", l.scenario_run_busy_s, "s");
  r.metric("receiver.busy_s", l.receiver_busy_s, "s");
  r.metric("receiver.ns_per_frame", l.receiver_ns_per_frame, "ns");
  r.metric("receiver.messages", l.receiver_messages, "count");
  r.metric("receiver.duplicates", l.receiver_duplicates, "count");
  r.metric("receiver.fragments", l.receiver_fragments, "count");
  r.metric("receiver.decode_failures", l.receiver_decode_failures, "count");
  r.metric("ingest.busy_s", l.ingest_busy_s, "s");
  r.metric("ingest.ns_per_reading", l.ingest_ns_per_reading, "ns");
  r.metric("ingest.reports", l.ingest_reports, "count");
  r.metric("batch.busy_s", l.batch_busy_s, "s");
  r.metric("batch.batches", l.batch_batches, "count");
  r.metric("batch.bytes_per_reading", l.batch_bytes_per_reading, "bytes");
  r.metric("rules.busy_s", l.rules_busy_s, "s");
  r.metric("rules.ns_per_reading", l.rules_ns_per_reading, "ns");
  r.metric("rules.fired", l.rules_fired, "count");
  r.metric("gateway.chain_share", l.gateway_chain_share, "ratio");
  r.metric("gateway.lattice_share", l.gateway_lattice_share, "ratio");
  r.metric("trace.overhead", l.trace_overhead, "ratio");
  r.metric("trace.coverage", l.trace_coverage, "ratio");
}

void write_trace(const RunArgs& args, const SpanLog& spans) {
  const std::string path = args.state_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  if (!write_chrome_trace(path, spans.chrome_events())) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
}

double setup_median(std::vector<double> samples, const std::function<double()>& setup_once) {
  constexpr std::size_t kMinSamples = 5;
  constexpr std::size_t kMaxSamples = 25;
  constexpr double kMinTotalS = 0.25;
  double total = 0.0;
  for (const double s : samples) total += s;
  while (samples.size() < kMinSamples ||
         (total < kMinTotalS && samples.size() < kMaxSamples)) {
    samples.push_back(setup_once());
    total += samples.back();
  }
  return median(std::move(samples));
}

std::int64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::int64_t>(seconds * 1e9);
}

bool same_as_earlier_runs(const RunArgs& args, const std::string& tag,
                          std::uint64_t digest) {
  const std::string path = args.state_dir + "/digest-" + args.build_id + "-" + args.workload +
                           "-" + std::to_string(args.seed) + "-" + tag + ".txt";
  if (std::FILE* f = std::fopen(path.c_str(), "r")) {
    unsigned long long earlier = 0;
    const bool read = std::fscanf(f, "%llx", &earlier) == 1;
    std::fclose(f);
    if (read) return earlier == digest;
  }
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "%016" PRIx64 "\n", digest);
    std::fclose(f);
  }
  return true;
}

}  // namespace perfbench
