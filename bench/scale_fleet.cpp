// Fleet-scale stress bench for the event core (DESIGN.md §9): N Wi-LE
// senders on a 5 m grid duty-cycling every 60 s, plus one gateway
// receiver per 2500 devices, simulated for an hour. Exercises exactly
// the paths the fleet refactor optimised — scheduler churn from CSMA
// and duty-cycle timers, spatial delivery queries over a mostly
// out-of-earshot fleet, and shared frame buffers on the dense
// neighbourhoods around each sender.
//
// Setup goes through sim::ScenarioBuilder, whose defaults ARE this
// bench's historical hand wiring (seeds 0xF1EE7 / 0xF1EE7C0DE, 5 m
// grid, staggered starts) — tests/test_telemetry.cpp pins the two
// bit-identical.
//
// Writes BENCH_scale_fleet.json: per-N events/sec, sim/wall speed
// ratio, Medium stats, peak RSS and this run's RSS delta, plus a
// per-component memory census (timeline segment heap per node and the
// inline size of one Sender with its Csma). The transmission/delivery/
// message counts double as a cross-version determinism oracle: they are
// seed-determined, so any event-core change that alters them broke
// reproducibility (see tests/test_determinism.cpp). Unless
// --no-telemetry, also exports the full wile-telemetry-v1 snapshot of
// the last run (per-node TX/RX/energy plus aggregates) for the CI
// artifact + schema check.
//
// Usage: scale_fleet [--quick] [--out PATH] [--telemetry-out PATH]
//                    [--no-telemetry] [--threads N] [--shards N]
//   --quick          N=1000 for 600 simulated seconds (CI-sized)
//   default          N in {1000, 10000, 100000} serial, one simulated
//                    hour each; then N=100000 on the sharded engine at
//                    threads {1, 2, 4}; then the ROADMAP north-star
//                    N=1,000,000 x 1 h at 4 threads
//   --no-telemetry   skip metric registration entirely (A/B overhead runs)
//   --threads N      override: run the whole plan on the sharded engine
//                    with N worker threads (0 = legacy serial engine)
//   --shards N       stripe count for the sharded engine (default 8;
//                    results depend on this, not on --threads)
//
// Each JSON row carries its engine config (threads, shards — 0/0 for
// serial) plus hw_threads, the machine's core count: the schema gate
// only enforces events/sec scaling where the hardware can actually run
// the workers in parallel, but enforces the tx/delivery/message
// determinism oracle across thread counts unconditionally.
//
// Peak RSS is process-wide and monotone, so runs are ordered smallest
// N first and each row reports the high-water mark up to that run;
// rss_delta_mb is the per-run change in *current* RSS (from
// /proc/self/statm), which does not suffer the high-water-mark
// monotonicity.
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "wile/scenario.hpp"

using namespace wile;

namespace {

struct FleetResult {
  int n = 0;
  int sim_seconds = 0;
  unsigned threads = 0;   // 0 = legacy serial engine
  std::size_t shards = 0; // 0 = legacy serial engine
  double wall_s = 0.0;
  double ratio = 0.0;  // simulated seconds per wall second
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t collision_losses = 0;
  std::uint64_t messages = 0;
  double rss_peak_mb = 0.0;
  double rss_delta_mb = 0.0;  // current-RSS change across this run
  double rss_per_node_bytes = 0.0;  // rss_delta_mb * 1024 * 1024 / n
  // Per-component census: the power-timeline heap (allocated segment
  // slots) averaged over the fleet, and one device's inline footprint.
  double timeline_bytes_per_node = 0.0;
  std::size_t sender_inline_bytes = sizeof(core::Sender) + sizeof(sim::Csma);
};

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Current (not peak) resident set in MB, from /proc/self/statm.
/// Returns 0 on platforms without procfs — the delta then reads 0,
/// which the JSON consumer treats as "unavailable".
double current_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long size_pages = 0, resident_pages = 0;
  const int matched = std::fscanf(f, "%ld %ld", &size_pages, &resident_pages);
  std::fclose(f);
  if (matched != 2) return 0.0;
  const long page = sysconf(_SC_PAGESIZE);
  return static_cast<double>(resident_pages) * static_cast<double>(page) /
         (1024.0 * 1024.0);
}

FleetResult run_fleet(int n, int sim_seconds, unsigned threads, std::size_t shards,
                      bool telemetry, std::string* telemetry_json) {
  const double rss_before_mb = current_rss_mb();

  auto builder = sim::ScenarioBuilder{}
                     .devices(n)
                     .grid_spacing_m(5)
                     .gateway_every(2500)
                     .duty_cycle(seconds(60))
                     .seed(0xF1EE7C0DE)
                     .medium_seed(0xF1EE7)
                     .telemetry(telemetry)
                     // Above ~10k nodes the per-node registry itself
                     // becomes a measurable slice of RSS; keep it out
                     // of the fleet-memory measurement. Aggregates
                     // stay on regardless.
                     .per_node_metrics(n <= 10'000);
  if (threads > 0) builder.threads(threads).shards(shards);
  auto scenario = builder.build();

  const auto wall_start = std::chrono::steady_clock::now();
  scenario->run_until(TimePoint{seconds(sim_seconds)});
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();

  FleetResult r;
  r.n = n;
  r.sim_seconds = sim_seconds;
  r.threads = threads;
  r.shards = threads > 0 ? shards : 0;
  r.wall_s = wall_s;
  r.ratio = sim_seconds / wall_s;
  r.events = scenario->events_run();
  r.events_per_sec = static_cast<double>(r.events) / wall_s;
  const sim::Medium::Stats stats = scenario->medium_stats();
  r.transmissions = stats.transmissions;
  r.deliveries = stats.deliveries;
  r.collision_losses = stats.collision_losses;
  r.messages = scenario->messages();
  r.rss_peak_mb = peak_rss_mb();
  r.rss_delta_mb = current_rss_mb() - rss_before_mb;
  r.rss_per_node_bytes =
      n > 0 ? r.rss_delta_mb * 1024.0 * 1024.0 / static_cast<double>(n) : 0.0;
  std::size_t timeline_bytes = 0;
  for (const auto& s : scenario->devices()) {
    timeline_bytes += s->timeline().segments().capacity() * sizeof(power::Segment);
  }
  r.timeline_bytes_per_node =
      n > 0 ? static_cast<double>(timeline_bytes) / static_cast<double>(n) : 0.0;

  if (telemetry && telemetry_json != nullptr) {
    telemetry::ExportMeta meta;
    meta.bench = "scale_fleet";
    meta.ints = {{"n", n},
                 {"sim_seconds", sim_seconds},
                 {"events", static_cast<std::int64_t>(r.events)}};
    meta.doubles = {{"wall_seconds", wall_s}};
    *telemetry_json = scenario->export_json(meta);
  }
  return r;
}

void write_json(const std::vector<FleetResult>& rows, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror("scale_fleet: fopen");
    return;
  }
  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::fprintf(f, "{\n  \"bench\": \"scale_fleet\",\n  \"hw_threads\": %u,\n  \"runs\": [\n",
               hw_threads);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const FleetResult& r = rows[i];
    std::fprintf(f,
                 "    {\"n\": %d, \"sim_seconds\": %d, \"wall_seconds\": %.3f,\n"
                 "     \"threads\": %u, \"shards\": %zu, \"hw_threads\": %u,\n"
                 "     \"sim_wall_ratio\": %.1f, \"events\": %llu,\n"
                 "     \"events_per_sec\": %.0f, \"transmissions\": %llu,\n"
                 "     \"deliveries\": %llu, \"collision_losses\": %llu,\n"
                 "     \"messages\": %llu, \"rss_peak_mb\": %.1f,\n"
                 "     \"rss_delta_mb\": %.1f, \"rss_per_node_bytes\": %.1f,\n"
                 "     \"timeline_bytes_per_node\": %.1f, \"sender_inline_bytes\": %zu}%s\n",
                 r.n, r.sim_seconds, r.wall_s, r.threads, r.shards, hw_threads,
                 r.ratio,
                 static_cast<unsigned long long>(r.events), r.events_per_sec,
                 static_cast<unsigned long long>(r.transmissions),
                 static_cast<unsigned long long>(r.deliveries),
                 static_cast<unsigned long long>(r.collision_losses),
                 static_cast<unsigned long long>(r.messages), r.rss_peak_mb,
                 r.rss_delta_mb, r.rss_per_node_bytes, r.timeline_bytes_per_node,
                 r.sender_inline_bytes, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

struct PlanEntry {
  int n;
  int sim_seconds;
  unsigned threads;   // 0 = serial
  std::size_t shards; // 0 = serial
};

int main(int argc, char** argv) {
  bool quick = false;
  bool telemetry = true;
  long threads_override = -1;  // -1 = no override; 0 = force serial
  std::size_t shards = 8;
  std::string out_path = "BENCH_scale_fleet.json";
  std::string telemetry_path = "BENCH_scale_fleet_telemetry.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--no-telemetry") == 0) {
      telemetry = false;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads_override = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--telemetry-out") == 0 && i + 1 < argc) {
      telemetry_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--out PATH] [--telemetry-out PATH] "
                   "[--no-telemetry] [--threads N] [--shards N]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<PlanEntry> plan;
  if (threads_override >= 0) {
    // Override mode: the whole plan on one engine config (CI A/B runs).
    const auto t = static_cast<unsigned>(threads_override);
    const std::size_t s = t > 0 ? shards : 0;
    if (quick) {
      plan.push_back({1'000, 600, t, s});
    } else {
      plan.push_back({1'000, 3600, t, s});
      plan.push_back({10'000, 3600, t, s});
      plan.push_back({100'000, 3600, t, s});
    }
  } else if (quick) {
    plan.push_back({1'000, 600, 0, 0});
  } else {
    // Serial baseline, then the thread axis at fixed N and shard count
    // (the determinism oracle compares those three rows), then the
    // ROADMAP north-star fleet on the sharded engine.
    plan.push_back({1'000, 3600, 0, 0});
    plan.push_back({10'000, 3600, 0, 0});
    plan.push_back({100'000, 3600, 0, 0});
    plan.push_back({100'000, 3600, 1, shards});
    plan.push_back({100'000, 3600, 2, shards});
    plan.push_back({100'000, 3600, 4, shards});
    plan.push_back({1'000'000, 3600, 4, shards});
  }

  std::printf("scale_fleet: %zu run(s)%s%s\n", plan.size(), quick ? " [quick]" : "",
              telemetry ? "" : " [no-telemetry]");
  std::vector<FleetResult> rows;
  std::string telemetry_json;  // last run's full snapshot
  for (const PlanEntry& p : plan) {
    const FleetResult r =
        run_fleet(p.n, p.sim_seconds, p.threads, p.shards, telemetry, &telemetry_json);
    rows.push_back(r);
    std::printf(
        "n=%-7d sim=%ds threads=%u shards=%zu wall=%.2fs ratio=%.1fx "
        "events=%llu (%.2fM ev/s) tx=%llu deliveries=%llu messages=%llu "
        "rss_peak=%.1fMB rss_delta=%+.1fMB (%.0f B/node, timeline %.0f B/node, "
        "sender inline %zu B)\n",
        r.n, r.sim_seconds, r.threads, r.shards, r.wall_s, r.ratio,
        static_cast<unsigned long long>(r.events), r.events_per_sec / 1e6,
        static_cast<unsigned long long>(r.transmissions),
        static_cast<unsigned long long>(r.deliveries),
        static_cast<unsigned long long>(r.messages), r.rss_peak_mb, r.rss_delta_mb,
        r.rss_per_node_bytes, r.timeline_bytes_per_node, r.sender_inline_bytes);
  }
  write_json(rows, out_path);
  std::printf("wrote %s\n", out_path.c_str());
  if (telemetry && !telemetry_json.empty()) {
    if (telemetry::write_file(telemetry_path, telemetry_json)) {
      std::printf("wrote %s\n", telemetry_path.c_str());
    } else {
      std::fprintf(stderr, "scale_fleet: failed to write %s\n",
                   telemetry_path.c_str());
      return 1;
    }
  }
  return 0;
}
