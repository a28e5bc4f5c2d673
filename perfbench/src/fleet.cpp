#include "fleet.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "chain.hpp"
#include "digest.hpp"
#include "probes.hpp"
#include "rss.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/frame_buffer.hpp"
#include "wile/scenario.hpp"

namespace perfbench {

using namespace wile;

namespace {

struct FleetSpec {
  const char* name;
  int devices;
  bool wur;
  Duration step;     // simulated time per run_until call
  /// Run before timing; the determinism checkpoint. Long enough that the
  /// gateway chain's rules tables, which grow as new devices are heard,
  /// have made their large doublings (ms each; they were the top of the
  /// batch_us tail): those end by ~600 sim-s on fleet_sleepy and ~40
  /// sim-s on fleet_wur_listen.
  Duration warmup;
  /// Simulated time after the warm-up at which the timed run reads its
  /// memory growth, so the reading does not depend on how far a faster
  /// or slower build gets in --seconds.
  Duration rss_after;
  /// Simulated seconds per benchmark second in each of the traced run's
  /// two fixed-length runs.
  double trace_sim_per_s;
};

constexpr FleetSpec kFleets[] = {
    {"fleet_sleepy", 40'000, false, seconds(2), seconds(600), seconds(1200), 40.0},
    {"fleet_wur_listen", 4'000, true, msec(250), seconds(60), seconds(240), 6.0},
};
/// The sharded engine's configuration in the traced run of the Wi-LE
/// fleet. Two workers, not four: on a 4-vCPU VM four spinning workers
/// leave the host's vCPU scheduling, not the engine, setting the pace.
constexpr unsigned kShardThreads = 2;
constexpr std::size_t kShards = 8;
constexpr int kWurGatewaysPerSide = 16;
constexpr TimePoint kForever{Duration{INT64_MAX / 2}};

/// Receives every gateway message (from worker threads on the sharded
/// engine, hence the lock) and runs it through the gateway chain. The
/// messages are held until a batch's 16 have arrived and then go through
/// the chain back to back, so that batch_us times the chain's work on a
/// batch, as on ingest_replay, and not the simulator's time between
/// messages. Spans and batch latencies are only read from the serial
/// engine, where the chain runs inside run_until on the benchmark thread.
struct Sink {
  /// The chain's ingest table knows the fleet's devices (ids 1..devices)
  /// from the start, as ingest_replay's does, so no batch pays for its
  /// growth. The rules engine offers no such hook; the warm-up covers it.
  explicit Sink(const FleetSpec& spec, SpanLog* spans = nullptr) : chain(spans) {
    chain.provision(static_cast<std::uint32_t>(spec.devices) + 1);
  }
  struct Held {
    core::Message m;
    double rssi_dbm;
    TimePoint at;
  };
  std::mutex mu;
  GatewayChain chain;
  std::vector<Held> held;
  std::uint64_t step = 0;

  void deliver(const core::Message& m, const core::RxMeta& meta) {
    const std::lock_guard<std::mutex> lock(mu);
    held.push_back({m, meta.rssi_dbm, meta.received_at});
    if (held.size() < GatewayChain::kBatchMax) return;
    const std::int64_t start = cpu_now_ns();
    for (const Held& h : held) chain.on_message(h.m, h.rssi_dbm, h.at, start, step);
    held.clear();
  }
};

/// `lattice` false builds fleet_wur_listen with the builder's default
/// gateway instead of the lattice, for gateway.lattice_share.
std::unique_ptr<sim::Scenario> build(const FleetSpec& spec, std::uint64_t seed,
                                     unsigned threads, Sink& sink, bool lattice = true) {
  sim::ScenarioBuilder b;
  b.devices(spec.devices)
      .grid_spacing_m(5)
      .gateway_every(2500)
      .duty_cycle(seconds(60))
      .seed(mix_seed(seed, 1))
      .medium_seed(mix_seed(seed, 2))
      .per_node_metrics(false)
      .on_message([&sink](const core::Message& m, const core::RxMeta& meta) {
        sink.deliver(m, meta);
      });
  if (spec.wur) b.wur(sim::WurFleetOptions{});
  if (spec.wur && lattice) {
    // Gateways on a lattice over the whole grid, so woken devices'
    // uplinks are heard (the default single diagonal gateway hears
    // ~0.5 readings per simulated second, too few to time batches).
    const int side = static_cast<int>(std::ceil(std::sqrt(spec.devices)));
    const double pitch = side * 5.0 / kWurGatewaysPerSide;
    b.gateways(kWurGatewaysPerSide * kWurGatewaysPerSide)
        .place_gateway([pitch](int k) {
          return sim::Position{(k % kWurGatewaysPerSide + 0.5) * pitch,
                               (k / kWurGatewaysPerSide + 0.5) * pitch};
        });
  }
  if (threads > 0) b.threads(threads).shards(kShards);
  return b.build();
}

/// Counters read at step boundaries through the public accessors.
struct Counts {
  std::uint64_t events = 0;
  sim::Medium::Stats medium;
  std::uint64_t messages = 0;
  std::uint64_t cycles = 0;
  std::uint64_t beacons = 0;
  std::uint64_t gw_messages = 0, gw_duplicates = 0, gw_fragments = 0, gw_decode_failures = 0;
  std::uint64_t windows = 0, stalls = 0, boundary_tx = 0;
};

Counts read_counts(sim::Scenario& sc) {
  Counts c;
  c.events = sc.events_run();
  c.medium = sc.medium_stats();
  c.messages = sc.messages();
  for (const auto& s : sc.devices()) {
    c.cycles += s->cycles_run();
    c.beacons += s->beacons_sent();
  }
  for (const auto& g : sc.gateways()) {
    const core::ReceiverStats& st = g->stats();
    c.gw_messages += st.messages;
    c.gw_duplicates += st.duplicates;
    c.gw_fragments += st.fragments;
    c.gw_decode_failures += st.crc_failures + st.decrypt_failures;
  }
  if (const sim::ParallelEngine* engine = sc.parallel_engine()) {
    for (const sim::ShardStats& s : engine->shard_stats()) {
      c.windows += s.windows;
      c.stalls += s.barrier_stalls;
      c.boundary_tx += s.boundary_tx_out;
    }
  }
  return c;
}

/// Digest over events, medium stats, messages, per-gateway receiver
/// stats and summed sender energy.
std::uint64_t fleet_digest(sim::Scenario& sc) {
  Digest d;
  d.add(sc.events_run());
  const sim::Medium::Stats m = sc.medium_stats();
  for (const std::uint64_t v :
       {m.transmissions, m.deliveries, m.collision_losses, m.channel_losses}) {
    d.add(v);
  }
  d.add(sc.messages());
  for (const auto& g : sc.gateways()) {
    const core::ReceiverStats& st = g->stats();
    for (const std::uint64_t v : {st.beacons_seen, st.wile_beacons, st.fragments, st.messages,
                                  st.duplicates, st.crc_failures, st.fcs_failures,
                                  st.collisions_observed}) {
      d.add(v);
    }
  }
  double energy_j = 0.0;
  for (const auto& s : sc.devices()) {
    energy_j += s->timeline().energy_between(TimePoint{}, sc.now()).value;
  }
  d.add_double(energy_j);
  if (sc.wur_ap() != nullptr) d.add(sc.wur_ap()->wakes_sent());
  return d.value();
}

/// Consistency checks. Senders count a beacon when they hand it to
/// CSMA, so mid-run the medium may not have started the last few yet:
/// beacons == transmissions is checked only once `quiescent` (after
/// drain()), and transmissions <= beacons before that.
void check_fleet(const FleetSpec& spec, sim::Scenario& sc, Sink& sink, bool quiescent,
                 RunResult& r) {
  const Counts c = read_counts(sc);
  const std::string at = std::string(spec.name) + " at t=" +
                         std::to_string(to_seconds(sc.now().since_epoch())) + "s: ";
  if (!spec.wur) {
    r.check(quiescent ? c.beacons == c.medium.transmissions
                      : c.beacons >= c.medium.transmissions,
            at + "beacons sent " + std::to_string(c.beacons) +
                (quiescent ? " != " : " < ") + "medium transmissions " +
                std::to_string(c.medium.transmissions));
  }
  r.check(c.messages == c.gw_messages, at + "messages() " + std::to_string(c.messages) +
                                           " != sum of gateway messages " +
                                           std::to_string(c.gw_messages));
  const std::lock_guard<std::mutex> lock(sink.mu);
  const std::uint64_t readings = sink.chain.readings_in() + sink.held.size();
  r.check(readings == c.messages, at + "gateway chain received " + std::to_string(readings) +
                                      " readings, messages() is " +
                                      std::to_string(c.messages));
}

/// Stop every duty cycle and let the cycles in progress finish.
void drain(sim::Scenario& sc) {
  sc.stop_all();
  sc.run_until(sc.now() + seconds(2));
}

struct Timed {
  double wall_s = 0.0;
  double cpu_s = 0.0;            // this thread's CPU time in the steps
  std::vector<double> step_ms;   // CPU ms per step
  std::uint64_t live_peak = 0;
};

/// Advance in spec.step calls until `until` (simulated) or until `stop`,
/// asked after every step, returns true.
Timed advance(const FleetSpec& spec, sim::Scenario& sc, Sink& sink, TimePoint until,
              SpanLog* spans, const std::function<bool(const Timed&)>& stop = {}) {
  Timed t;
  const std::int64_t start = now_ns();
  while (sc.now() < until) {
    {
      const std::lock_guard<std::mutex> lock(sink.mu);
      ++sink.step;
    }
    const std::int64_t a = cpu_now_ns();
    {
      ScopedSpan span(spans, SpanName::RunUntil, sink.step);
      sc.run_until(sc.now() + spec.step);
    }
    const double ms = static_cast<double>(cpu_now_ns() - a) / 1e6;
    t.step_ms.push_back(ms);
    t.cpu_s += ms / 1e3;
    if (spans != nullptr) t.live_peak = std::max(t.live_peak, FrameBuffer::live_buffers());
    if (stop && stop(t)) break;
  }
  t.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  return t;
}

std::uint64_t cycles(sim::Scenario& sc) { return read_counts(sc).cycles; }

/// ScenarioBuilder::build() into `out`; returns its CPU seconds.
double timed_build(const FleetSpec& spec, const RunArgs& args, Sink& sink,
                   std::unique_ptr<sim::Scenario>& out) {
  const std::int64_t t0 = cpu_now_ns();
  out = build(spec, args.seed, 0, sink);
  return static_cast<double>(cpu_now_ns() - t0) / 1e9;
}

RunResult run_timed(const FleetSpec& spec, const RunArgs& args) {
  RunResult r;
  EndToEnd e;
  std::vector<double> setups;
  {
    Sink sink{spec};
    std::unique_ptr<sim::Scenario> sc;
    const std::int64_t rss0 = rss_baseline_bytes();
    setups.push_back(timed_build(spec, args, sink, sc));

    advance(spec, *sc, sink, TimePoint{spec.warmup}, nullptr);
    r.check(same_as_earlier_runs(args, "warmup", fleet_digest(*sc)),
            std::string(spec.name) + ": warm-up digest differs from an earlier run");
    check_fleet(spec, *sc, sink, /*quiescent=*/false, r);

    sink.chain.clear_samples();
    const std::uint64_t msgs0 = sc->messages();
    const TimePoint sim0 = sc->now();
    const TimePoint rss_at = sim0 + spec.rss_after;
    std::int64_t rss = -1;
    // Step for --seconds, and on past them until the memory reading's
    // simulated time is reached and both tails have the samples a p99
    // needs, so a slower build reports slower figures rather than
    // failing its checks; past the memory reading, give up at 6x
    // --seconds.
    const std::int64_t deadline = deadline_after(args.seconds);
    const std::int64_t cap = deadline_after(6.0 * args.seconds);
    const std::size_t need = samples_for_tail(0.99);
    const Timed t = advance(spec, *sc, sink, kForever, nullptr, [&](const Timed& so_far) {
      if (rss < 0 && sc->now() >= rss_at) rss = current_rss_bytes();
      const std::int64_t now = now_ns();
      const bool enough = so_far.step_ms.size() >= need && sink.chain.batch_us().size() >= need;
      return rss >= 0 && (now >= cap || (now >= deadline && enough));
    });
    e.step_ms = t.step_ms;
    e.sim_rate = to_seconds(sc->now() - sim0) / t.cpu_s;
    e.readings_per_s = static_cast<double>(sc->messages() - msgs0) / t.cpu_s;
    e.batch_us = sink.chain.batch_us();
    e.rss_per_node_bytes = static_cast<double>(rss - rss0) / static_cast<double>(spec.devices);
    drain(*sc);
    check_fleet(spec, *sc, sink, /*quiescent=*/true, r);
    r.attempted = cycles(*sc);
  }
  e.setup_s = setup_median(std::move(setups), [&] {
    Sink sink{spec};
    std::unique_ptr<sim::Scenario> sc;
    return timed_build(spec, args, sink, sc);
  });
  emit(e, r);
  if (!r.correct) r.failed = r.attempted;
  return r;
}

/// The Wi-LE fleet on the sharded engine over the traced run's span:
/// fills the sim/parallel metrics, and checks that the result is a
/// function of the shard count alone (threads(1) over the same shards
/// reaches the same checkpoint digest).
void measure_parallel(const FleetSpec& spec, const RunArgs& args, TimePoint end,
                      double serial_wall_s, Layers& l, RunResult& r) {
  Sink sink{spec};
  auto sc = build(spec, args.seed, kShardThreads, sink);
  advance(spec, *sc, sink, TimePoint{spec.warmup}, nullptr);
  const std::uint64_t checkpoint = fleet_digest(*sc);
  const Counts c0 = read_counts(*sc);
  const Timed t = advance(spec, *sc, sink, end, nullptr);
  const Counts c1 = read_counts(*sc);
  drain(*sc);
  check_fleet(spec, *sc, sink, /*quiescent=*/true, r);
  sc.reset();

  const auto d = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a); };
  l.parallel_windows = d(c0.windows, c1.windows);
  l.parallel_barrier_stalls = d(c0.stalls, c1.stalls);
  l.parallel_stalls_per_window = l.parallel_barrier_stalls / std::max(1.0, l.parallel_windows);
  l.parallel_boundary_tx = d(c0.boundary_tx, c1.boundary_tx);
  l.parallel_boundary_share =
      l.parallel_boundary_tx / std::max(1.0, d(c0.medium.transmissions, c1.medium.transmissions));
  l.parallel_speedup = serial_wall_s / t.wall_s;

  Sink ref_sink{spec};
  auto ref = build(spec, args.seed, 1, ref_sink);
  advance(spec, *ref, ref_sink, TimePoint{spec.warmup}, nullptr);
  r.check(fleet_digest(*ref) == checkpoint,
          std::string(spec.name) + ": threads(1).shards(8) and threads(" +
              std::to_string(kShardThreads) + ").shards(8) differ at the checkpoint");
}

RunResult run_traced(const FleetSpec& spec, const RunArgs& args) {
  RunResult r;
  const double steps = std::max(1.0, std::round(args.seconds * spec.trace_sim_per_s /
                                                to_seconds(spec.step)));
  const TimePoint end = TimePoint{spec.warmup + spec.step * static_cast<std::int64_t>(steps)};

  // An untraced run over the same seed and simulated span, for the
  // digest comparison and the trace.overhead baseline. It runs twice,
  // first as a warm-up, then again after the traced run, so neither the
  // traced nor the baseline run pays the process's first page faults.
  const auto untraced = [&](bool lattice = true) {
    Sink sink{spec};
    auto sc = build(spec, args.seed, 0, sink, lattice);
    advance(spec, *sc, sink, TimePoint{spec.warmup}, nullptr);
    const Timed t = advance(spec, *sc, sink, end, nullptr);
    return std::pair{t, fleet_digest(*sc)};
  };
  const std::uint64_t digest_a = untraced().second;

  // The traced run.
  SpanLog spans;
  Sink sink{spec, &spans};
  std::unique_ptr<sim::Scenario> sc;
  {
    ScopedSpan span(&spans, SpanName::Build, 0);
    sc = build(spec, args.seed, 0, sink);
  }
  advance(spec, *sc, sink, TimePoint{spec.warmup}, nullptr);
  r.check(same_as_earlier_runs(args, "warmup", fleet_digest(*sc)),
          std::string(spec.name) + ": warm-up digest differs from an earlier run");
  const Counts c0 = read_counts(*sc);
  const Timed t = advance(spec, *sc, sink, end, &spans);
  const Counts c1 = read_counts(*sc);
  r.check(fleet_digest(*sc) == digest_a,
          std::string(spec.name) + ": traced run digest differs from the untraced run");
  double segments = 0.0;
  for (const auto& s : sc->devices()) {
    segments += static_cast<double>(s->timeline().segments().size());
  }
  drain(*sc);
  check_fleet(spec, *sc, sink, /*quiescent=*/true, r);
  r.attempted = cycles(*sc);
  sc.reset();
  const auto [baseline, digest_again] = untraced();
  r.check(digest_again == digest_a,
          std::string(spec.name) + ": repeated untraced run digest differs");

  Layers l;
  const auto d = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a); };
  l.scheduler_events = d(c0.events, c1.events);
  l.scheduler_events_per_s = l.scheduler_events / t.cpu_s;
  l.medium_transmissions = d(c0.medium.transmissions, c1.medium.transmissions);
  l.medium_deliveries = d(c0.medium.deliveries, c1.medium.deliveries);
  l.medium_collision_losses = d(c0.medium.collision_losses, c1.medium.collision_losses);
  l.medium_channel_losses = d(c0.medium.channel_losses, c1.medium.channel_losses);
  l.medium_deliveries_per_tx = l.medium_deliveries / std::max(1.0, l.medium_transmissions);
  l.sender_cycles = d(c0.cycles, c1.cycles);
  l.sender_beacons = d(c0.beacons, c1.beacons);
  l.sender_events_per_cycle = l.scheduler_events / std::max(1.0, l.sender_cycles);
  l.timeline_segments_per_node = segments / static_cast<double>(spec.devices);
  l.frame_buffer_live_peak = static_cast<double>(t.live_peak);
  l.scenario_build_s = spans.total_s(SpanName::Build);
  l.scenario_run_busy_s = spans.self_s(SpanName::RunUntil);
  l.receiver_messages = d(c0.gw_messages, c1.gw_messages);
  l.receiver_duplicates = d(c0.gw_duplicates, c1.gw_duplicates);
  l.receiver_fragments = d(c0.gw_fragments, c1.gw_fragments);
  l.receiver_decode_failures = d(c0.gw_decode_failures, c1.gw_decode_failures);
  const GatewayChain& ch = sink.chain;
  const double readings = static_cast<double>(std::max<std::uint64_t>(1, ch.readings_in()));
  l.ingest_busy_s = spans.self_s(SpanName::Ingest);
  l.ingest_ns_per_reading = l.ingest_busy_s * 1e9 / readings;
  l.ingest_reports = static_cast<double>(ch.reports());
  l.batch_busy_s = spans.self_s(SpanName::Batch);
  l.batch_batches = static_cast<double>(ch.batches());
  l.batch_bytes_per_reading = static_cast<double>(ch.batch_bytes()) / readings;
  l.rules_busy_s = spans.self_s(SpanName::Rules);
  l.rules_ns_per_reading = l.rules_busy_s * 1e9 / readings;
  l.rules_fired = static_cast<double>(ch.fired());
  l.gateway_chain_share =
      (l.ingest_busy_s + l.batch_busy_s + l.rules_busy_s) / spans.total_s(SpanName::RunUntil);
  if (spec.wur) {
    // The same span with the builder's single default gateway instead of
    // the lattice: the CPU share the lattice's deliveries, decode and
    // chain take.
    l.gateway_lattice_share = 1.0 - untraced(false).first.cpu_s / baseline.cpu_s;
  }
  l.trace_overhead = t.cpu_s / baseline.cpu_s - 1.0;
  l.trace_coverage = spans.total_s(SpanName::RunUntil) / t.wall_s;
  if (!spec.wur) measure_parallel(spec, args, end, baseline.wall_s, l, r);
  run_probes(l, spec.name, args.seed);
  write_trace(args, spans);
  emit(l, r);
  if (!r.correct) r.failed = r.attempted;
  return r;
}

}  // namespace

std::optional<RunResult> run_fleet(const RunArgs& args) {
  for (const FleetSpec& spec : kFleets) {
    if (args.workload == spec.name) {
      return args.trace ? run_traced(spec, args) : run_timed(spec, args);
    }
  }
  return std::nullopt;
}

}  // namespace perfbench
