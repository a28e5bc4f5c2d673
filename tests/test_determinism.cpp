// Bit-for-bit determinism of the event core, pinned across data-structure
// changes. The simulator's contract (DESIGN.md §9) is that identical seeds
// produce identical runs: same Medium::Stats, same delivered messages in
// the same order with the same timestamps, same energy totals, same event
// count. Two properties are checked over a contended multi-sender scenario:
//
//  1. Repeatability — two runs with the same seeds digest identically.
//  2. Data-structure independence — the spatially-indexed delivery path
//     and the exhaustive dense scan it replaced produce identical runs.
//     The grid must only skip nodes that are provably below the
//     carrier-sense floor (which never consume RNG draws), so switching
//     it on is invisible to the simulation.
//     A second, listening-heavy neighbourhood drives every hint
//     transition of the listener index (Medium::set_listening): RX
//     windows, WUR companions, brown-outs, BLE slaves and a radio woken
//     in the middle of another receiver's delivery.
//  3. Thread-count independence — the sharded parallel engine at a
//     fixed shard count produces identical runs for threads={1,2,4}.
//     Shard assignment, per-shard RNG streams and the cross-shard merge
//     order are functions of the shard layout alone; threads only pick
//     which worker executes which shard (sim/parallel.hpp). Because a
//     global delivery order does not exist across concurrent shards,
//     the digest is per-gateway (deterministic within a shard) and
//     combined in gateway order.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "ap/access_point.hpp"
#include "ap/wur_scheduler.hpp"
#include "ble/link.hpp"
#include "sim/fault.hpp"
#include "wile/controller.hpp"
#include "wile/gateway.hpp"
#include "wile/receiver.hpp"
#include "wile/scenario.hpp"
#include "wile/sender.hpp"

namespace wile::core {
namespace {

// FNV-1a over everything an application could observe about a delivery.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add_bytes(const Bytes& data) {
    add(data.size());
    for (std::uint8_t b : data) {
      hash_ ^= b;
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct RunResult {
  sim::Medium::Stats medium_stats;
  std::uint64_t message_digest = 0;
  std::uint64_t messages = 0;
  std::uint64_t events_run = 0;
  double total_energy_j = 0.0;

  friend bool operator==(const RunResult&, const RunResult&) = default;
};

// A contended neighbourhood: 25 duty-cycled senders 4 m apart (all well
// within carrier-sense range of each other), CSMA on, jittered wakeups,
// one monitor. Thirty simulated seconds of overlapping cycles exercises
// scheduler churn (CSMA defers/cancels), collisions, and the PER draw
// order — everything that could diverge if event or RNG ordering drifted.
RunResult run_reference_scenario(bool grid_enabled) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{0xD37E12}};
  medium.set_spatial_grid_enabled(grid_enabled);

  Receiver monitor{scheduler, medium, {10, 10}};
  Digest digest;
  monitor.set_message_callback([&](const Message& m, const RxMeta& meta) {
    digest.add(m.device_id);
    digest.add(m.sequence);
    digest.add_bytes(m.data);
    digest.add(static_cast<std::uint64_t>(meta.received_at.us()));
  });

  Rng master{0xD7E7E241ULL};
  std::vector<std::unique_ptr<Sender>> senders;
  constexpr int kSide = 5;
  for (int i = 0; i < kSide * kSide; ++i) {
    SenderConfig cfg;
    cfg.device_id = 0x500 + static_cast<std::uint32_t>(i);
    cfg.period = seconds(5);
    cfg.use_csma = true;
    cfg.wake_jitter = msec(200);
    senders.push_back(std::make_unique<Sender>(
        scheduler, medium,
        sim::Position{static_cast<double>(i % kSide) * 4.0,
                      static_cast<double>(i / kSide) * 4.0},
        cfg, master.fork()));
    senders.back()->start_duty_cycle(
        [i] { return Bytes{static_cast<std::uint8_t>(i), 0xA5, 0x17}; });
  }

  scheduler.run_until(TimePoint{seconds(30)});
  for (auto& s : senders) s->stop_duty_cycle();

  RunResult result;
  result.medium_stats = medium.stats();
  result.message_digest = digest.value();
  result.messages = monitor.stats().messages;
  result.events_run = scheduler.events_run();
  for (const auto& s : senders) {
    result.total_energy_j +=
        s->timeline().energy_between(TimePoint{}, TimePoint{seconds(30)}).value;
  }
  return result;
}

TEST(Determinism, IdenticalSeedsProduceIdenticalRuns) {
  const RunResult a = run_reference_scenario(/*grid_enabled=*/true);
  const RunResult b = run_reference_scenario(/*grid_enabled=*/true);

  EXPECT_EQ(a.medium_stats.transmissions, b.medium_stats.transmissions);
  EXPECT_EQ(a.medium_stats.deliveries, b.medium_stats.deliveries);
  EXPECT_EQ(a.medium_stats.collision_losses, b.medium_stats.collision_losses);
  EXPECT_EQ(a.medium_stats.channel_losses, b.medium_stats.channel_losses);
  EXPECT_EQ(a.message_digest, b.message_digest);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.events_run, b.events_run);
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);  // bit-exact, not NEAR
}

TEST(Determinism, SpatialGridMatchesDenseScanExactly) {
  const RunResult grid = run_reference_scenario(/*grid_enabled=*/true);
  const RunResult dense = run_reference_scenario(/*grid_enabled=*/false);

  EXPECT_EQ(grid.medium_stats.transmissions, dense.medium_stats.transmissions);
  EXPECT_EQ(grid.medium_stats.deliveries, dense.medium_stats.deliveries);
  EXPECT_EQ(grid.medium_stats.collision_losses, dense.medium_stats.collision_losses);
  EXPECT_EQ(grid.medium_stats.channel_losses, dense.medium_stats.channel_losses);
  EXPECT_EQ(grid.message_digest, dense.message_digest);
  EXPECT_EQ(grid.messages, dense.messages);
  EXPECT_EQ(grid.events_run, dense.events_run);
  EXPECT_EQ(grid.total_energy_j, dense.total_energy_j);
}

/// What the listening-heavy scenario did, so a test can insist every
/// hint transition it is meant to cover actually happened.
struct ListeningActivity {
  std::uint64_t downlinks = 0;
  std::uint64_t acks = 0;
  std::uint64_t wur_wakes = 0;
  std::uint64_t brown_outs = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t ble_payloads = 0;
};

// Listening-heavy neighbourhood for the listener index: one medium
// shared by every client that moves its listening hint.
//  * RX-window senders (half of them reliable) and a controller that
//    acks, reports and injects queued downlinks into their windows: the
//    hint rises and falls every cycle.
//  * WUR companions swept round-robin by a wake-up AP: hinted while the
//    main radio sleeps, cleared for the woken cycle.
//  * Harvesting senders, WUR and RX-window alike, browned out by the
//    fault injector: a dark WUR companion drops its hint until recharge.
//  * A gateway whose monitor hands each reading to its PS station: the
//    station's radio wakes (hint raised) inside the monitor's delivery,
//    so grid delivery must admit it into that same transmission.
//  * On a second (BLE) medium, overlapping connections whose slaves are
//    hinted only while they wait for their master's poll.
RunResult run_listening_scenario(bool grid_enabled, ListeningActivity* activity) {
  sim::Scheduler scheduler;
  sim::Medium medium{scheduler, phy::Channel{}, Rng{0x115E7}};
  medium.set_spatial_grid_enabled(grid_enabled);
  sim::Medium ble_medium{scheduler, phy::Channel{}, Rng{0xB1E}};
  ble_medium.set_spatial_grid_enabled(grid_enabled);

  Digest digest;
  auto record = [&digest](const Message& m, const RxMeta& meta) {
    digest.add(m.device_id);
    digest.add(m.sequence);
    digest.add_bytes(m.data);
    digest.add(static_cast<std::uint64_t>(meta.received_at.us()));
  };

  ap::AccessPoint ap{scheduler, medium, {0, 0}, ap::AccessPointConfig{}, Rng{10}};
  std::uint64_t server_batches = 0;
  ap.set_uplink_handler([&](const MacAddress&, const net::Ipv4Header&,
                            const net::UdpDatagram& udp) {
    ++server_batches;
    digest.add_bytes(udp.payload);
  });
  ap.start();
  GatewayConfig gw_cfg;
  gw_cfg.station.mac = MacAddress::from_seed(0x6A7E);
  Gateway gateway{scheduler, medium, {3, 0}, gw_cfg, Rng{20}};
  gateway.start({});

  ControllerConfig ctl_cfg;
  ctl_cfg.auto_ack = true;
  ctl_cfg.channel_reports = true;
  Controller controller{scheduler, medium, {6, 6}, ctl_cfg, Rng{30}};
  controller.set_message_callback(record);

  HarvestingConfig harvesting;
  harvesting.harvester.capacitance_f = 20e-3;
  harvesting.harvester.harvest_power = Watts{20e-3};

  Rng master{0x115E7C0DEULL};
  std::vector<std::unique_ptr<Sender>> senders;
  std::vector<std::uint16_t> wur_ids;
  std::uint64_t downlinks = 0;
  constexpr int kSide = 6;
  for (int i = 0; i < kSide * kSide; ++i) {
    SenderConfig cfg;
    cfg.device_id = 0x700 + static_cast<std::uint32_t>(i);
    cfg.period = seconds(4);
    cfg.wake_jitter = msec(300);
    const bool wur = i % 3 == 2;
    if (wur) {
      cfg.wur = WurCompanionConfig{};
    } else {
      cfg.rx_window = RxWindow{msec(2), msec(20)};
      cfg.reliable = i % 2 == 0;
    }
    if (i % 4 == 1 || i % 4 == 2) cfg.harvesting = harvesting;
    senders.push_back(std::make_unique<Sender>(
        scheduler, medium,
        sim::Position{static_cast<double>(i % kSide) * 3.0,
                      static_cast<double>(i / kSide) * 3.0},
        cfg, master.fork()));
    Sender& s = *senders.back();
    auto payload = [i] { return Bytes{static_cast<std::uint8_t>(i), 0x5E}; };
    if (wur) {
      s.arm_wur(payload);
      wur_ids.push_back(s.wur_id());
    } else {
      s.set_downlink_callback([&digest, &downlinks](const Message& m) {
        ++downlinks;
        digest.add(m.device_id);
        digest.add_bytes(m.data);
      });
      s.start_duty_cycle(payload);
    }
  }

  ap::WurScheduler wur_ap{scheduler, medium, {8, 8}, Rng{0x11BA}};
  wur_ap.start_round_robin(wur_ids, seconds(3));

  sim::FaultInjector faults{scheduler, medium, Rng{0xFA17}};
  for (auto& s : senders) {
    if (s->energy_governor() != nullptr) faults.attach_energy_target(s->energy_governor());
  }
  faults.brown_out_all(TimePoint{seconds(14)});
  faults.rf_drought(TimePoint{seconds(24)}, seconds(4));

  std::vector<std::unique_ptr<ble::BleMaster>> masters;
  std::vector<std::unique_ptr<ble::BleSlave>> slaves;
  for (int i = 0; i < 4; ++i) {
    ble::BleLinkConfig cfg;
    cfg.access_address = 0x50123456u + static_cast<std::uint32_t>(i);
    cfg.connection_interval = msec(40 + 15 * i);
    cfg.slave_latency = i % 2;
    masters.push_back(std::make_unique<ble::BleMaster>(
        scheduler, ble_medium, sim::Position{2.0 * i, 0}, cfg));
    slaves.push_back(std::make_unique<ble::BleSlave>(
        scheduler, ble_medium, sim::Position{2.0 * i, 1}, cfg));
    masters.back()->start();
    slaves.back()->start();
  }

  for (int k = 1; k <= 8; ++k) {
    scheduler.schedule_at(TimePoint{seconds(3 * k)}, [&controller, &slaves, k] {
      for (std::uint32_t d = 0; d < kSide * kSide; d += 3) {
        controller.queue_downlink(0x700 + d, Bytes{static_cast<std::uint8_t>(k)});
      }
      for (auto& slave : slaves) slave->queue_payload(Bytes{static_cast<std::uint8_t>(k)});
    });
  }

  constexpr Duration kRun = seconds(40);
  scheduler.run_until(TimePoint{kRun});

  RunResult result;
  result.medium_stats = medium.stats();
  const sim::Medium::Stats& ble = ble_medium.stats();
  for (std::uint64_t v : {ble.transmissions, ble.deliveries, ble.collision_losses,
                          ble.channel_losses}) {
    digest.add(v);
  }
  for (std::size_t i = 0; i < masters.size(); ++i) {
    for (const Bytes& payload : masters[i]->received_payloads()) digest.add_bytes(payload);
    digest.add(slaves[i]->events_attended());
    digest.add(slaves[i]->events_skipped());
    digest.add(slaves[i]->polls_missed());
  }
  digest.add(server_batches);
  digest.add(wur_ap.wakes_sent());
  for (const auto& s : senders) {
    digest.add(s->wur_wakes());
    digest.add(s->brown_outs());
    digest.add(s->cycles_resumed());
    digest.add(s->current_tier());
  }
  result.message_digest = digest.value();
  result.messages = controller.stats().windows_seen + gateway.stats().forwarded;
  result.events_run = scheduler.events_run();
  for (const auto& s : senders) {
    result.total_energy_j +=
        s->timeline().energy_between(TimePoint{}, TimePoint{kRun}).value;
  }
  if (activity != nullptr) {
    activity->downlinks = downlinks;
    activity->acks = controller.stats().acks_sent;
    activity->forwarded = gateway.stats().forwarded;
    for (const auto& m : masters) activity->ble_payloads += m->received_payloads().size();
    for (const auto& s : senders) {
      activity->wur_wakes += s->wur_wakes();
      activity->brown_outs += s->brown_outs();
    }
  }
  return result;
}

TEST(Determinism, SpatialGridMatchesDenseScanWhileListening) {
  ListeningActivity act;
  const RunResult grid = run_listening_scenario(/*grid_enabled=*/true, &act);
  // The dense scan also arms the hint oracle: it throws if any client
  // cleared its hint while still reporting rx_enabled().
  RunResult dense;
  ASSERT_NO_THROW(dense = run_listening_scenario(/*grid_enabled=*/false, nullptr));

  // Every hint transition the scenario exists for must have happened.
  EXPECT_GT(act.downlinks, 10u);
  EXPECT_GT(act.acks, 10u);
  EXPECT_GT(act.wur_wakes, 10u);
  EXPECT_GT(act.brown_outs, 5u);
  EXPECT_GT(act.forwarded, 10u);
  EXPECT_GT(act.ble_payloads, 10u);
  EXPECT_GT(grid.medium_stats.deliveries, 1000u);

  EXPECT_EQ(grid.medium_stats, dense.medium_stats);
  EXPECT_EQ(grid.message_digest, dense.message_digest);
  EXPECT_EQ(grid.messages, dense.messages);
  EXPECT_EQ(grid.events_run, dense.events_run);
  EXPECT_EQ(grid.total_energy_j, dense.total_energy_j);
}

// Same contended-neighbourhood shape as run_reference_scenario, but on
// the sharded engine: 100 CSMA senders 4 m apart striped over 8 shards
// (stripe width 5 m, audible radius ~25 m — nearly every transmission
// crosses multiple stripes, the worst case for cross-shard commit).
RunResult run_sharded_scenario(unsigned threads) {
  auto scenario =
      sim::ScenarioBuilder{}
          .devices(100)
          .grid_spacing_m(4.0)
          .gateways(4)
          .duty_cycle(seconds(5))
          .wake_jitter(msec(200))
          .seed(0xD7E7E241ULL)
          .medium_seed(0xD37E12)
          .configure_sender([](SenderConfig& cfg, int) { cfg.use_csma = true; })
          .threads(threads)
          .shards(8)
          .window(msec(10))
          .telemetry(false)
          .build();

  // Per-gateway digests: each gateway fires only on its owning shard's
  // thread, and each writes its own preallocated slot — no shared
  // mutable state between workers.
  auto& gateways = scenario->gateways();
  std::vector<Digest> digests(gateways.size());
  for (std::size_t k = 0; k < gateways.size(); ++k) {
    gateways[k]->set_message_callback(
        [slot = &digests[k]](const Message& m, const RxMeta& meta) {
          slot->add(m.device_id);
          slot->add(m.sequence);
          slot->add_bytes(m.data);
          slot->add(static_cast<std::uint64_t>(meta.received_at.us()));
        });
  }

  scenario->run_for(seconds(30));
  scenario->stop_all();

  RunResult result;
  result.medium_stats = scenario->medium_stats();
  Digest combined;
  for (const Digest& d : digests) combined.add(d.value());
  result.message_digest = combined.value();
  for (const auto& gw : gateways) result.messages += gw->stats().messages;
  result.events_run = scenario->events_run();
  for (const auto& s : scenario->devices()) {
    result.total_energy_j +=
        s->timeline().energy_between(TimePoint{}, TimePoint{seconds(30)}).value;
  }
  return result;
}

TEST(Determinism, ShardedEngineIsThreadCountIndependent) {
  const RunResult one = run_sharded_scenario(1);
  const RunResult two = run_sharded_scenario(2);
  const RunResult four = run_sharded_scenario(4);

  // Traffic sanity first: digests of a dead fleet prove nothing.
  EXPECT_GT(one.medium_stats.transmissions, 100u);
  EXPECT_GT(one.messages, 50u);

  for (const RunResult* other : {&two, &four}) {
    EXPECT_EQ(one.medium_stats.transmissions, other->medium_stats.transmissions);
    EXPECT_EQ(one.medium_stats.deliveries, other->medium_stats.deliveries);
    EXPECT_EQ(one.medium_stats.collision_losses,
              other->medium_stats.collision_losses);
    EXPECT_EQ(one.medium_stats.channel_losses, other->medium_stats.channel_losses);
    EXPECT_EQ(one.message_digest, other->message_digest);
    EXPECT_EQ(one.messages, other->messages);
    EXPECT_EQ(one.events_run, other->events_run);
    EXPECT_EQ(one.total_energy_j, other->total_energy_j);  // bit-exact, not NEAR
  }
}

TEST(Determinism, ShardedEngineIsRepeatable) {
  const RunResult a = run_sharded_scenario(2);
  const RunResult b = run_sharded_scenario(2);
  EXPECT_EQ(a, b);
}

// The WUR mode on the sharded engine: the AP lives on one shard and its
// wake frames reach companions on every other shard through the same
// boundary-phantom path data frames use (RemoteTx carries the rate-less
// OOK waveform's explicit airtime). Wake order, companion RNG streams
// and the woken devices' uplinks must all be functions of the shard
// layout alone, never of the thread count.
RunResult run_sharded_wur_scenario(unsigned threads) {
  auto scenario = sim::ScenarioBuilder{}
                      .devices(100)
                      .grid_spacing_m(4.0)
                      .gateways(4)
                      .duty_cycle(seconds(5))
                      .wake_jitter(msec(200))
                      .seed(0xD7E7E241ULL)
                      .medium_seed(0xD37E12)
                      .wur(sim::WurFleetOptions{})
                      .threads(threads)
                      .shards(8)
                      .window(msec(10))
                      .telemetry(false)
                      .build();

  auto& gateways = scenario->gateways();
  std::vector<Digest> digests(gateways.size());
  for (std::size_t k = 0; k < gateways.size(); ++k) {
    gateways[k]->set_message_callback(
        [slot = &digests[k]](const Message& m, const RxMeta& meta) {
          slot->add(m.device_id);
          slot->add(m.sequence);
          slot->add_bytes(m.data);
          slot->add(static_cast<std::uint64_t>(meta.received_at.us()));
        });
  }

  scenario->run_for(seconds(30));
  scenario->stop_all();

  RunResult result;
  result.medium_stats = scenario->medium_stats();
  Digest combined;
  for (const Digest& d : digests) combined.add(d.value());
  combined.add(scenario->wur_ap()->wakes_sent());
  for (const auto& s : scenario->devices()) combined.add(s->wur_wakes());
  result.message_digest = combined.value();
  for (const auto& gw : gateways) result.messages += gw->stats().messages;
  result.events_run = scenario->events_run();
  for (const auto& s : scenario->devices()) {
    result.total_energy_j +=
        s->timeline().energy_between(TimePoint{}, TimePoint{seconds(30)}).value;
  }
  return result;
}

TEST(Determinism, WurShardedEngineIsThreadCountIndependent) {
  const RunResult one = run_sharded_wur_scenario(1);
  const RunResult two = run_sharded_wur_scenario(2);
  const RunResult four = run_sharded_wur_scenario(4);

  // Traffic sanity first: the AP must actually be waking companions.
  EXPECT_GT(one.medium_stats.transmissions, 100u);
  EXPECT_GT(one.messages, 50u);

  for (const RunResult* other : {&two, &four}) {
    EXPECT_EQ(one.medium_stats.transmissions, other->medium_stats.transmissions);
    EXPECT_EQ(one.medium_stats.deliveries, other->medium_stats.deliveries);
    EXPECT_EQ(one.medium_stats.collision_losses,
              other->medium_stats.collision_losses);
    EXPECT_EQ(one.medium_stats.channel_losses, other->medium_stats.channel_losses);
    EXPECT_EQ(one.message_digest, other->message_digest);
    EXPECT_EQ(one.messages, other->messages);
    EXPECT_EQ(one.events_run, other->events_run);
    EXPECT_EQ(one.total_energy_j, other->total_energy_j);  // bit-exact, not NEAR
  }
}

TEST(Determinism, WurShardedEngineIsRepeatable) {
  const RunResult a = run_sharded_wur_scenario(2);
  const RunResult b = run_sharded_wur_scenario(2);
  EXPECT_EQ(a, b);
}

TEST(Determinism, ScenarioActuallyExercisesTheMedium) {
  // Guard against the scenario silently degenerating (e.g. everyone out
  // of range): the digests above are only meaningful if traffic flowed
  // and contention happened.
  const RunResult r = run_reference_scenario(/*grid_enabled=*/true);
  EXPECT_GT(r.medium_stats.transmissions, 100u);
  EXPECT_GT(r.messages, 100u);
  EXPECT_GT(r.events_run, 1000u);
  EXPECT_GT(r.total_energy_j, 0.0);
}

}  // namespace
}  // namespace wile::core
