// Fault-injection subsystem + self-healing recovery, end to end.
//
// The headline scenario is the ISSUE's acceptance criterion: with the AP
// down for 30 s mid-run and a 10 % duty-cycle jammer on the air, the
// gateway must detect the dead uplink, re-associate once the AP returns,
// and keep forwarding — with a recovery latency that is a deterministic
// function of the seeds.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "ap/access_point.hpp"
#include "sim/fault.hpp"
#include "wile/gateway.hpp"
#include "wile/receiver.hpp"
#include "wile/sender.hpp"

namespace wile {
namespace {

using sim::FaultInjector;
using sim::JammerConfig;
using sim::Medium;
using sim::Scheduler;

TEST(FaultInjector, WindowsTrackGaugeAndRestoreNoise) {
  Scheduler scheduler;
  Medium medium{scheduler, phy::Channel{}, Rng{1}};
  FaultInjector fi{scheduler, medium, Rng{2}};

  fi.noise_floor_rise(TimePoint{seconds(1)}, seconds(2), 6.0);
  fi.noise_floor_rise(TimePoint{seconds(2)}, seconds(2), 4.0);  // overlaps

  std::vector<double> offsets;
  std::vector<std::uint64_t> active;
  for (int t = 0; t < 5; ++t) {
    scheduler.schedule_at(TimePoint{seconds(t) + msec(500)}, [&] {
      offsets.push_back(medium.noise_offset_db());
      active.push_back(fi.stats().fault_windows_active);
    });
  }
  scheduler.run_until(TimePoint{seconds(5)});

  EXPECT_EQ(offsets, (std::vector<double>{0.0, 6.0, 10.0, 4.0, 0.0}));
  EXPECT_EQ(active, (std::vector<std::uint64_t>{0, 1, 2, 1, 0}));
  EXPECT_EQ(fi.stats().windows_scheduled, 2u);
  EXPECT_EQ(fi.stats().windows_started, 2u);
  EXPECT_EQ(fi.stats().windows_ended, 2u);
  EXPECT_FALSE(fi.any_active());
}

TEST(FaultInjector, PerMultiplierStacksAndValidates) {
  Scheduler scheduler;
  Medium medium{scheduler, phy::Channel{}, Rng{1}};
  FaultInjector fi{scheduler, medium, Rng{2}};

  EXPECT_THROW(fi.per_multiplier(TimePoint{}, seconds(1), 0.0), std::invalid_argument);
  EXPECT_THROW(fi.window(TimePoint{}, seconds(-1), {}, {}), std::invalid_argument);

  fi.per_multiplier(TimePoint{seconds(1)}, seconds(2), 4.0);
  fi.per_multiplier(TimePoint{seconds(2)}, seconds(2), 2.0);
  std::vector<double> probes;
  for (int t = 0; t < 5; ++t) {
    scheduler.schedule_at(TimePoint{seconds(t) + msec(500)},
                          [&] { probes.push_back(medium.per_multiplier()); });
  }
  scheduler.run_until(TimePoint{seconds(5)});
  EXPECT_EQ(probes, (std::vector<double>{1.0, 4.0, 8.0, 2.0, 1.0}));
}

TEST(FaultInjector, RadioDeafnessBlanksAReceiver) {
  Scheduler scheduler;
  Medium medium{scheduler, phy::Channel{}, Rng{1}};
  core::Receiver rx{scheduler, medium, {1, 0}};
  core::SenderConfig cfg;
  cfg.device_id = 7;
  cfg.period = seconds(1);
  core::Sender sensor{scheduler, medium, {0, 0}, cfg, Rng{3}};

  FaultInjector fi{scheduler, medium, Rng{4}};
  // Deaf from t=10 s to t=20 s: roughly ten duty cycles vanish.
  fi.radio_deaf(TimePoint{seconds(10)}, seconds(10), rx.node_id());

  sensor.start_duty_cycle([] { return Bytes{0xAB}; });
  std::uint64_t before_deaf = 0;
  std::uint64_t during_deaf = 0;
  scheduler.schedule_at(TimePoint{seconds(10)}, [&] { before_deaf = rx.stats().messages; });
  scheduler.schedule_at(TimePoint{seconds(20)}, [&] { during_deaf = rx.stats().messages; });
  scheduler.run_until(TimePoint{seconds(30)});
  sensor.stop_duty_cycle();

  EXPECT_GE(before_deaf, 8u);
  EXPECT_EQ(during_deaf, before_deaf);  // nothing heard while deaf
  EXPECT_GT(rx.stats().messages, during_deaf);  // hearing resumes
  // The receiver's own loss estimator should notice the sequence gap.
  ASSERT_NE(rx.device(7u), nullptr);
  EXPECT_GE(rx.device(7u)->estimated_losses, 8u);
}

TEST(FaultInjector, JammerDegradesDeliveryOnlyWhileActive) {
  Scheduler scheduler;
  Medium medium{scheduler, phy::Channel{}, Rng{1}};
  core::Receiver rx{scheduler, medium, {1, 0}};
  core::SenderConfig cfg;
  cfg.device_id = 9;
  cfg.period = msec(500);
  cfg.use_csma = false;  // cheapest injector: no deference, pure collisions
  core::Sender sensor{scheduler, medium, {0, 0}, cfg, Rng{3}};

  FaultInjector fi{scheduler, medium, Rng{4}};
  JammerConfig jam;
  jam.position = {0.5, 0};
  jam.duty_cycle = 0.9;  // near-continuous: most frames must die
  jam.period = msec(2);
  fi.jammer(TimePoint{seconds(10)}, seconds(10), jam);

  sensor.start_duty_cycle([] { return Bytes{0x01}; });
  std::uint64_t clean = 0;
  std::uint64_t jammed = 0;
  scheduler.schedule_at(TimePoint{seconds(10)}, [&] { clean = rx.stats().messages; });
  scheduler.schedule_at(TimePoint{seconds(20)}, [&] { jammed = rx.stats().messages; });
  scheduler.run_until(TimePoint{seconds(30)});
  sensor.stop_duty_cycle();

  const std::uint64_t during = jammed - clean;
  const std::uint64_t after = rx.stats().messages - jammed;
  EXPECT_GE(clean, 15u);                    // ~20 cycles clean
  EXPECT_LT(during, clean / 2);             // jammer shreds the window
  EXPECT_GE(after, clean / 2);              // and releases it afterwards
  EXPECT_GT(fi.stats().jammer_bursts, 1000u);
  EXPECT_GT(rx.stats().collisions_observed, 0u);
}

TEST(FaultInjector, ClockDriftStepStretchesThePeriod) {
  Scheduler scheduler;
  Medium medium{scheduler, phy::Channel{}, Rng{1}};
  core::SenderConfig cfg;
  cfg.device_id = 11;
  cfg.period = seconds(1);
  core::Sender sensor{scheduler, medium, {0, 0}, cfg, Rng{3}};

  FaultInjector fi{scheduler, medium, Rng{4}};
  // +500000 ppm = +50 % period from t=30 s: a gross step, sized so the
  // cycle-count change is unmistakable over a 30 s half-window.
  fi.at(TimePoint{seconds(30)}, [&] { sensor.apply_clock_drift_ppm(500000.0); });

  sensor.start_duty_cycle([] { return Bytes{0x02}; });
  std::uint64_t at_30 = 0;
  scheduler.schedule_at(TimePoint{seconds(30)}, [&] { at_30 = sensor.cycles_run(); });
  scheduler.run_until(TimePoint{seconds(60)});
  sensor.stop_duty_cycle();

  EXPECT_EQ(fi.stats().events_fired, 1u);
  const std::uint64_t first_half = at_30;
  const std::uint64_t second_half = sensor.cycles_run() - at_30;
  EXPECT_GE(first_half, 28u);
  // 1.5 s wake-to-wake: ~20 cycles instead of ~30.
  EXPECT_LT(second_half, first_half - 5);
  EXPECT_GT(second_half, 15u);
}

// ---------------------------------------------------------------------------
// The headline scenario.
// ---------------------------------------------------------------------------

struct ScenarioResult {
  bool uplink_ready_at_end = false;
  std::uint64_t forwarded_mid = 0;   // at t=95 s, just after the AP returns
  std::uint64_t forwarded_end = 0;
  std::uint64_t uplink_losses = 0;
  std::uint64_t reassociations = 0;
  std::optional<TimePoint> recovered_at;  // first uplink_ready() after t=90 s
};

ScenarioResult run_outage_scenario() {
  Scheduler scheduler;
  Medium medium{scheduler, phy::Channel{}, Rng{1}};

  ap::AccessPointConfig ap_cfg;
  ap::AccessPoint ap{scheduler, medium, {0, 0}, ap_cfg, Rng{10}};
  std::uint64_t server_datagrams = 0;
  ap.set_uplink_handler(
      [&](const MacAddress&, const net::Ipv4Header&, const net::UdpDatagram&) {
        ++server_datagrams;
      });
  ap.start();

  core::GatewayConfig gw_cfg;
  gw_cfg.station.mac = MacAddress::from_seed(0x6A7E);
  core::Gateway gateway{scheduler, medium, {3, 0}, gw_cfg, Rng{20}};
  bool ready = false;
  gateway.start([&](bool ok) { ready = ok; });
  scheduler.run_until(TimePoint{seconds(10)});
  EXPECT_TRUE(ready);

  core::SenderConfig sensor_cfg;
  sensor_cfg.device_id = 0x501;
  sensor_cfg.period = seconds(2);
  core::Sender sensor{scheduler, medium, {5, 0}, sensor_cfg, Rng{30}};
  sensor.start_duty_cycle([] { return Bytes{'o', 'k'}; });

  FaultInjector fi{scheduler, medium, Rng{7}};
  // AP hard-down for 30 s in the middle of the run...
  fi.window(TimePoint{seconds(60)}, seconds(30), [&] { ap.stop(); }, [&] { ap.start(); });
  // ...under a 10 % duty-cycle jammer covering the outage and recovery.
  JammerConfig jam;
  jam.position = {4, 1};
  jam.duty_cycle = 0.10;
  fi.jammer(TimePoint{seconds(40)}, seconds(80), jam);

  ScenarioResult result;
  // Recovery probe: 100 ms resolution, deterministic for fixed seeds.
  for (int i = 0; i < 600; ++i) {
    scheduler.schedule_at(TimePoint{seconds(90) + msec(100 * i)}, [&, now = TimePoint{seconds(90) + msec(100 * i)}] {
      if (!result.recovered_at && gateway.uplink_ready()) result.recovered_at = now;
    });
  }
  scheduler.schedule_at(TimePoint{seconds(95)},
                        [&] { result.forwarded_mid = gateway.stats().forwarded; });

  scheduler.run_until(TimePoint{seconds(180)});
  sensor.stop_duty_cycle();

  result.uplink_ready_at_end = gateway.uplink_ready();
  result.forwarded_end = gateway.stats().forwarded;
  result.uplink_losses = gateway.stats().uplink_losses;
  result.reassociations = gateway.stats().reassociations;
  EXPECT_EQ(fi.stats().windows_scheduled, 2u);
  EXPECT_EQ(fi.stats().windows_ended, 2u);
  EXPECT_FALSE(fi.any_active());
  return result;
}

TEST(FaultScenario, GatewaySurvivesApOutageUnderJamming) {
  const ScenarioResult r = run_outage_scenario();

  // The outage was noticed and healed.
  EXPECT_GE(r.uplink_losses, 1u);
  EXPECT_GE(r.reassociations, 1u);
  EXPECT_TRUE(r.uplink_ready_at_end);

  // Forwarding resumed after the AP returned and kept increasing.
  EXPECT_GT(r.forwarded_end, r.forwarded_mid);
  EXPECT_GT(r.forwarded_end, 30u);  // ~85 cycles total, most must land

  // Recovery happened, and promptly: backoff is capped at 8 s, so the
  // gateway must be back well inside 20 s of the AP's return.
  ASSERT_TRUE(r.recovered_at.has_value());
  EXPECT_LT(*r.recovered_at, TimePoint{seconds(110)});
}

TEST(FaultScenario, RecoveryLatencyIsDeterministic) {
  const ScenarioResult a = run_outage_scenario();
  const ScenarioResult b = run_outage_scenario();
  ASSERT_TRUE(a.recovered_at.has_value());
  ASSERT_TRUE(b.recovered_at.has_value());
  EXPECT_EQ(*a.recovered_at, *b.recovered_at);
  EXPECT_EQ(a.forwarded_end, b.forwarded_end);
  EXPECT_EQ(a.uplink_losses, b.uplink_losses);
  EXPECT_EQ(a.reassociations, b.reassociations);
}

}  // namespace
}  // namespace wile
