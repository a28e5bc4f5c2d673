// Unit tests for src/power: timelines, energy integration, Eq. (1), and
// the simulated multimeter.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <type_traits>

#include "power/battery.hpp"
#include "power/devices.hpp"
#include "power/timeline.hpp"
#include "power/trace_recorder.hpp"

namespace wile::power {
namespace {

TEST(Timeline, CurrentAtFollowsSegments) {
  PowerTimeline tl{volts(3.3)};
  tl.set_current(TimePoint{usec(0)}, milliamps(10), "a");
  tl.set_current(TimePoint{usec(100)}, milliamps(20), "b");
  EXPECT_NEAR(in_milliamps(tl.current_at(TimePoint{usec(0)})), 10.0, 1e-12);
  EXPECT_NEAR(in_milliamps(tl.current_at(TimePoint{usec(99)})), 10.0, 1e-12);
  EXPECT_NEAR(in_milliamps(tl.current_at(TimePoint{usec(100)})), 20.0, 1e-12);
  EXPECT_NEAR(in_milliamps(tl.current_at(TimePoint{usec(10'000)})), 20.0, 1e-12);
}

TEST(Timeline, BeforeFirstSegmentIsZero) {
  PowerTimeline tl{volts(3.3)};
  tl.set_current(TimePoint{usec(50)}, milliamps(10), "a");
  EXPECT_EQ(tl.current_at(TimePoint{usec(10)}).value, 0.0);
}

TEST(Timeline, EnergyIntegratesPiecewise) {
  PowerTimeline tl{volts(2.0)};
  tl.set_current(TimePoint{usec(0)}, amps(1.0), "a");     // 2 W
  tl.set_current(TimePoint{usec(100)}, amps(0.5), "b");   // 1 W
  // 100 us at 2 W + 100 us at 1 W = 200 uJ + 100 uJ.
  const Joules e = tl.energy_between(TimePoint{usec(0)}, TimePoint{usec(200)});
  EXPECT_NEAR(in_microjoules(e), 300.0, 1e-9);
}

TEST(Timeline, EnergySubrange) {
  PowerTimeline tl{volts(1.0)};
  tl.set_current(TimePoint{usec(0)}, amps(1.0), "a");
  const Joules e = tl.energy_between(TimePoint{usec(40)}, TimePoint{usec(60)});
  EXPECT_NEAR(in_microjoules(e), 20.0, 1e-9);
}

TEST(Timeline, LastSegmentExtendsForever) {
  PowerTimeline tl{volts(1.0)};
  tl.set_current(TimePoint{usec(0)}, amps(2.0), "a");
  const Joules e = tl.energy_between(TimePoint{seconds(10)}, TimePoint{seconds(11)});
  EXPECT_NEAR(e.value, 2.0, 1e-9);
}

TEST(Timeline, MergesIdenticalConsecutiveStates) {
  PowerTimeline tl{volts(3.3)};
  tl.set_current(TimePoint{usec(0)}, milliamps(10), "a");
  tl.set_current(TimePoint{usec(50)}, milliamps(10), "a");
  EXPECT_EQ(tl.segments().size(), 1u);
}

TEST(Timeline, ZeroLengthSegmentReplaced) {
  PowerTimeline tl{volts(3.3)};
  tl.set_current(TimePoint{usec(10)}, milliamps(10), "a");
  tl.set_current(TimePoint{usec(10)}, milliamps(20), "b");
  ASSERT_EQ(tl.segments().size(), 1u);
  EXPECT_NEAR(in_milliamps(tl.segments()[0].current), 20.0, 1e-12);
}

TEST(Timeline, RejectsNonMonotonicUpdates) {
  PowerTimeline tl{volts(3.3)};
  tl.set_current(TimePoint{usec(100)}, milliamps(10), "a");
  EXPECT_THROW(tl.set_current(TimePoint{usec(50)}, milliamps(5), "b"), std::logic_error);
}

TEST(Timeline, AveragePower) {
  PowerTimeline tl{volts(1.0)};
  tl.set_current(TimePoint{usec(0)}, amps(1.0), "a");
  tl.set_current(TimePoint{usec(100)}, amps(3.0), "b");
  const Watts avg = tl.average_power(TimePoint{usec(0)}, TimePoint{usec(200)});
  EXPECT_NEAR(avg.value, 2.0, 1e-9);
}

TEST(Timeline, FindPhaseLocatesRange) {
  PowerTimeline tl{volts(3.3)};
  tl.set_current(TimePoint{usec(0)}, milliamps(1), "Sleep");
  tl.set_current(TimePoint{usec(100)}, milliamps(40), "MC/WiFi init");
  tl.set_current(TimePoint{usec(300)}, milliamps(100), "Tx");
  tl.set_current(TimePoint{usec(400)}, milliamps(1), "Sleep");

  TimePoint start, end;
  ASSERT_TRUE(tl.find_phase("Tx", TimePoint{usec(0)}, &start, &end));
  EXPECT_EQ(start.us(), 300);
  EXPECT_EQ(end.us(), 400);
  EXPECT_FALSE(tl.find_phase("DHCP/ARP", TimePoint{usec(0)}, nullptr, nullptr));
}

TEST(Timeline, BoundedHistoryNeverOutgrowsOneSlotPastTheCap) {
  // The default vector doubling would take a 64-segment cap to 128 slots
  // just before folding back to 32.
  PowerTimeline capped{volts(3.3)};
  capped.set_max_segments(64);
  PowerTimeline uncapped{volts(3.3)};
  constexpr PhaseLabel kLabels[] = {"Sleep", "MC/WiFi init", "Tx"};
  TimePoint t{};
  for (int i = 0; i < 10'000; ++i) {
    t += usec(1 + (i * 7) % 13);
    const Amps current = milliamps(1 + (i * 37) % 50);
    const PhaseLabel label = kLabels[(i / 3) % 3];
    capped.set_current(t, current, label);
    uncapped.set_current(t, current, label);
    ASSERT_LE(capped.segments().capacity(), 65u) << "call " << i;
  }
  ASSERT_GT(capped.retained_since(), TimePoint{});
  ASSERT_LE(capped.segments().size(), 64u);

  // Over the retained window both timelines sum the same segments in the
  // same order: bit-identical, not merely close.
  const TimePoint end = t + msec(1);
  EXPECT_EQ(capped.energy_between(capped.retained_since(), end).value,
            uncapped.energy_between(capped.retained_since(), end).value);
  // Whole-run totals include the folded baseline (summed in another order).
  const double whole = uncapped.energy_between(TimePoint{}, end).value;
  EXPECT_NEAR(capped.energy_between(TimePoint{}, end).value, whole, whole * 1e-12);
}

// A label is compile-time text only: a runtime std::string cannot become one.
static_assert(!std::is_constructible_v<PhaseLabel, std::string>);

TEST(PhaseLabel, EqualTextComparesEqualAcrossStorage) {
  static constexpr char kOtherTx[] = "Tx";  // same text, its own address
  constexpr PhaseLabel a = "Tx";
  constexpr PhaseLabel b = kOtherTx;
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == PhaseLabel{"Rx"});
  EXPECT_EQ(b.view(), "Tx");

  // Equal text merges like an identical label, and find_phase sees it.
  PowerTimeline tl{volts(3.3)};
  tl.set_current(TimePoint{usec(0)}, milliamps(1), "Sleep");
  tl.set_current(TimePoint{usec(100)}, milliamps(100), a);
  tl.set_current(TimePoint{usec(150)}, milliamps(100), b);
  tl.set_current(TimePoint{usec(300)}, milliamps(1), "Sleep");
  EXPECT_EQ(tl.segments().size(), 3u);
  TimePoint start, end;
  ASSERT_TRUE(tl.find_phase("Tx", TimePoint{usec(0)}, &start, &end));
  EXPECT_EQ(start.us(), 100);
  EXPECT_EQ(end.us(), 300);
}

// ---------------------------------------------------------------------------
// Equation (1) of the paper
// ---------------------------------------------------------------------------

TEST(Eq1, MatchesHandComputation) {
  // Ptx=0.6 W for 140 us, Pidle=8.25 uW, INT=60 s.
  const Watts p = duty_cycle_average_power(watts(0.6), usec(140), microwatts(8.25),
                                           seconds(60));
  // (0.6*140e-6 + 8.25e-6*(60-0.00014)) / 60 = (84e-6 + 495e-6)/60.
  EXPECT_NEAR(in_microwatts(p), 9.65, 0.01);
}

TEST(Eq1, ShortIntervalApproachesTxPower) {
  const Watts p = duty_cycle_average_power(watts(0.5), msec(100), microwatts(1),
                                           msec(100));
  EXPECT_NEAR(p.value, 0.5, 1e-9);
}

TEST(Eq1, LongIntervalApproachesIdlePower) {
  const Watts p = duty_cycle_average_power(watts(0.5), usec(100), microwatts(10),
                                           minutes(60));
  EXPECT_NEAR(in_microwatts(p), 10.0, 0.2);
}

TEST(Eq1, MonotoneDecreasingInInterval) {
  double last = 1e9;
  for (int s = 10; s <= 300; s += 10) {
    const Watts p = duty_cycle_average_power(watts(0.6), msec(200), microwatts(8.25),
                                             seconds(s));
    EXPECT_LT(p.value, last);
    last = p.value;
  }
}

// ---------------------------------------------------------------------------
// TraceRecorder (the simulated Keysight 34465A)
// ---------------------------------------------------------------------------

TEST(TraceRecorder, SamplesAtConfiguredRate) {
  PowerTimeline tl{volts(3.3)};
  tl.set_current(TimePoint{usec(0)}, milliamps(10), "a");
  TraceRecorder rec;  // 50 kS/s => 20 us period
  const auto trace = rec.record(tl, TimePoint{usec(0)}, TimePoint{msec(1)});
  EXPECT_EQ(trace.size(), 50u);
  EXPECT_NEAR(trace[1].time_s - trace[0].time_s, 20e-6, 1e-9);
  EXPECT_NEAR(trace[0].current_ma, 10.0, 1e-9);
}

TEST(TraceRecorder, CapturesSpikes) {
  PowerTimeline tl{volts(3.3)};
  tl.set_current(TimePoint{usec(0)}, milliamps(1), "idle");
  tl.set_current(TimePoint{usec(500)}, milliamps(200), "tx");
  tl.set_current(TimePoint{usec(640)}, milliamps(1), "idle");
  TraceRecorder rec;
  const auto trace = rec.record(tl, TimePoint{usec(0)}, TimePoint{msec(2)});
  EXPECT_NEAR(TraceRecorder::peak_ma(trace), 200.0, 1e-9);
}

TEST(TraceRecorder, DecimationPreservesPeaks) {
  PowerTimeline tl{volts(3.3)};
  tl.set_current(TimePoint{usec(0)}, milliamps(1), "idle");
  tl.set_current(TimePoint{msec(500)}, milliamps(250), "tx");
  tl.set_current(TimePoint{msec(500) + usec(100)}, milliamps(1), "idle");
  TraceRecorder rec;
  const auto dense = rec.record(tl, TimePoint{usec(0)}, TimePoint{seconds(1)});
  const auto sparse = TraceRecorder::decimate(dense, 200);
  EXPECT_LE(sparse.size(), 200u);
  EXPECT_NEAR(TraceRecorder::peak_ma(sparse), 250.0, 1e-9);
}

TEST(TraceRecorder, CsvHasHeaderAndRows) {
  const std::vector<TraceSample> trace = {{0.0, 1.5}, {0.001, 2.5}};
  const std::string csv = TraceRecorder::to_csv(trace);
  EXPECT_NE(csv.find("time_s,current_mA"), std::string::npos);
  EXPECT_NE(csv.find("0.001000,2.5000"), std::string::npos);
}

TEST(TraceRecorder, MeanOfConstantTrace) {
  PowerTimeline tl{volts(3.3)};
  tl.set_current(TimePoint{usec(0)}, milliamps(42), "x");
  TraceRecorder rec;
  const auto trace = rec.record(tl, TimePoint{usec(0)}, TimePoint{msec(10)});
  EXPECT_NEAR(TraceRecorder::mean_ma(trace), 42.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Device profiles (paper constants)
// ---------------------------------------------------------------------------

TEST(DeviceProfiles, PaperQuotedCurrents) {
  const Esp32PowerProfile esp;
  EXPECT_NEAR(in_microamps(esp.deep_sleep), 2.5, 1e-9);       // §5.1 / Table 1
  EXPECT_NEAR(in_milliamps(esp.light_sleep), 0.8, 1e-9);      // §5.1
  EXPECT_NEAR(in_milliamps(esp.auto_light_sleep_assoc), 4.5, 1e-9);  // Table 1
  EXPECT_NEAR(esp.supply.value, 3.3, 1e-12);

  const Cc2541PowerProfile ble;
  EXPECT_NEAR(in_microamps(ble.sleep), 1.1, 1e-9);  // Table 1
  EXPECT_NEAR(ble.supply.value, 3.0, 1e-12);
}

TEST(DeviceProfiles, WiLeTxEnergyTargetsTable1) {
  // (airtime of a ~90-byte beacon at 72 Mbps + PA ramp) x 0.6 W should
  // land close to the paper's 84 uJ per message.
  const Esp32PowerProfile esp;
  const Watts p_tx = esp.supply * esp.radio_tx;
  EXPECT_NEAR(p_tx.value, 0.6, 0.01);
}

TEST(Battery, LifetimeFiniteUnderPositiveLoad) {
  const BatteryModel cell = BatteryModel::cr2032();
  const double secs = cell.lifetime_seconds(Watts{1e-3});
  EXPECT_TRUE(std::isfinite(secs));
  EXPECT_GT(secs, 0.0);
  // Sanity: ~2 kJ usable at ~1 mW net drain is on the order of weeks.
  EXPECT_NEAR(secs, cell.usable_energy().value /
                        (1e-3 + cell.self_discharge_power().value),
              1e-6);
}

TEST(Battery, LifetimeInfiniteWhenNetDrainNonPositive) {
  // A cell with no self-discharge and no load never empties; same for a
  // net-harvesting (negative) load. Both must report +infinity, not 0.
  BatteryModel ideal = BatteryModel::cr2032();
  ideal.self_discharge_per_year = 0.0;
  EXPECT_TRUE(std::isinf(ideal.lifetime_seconds(Watts{0.0})));
  EXPECT_GT(ideal.lifetime_seconds(Watts{0.0}), 0.0);  // +inf, not -inf

  const BatteryModel real = BatteryModel::cr2032();
  const Watts harvesting{-2.0 * real.self_discharge_power().value};
  EXPECT_TRUE(std::isinf(real.lifetime_seconds(harvesting)));
  // Zero load with real self-discharge stays finite (the cell still dies).
  EXPECT_TRUE(std::isfinite(real.lifetime_seconds(Watts{0.0})));
}

}  // namespace
}  // namespace wile::power
