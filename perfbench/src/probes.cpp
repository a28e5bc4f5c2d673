#include "probes.hpp"

#include <cmath>
#include <vector>

#include "digest.hpp"
#include "phy/airtime.hpp"
#include "phy/wur_phy.hpp"
#include "sim/medium.hpp"
#include "sim/scheduler.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace wile;

namespace {

class TimerProbe {
 public:
  static constexpr int kDevices = 40'000;
  static constexpr Duration kPeriod = seconds(60);
  static constexpr int kShortTimers = 15;

  explicit TimerProbe(std::uint64_t seed) : rng_(seed) {}

  double run() {
    const std::int64_t period_us = kPeriod.count();
    for (int d = 0; d < kDevices; ++d) {
      const auto at = TimePoint{usec(static_cast<std::int64_t>(rng_.below(
          static_cast<std::uint64_t>(period_us))))};
      sched_.schedule_at(at, [this] { wake(); });
    }
    const TimePoint end{kPeriod * 5};  // ~3.2M events
    const std::int64_t t0 = now_ns();
    for (TimePoint t = sched_.now(); t < end;) {
      t = t + seconds(1);
      sched_.run_until(t);
    }
    const std::int64_t wall = now_ns() - t0;
    return static_cast<double>(wall) / static_cast<double>(sched_.events_run());
  }

 private:
  void wake() {
    const auto jitter = usec(static_cast<std::int64_t>(rng_.below(500'000)));
    sched_.schedule_in(kPeriod - usec(250'000) + jitter, [this] { wake(); });
    const sim::EventId backoff = sched_.schedule_in(usec(300), [] {});
    sched_.cancel(backoff);
    chain(kShortTimers);
  }
  void chain(int left) {
    if (left == 0) return;
    const auto gap = usec(50 + static_cast<std::int64_t>(rng_.below(2000)));
    sched_.schedule_in(gap, [this, left] { chain(left - 1); });
  }

  Rng rng_;
  sim::Scheduler sched_;
};

struct ProbeClient final : sim::MediumClient {
  bool listening = false;
  std::uint64_t frames = 0;
  void on_frame(const sim::RxFrame&) override { ++frames; }
  [[nodiscard]] bool rx_enabled() const override { return listening; }
};

struct Grid {
  sim::Scheduler sched;
  sim::Medium medium;
  std::vector<ProbeClient> clients;
  std::vector<sim::NodeId> ids;
  double extent = 0.0;

  Grid(int n, double spacing, std::uint64_t seed)
      : medium(sched, phy::Channel{}, Rng{seed}), clients(static_cast<std::size_t>(n)) {
    const int side = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n))));
    extent = side * spacing;
    for (int i = 0; i < n; ++i) {
      ids.push_back(medium.attach(&clients[static_cast<std::size_t>(i)],
                                  {(i % side) * spacing, (i / side) * spacing}));
    }
  }
};

double medium_probe_ns_per_tx_sleepy(std::uint64_t seed) {
  constexpr int kDevices = 40'000;
  constexpr int kGateways = 16;
  constexpr int kTransmissions = 20'000;
  Grid grid{kDevices, 5.0, mix_seed(seed, 11)};
  std::vector<ProbeClient> gateways(kGateways);
  for (int k = 0; k < kGateways; ++k) {
    const double c = (k + 0.5) * grid.extent / kGateways;  // ScenarioBuilder's diagonal slots
    gateways[static_cast<std::size_t>(k)].listening = true;
    grid.medium.attach(&gateways[static_cast<std::size_t>(k)], {c, c});
  }
  Rng rng{mix_seed(seed, 12)};
  const Duration airtime = phy::frame_airtime(100, phy::WifiRate::Mcs7Sgi);
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kTransmissions; ++i) {
    sim::TxRequest req;
    req.mpdu = Bytes(100, 0xA5);
    req.airtime = airtime;
    req.rate = phy::WifiRate::Mcs7Sgi;
    grid.medium.transmit(grid.ids[rng.below(kDevices)], std::move(req));
    grid.sched.run_until(grid.sched.now() + airtime + usec(50));
  }
  return static_cast<double>(now_ns() - t0) / kTransmissions;
}

double medium_probe_ns_per_delivery_listen(std::uint64_t seed) {
  constexpr int kDevices = 4'000;
  constexpr int kWakes = 2'000;
  Grid grid{kDevices, 5.0, mix_seed(seed, 13)};
  for (ProbeClient& c : grid.clients) c.listening = true;
  ProbeClient ap;
  const sim::NodeId ap_id = grid.medium.attach(&ap, {grid.extent / 2, grid.extent / 2});
  const Duration airtime = phy::WurPhy::frame_airtime(phy::WurRate::kHigh);
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kWakes; ++i) {
    sim::TxRequest req;
    req.mpdu = Bytes(6, 0xBA);
    req.airtime = airtime;
    req.tx_power_dbm = 20.0;
    grid.medium.transmit(ap_id, std::move(req));
    grid.sched.run_until(grid.sched.now() + airtime + usec(50));
  }
  const std::int64_t wall = now_ns() - t0;
  const auto deliveries = grid.medium.stats().deliveries;
  return deliveries > 0 ? static_cast<double>(wall) / static_cast<double>(deliveries) : 0.0;
}

}  // namespace

void run_probes(Layers& l, const std::string& workload, std::uint64_t seed) {
  if (workload == "fleet_sleepy") {
    l.scheduler_probe_ns_per_event = TimerProbe{mix_seed(seed, 10)}.run();
    l.medium_probe_ns_per_tx_sleepy = medium_probe_ns_per_tx_sleepy(seed);
  } else if (workload == "fleet_wur_listen") {
    l.medium_probe_ns_per_delivery_listen = medium_probe_ns_per_delivery_listen(seed);
  }
}

}  // namespace perfbench
