#include "wile/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace wile::sim {

namespace {

std::string node_prefix(std::size_t id, const char* component) {
  return "node." + std::to_string(id) + "." + component;
}

}  // namespace

ScenarioBuilder& ScenarioBuilder::payload(Bytes fixed) {
  make_provider_ = [fixed = std::move(fixed)](int) -> core::Sender::PayloadProvider {
    return [fixed] { return fixed; };
  };
  return *this;
}

std::unique_ptr<Scenario> ScenarioBuilder::build() const {
  if (n_devices_ < 0) throw std::invalid_argument("ScenarioBuilder: devices < 0");
  if (mode_ == TxMode::Wur && wur_opts_.group_id == 0 &&
      n_devices_ > static_cast<int>(phy::WurPhy::kMaxId)) {
    // Unicast WUR IDs are 12-bit; a bigger fleet would alias wake frames.
    throw std::invalid_argument(
        "ScenarioBuilder: unicast WUR round-robin supports at most 4095 "
        "devices (12-bit ID space); use a group_id for larger fleets");
  }
  if (threads_ > 0) {
    // These subsystems hold a reference to THE scheduler/medium and run
    // unsynchronized callbacks; the sharded engine has neither a single
    // core nor a single thread. Reject at build time, loudly.
    if (trace_ || sample_period_ || configure_faults_ || !rules_.empty()) {
      throw std::invalid_argument(
          "ScenarioBuilder: trace/sample_every/configure_faults/rules require "
          "the serial engine (threads(0))");
    }
    if (shards_ == 0) throw std::invalid_argument("ScenarioBuilder: shards == 0");
  }
  // Scenario's constructor is private; go through new directly.
  return std::unique_ptr<Scenario>(new Scenario(*this));
}

Scenario::Scenario(const ScenarioBuilder& b)
    : medium_{scheduler_, phy::Channel{b.channel_}, Rng{b.medium_seed_}},
      telemetry_enabled_(b.telemetry_),
      // Derived, not equal to any seed the medium/devices use: the fault
      // injector's rng must not alias theirs.
      fault_seed_(b.master_seed_ ^ 0x0FA1'7000),
      mode_(b.mode_),
      user_on_message_(b.on_message_),
      user_on_adv_(b.on_adv_) {
  if (b.threads_ > 0) {
    build_parallel(b);
    return;
  }
  if (b.loss_floor_) medium_.set_loss_floor(*b.loss_floor_);
  tracer_.set_max_events(b.trace_max_events_);
  tracer_.set_enabled(b.trace_);
  if (!b.rules_.empty()) {
    rules_engine_ = std::make_unique<rules::Engine>(b.rules_);
    if (b.rules_extractor_) rules_engine_->set_value_extractor(*b.rules_extractor_);
    if (b.rules_poll_period_) schedule_rules_poll(*b.rules_poll_period_);
  }
  if (mode_ == TxMode::Ble) {
    // A BLE fleet shares the environment ritual (grid, stagger, gateway
    // slots, telemetry names) but none of the Wi-LE node types.
    build_ble(b);
    return;
  }

  // --- devices: exact scale_fleet wiring order -------------------------------
  // Master fork per device and the staggered-start schedule_at are
  // interleaved inside one loop, in this order, because that is the
  // historical construction sequence the determinism oracle pinned.
  const int n = b.n_devices_;
  const int side =
      n > 0 ? static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n)))) : 1;
  const double extent = side * b.spacing_m_;
  const auto period_us =
      static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                     b.period_)
                                     .count());

  Rng master{b.master_seed_};
  senders_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    core::SenderConfig cfg;
    cfg.device_id = static_cast<std::uint32_t>(i + 1);
    cfg.period = b.period_;
    cfg.wake_jitter = b.wake_jitter_;
    cfg.timeline_max_segments = b.timeline_max_segments_;
    if (b.harvesting_) cfg.harvesting = b.harvesting_;
    if (mode_ == TxMode::Wur) {
      // Mode-preset default; configure_sender below can still override
      // any of it per device (e.g. a custom receiver model).
      core::WurCompanionConfig wur;
      wur.group_id = b.wur_opts_.group_id;
      wur.receiver = b.wur_opts_.receiver;
      cfg.wur = wur;
    }
    if (b.configure_sender_) b.configure_sender_(cfg, i);

    const Position pos = b.place_device_
                             ? b.place_device_(i)
                             : Position{(i % side) * b.spacing_m_,
                                        (i / side) * b.spacing_m_};
    // The fork happens whether or not device_rng overrides it, so
    // toggling the override never shifts the master sequence for later
    // consumers.
    Rng forked = master.fork();
    Rng rng = b.device_rng_ ? b.device_rng_(i) : std::move(forked);
    senders_.push_back(std::make_unique<core::Sender>(scheduler_, medium_, pos,
                                                      cfg, std::move(rng)));
    core::Sender* s = senders_.back().get();
    if (b.trace_) s->set_tracer(&tracer_);

    if (!b.auto_start_) continue;
    core::Sender::PayloadProvider provider =
        b.make_provider_ ? b.make_provider_(i)
                         : [] { return Bytes(16, 0xA5); };
    core::Sender::SendCallback per_cycle;
    if (b.on_send_report_) {
      per_cycle = [fn = b.on_send_report_, i](const core::SendReport& r) {
        fn(i, r);
      };
    }
    if (cfg.wur) {
      // The AP owns the cadence: arm the companion receiver instead of
      // scheduling a local duty-cycle timer (no stagger — the device
      // transmits only when woken).
      s->arm_wur(std::move(provider), std::move(per_cycle));
    } else if (b.stagger_) {
      // Stagger duty-cycle starts uniformly across one period so the
      // fleet doesn't wake in a single thundering herd at t=0.
      const auto start_us = static_cast<std::int64_t>(
          (static_cast<std::uint64_t>(i) * period_us) /
          static_cast<std::uint64_t>(n));
      scheduler_.schedule_at(
          TimePoint{usec(start_us)},
          [s, provider = std::move(provider), per_cycle = std::move(per_cycle)] {
            s->start_duty_cycle(std::move(provider), std::move(per_cycle));
          });
    } else {
      s->start_duty_cycle(std::move(provider), std::move(per_cycle));
    }
  }

  // --- gateways --------------------------------------------------------------
  // Environment-only scenarios (devices(0)) get no implicit gateway;
  // any fleet gets at least one.
  const int n_gw = b.n_gateways_
                       ? *b.n_gateways_
                       : (n > 0 ? std::max(1, n / std::max(1, b.gateway_every_)) : 0);
  receivers_.reserve(static_cast<std::size_t>(n_gw));
  for (int k = 0; k < n_gw; ++k) {
    core::ReceiverConfig cfg;
    if (b.configure_gateway_) b.configure_gateway_(cfg, k);
    const double c = (k + 0.5) * extent / n_gw;  // along the diagonal
    const Position pos = b.place_gateway_ ? b.place_gateway_(k) : Position{c, c};
    receivers_.push_back(
        std::make_unique<core::Receiver>(scheduler_, medium_, pos, cfg));
    receivers_.back()->set_message_callback(
        [this](const core::Message& msg, const core::RxMeta& meta) {
          ++messages_;
          if (rules_engine_) rules_engine_->on_message(msg, meta.rssi_dbm, meta.received_at);
          if (user_on_message_) user_on_message_(msg, meta);
        });
  }

  // --- WUR access point ------------------------------------------------------
  // Built after the fleet so round-robin can collect the derived WUR
  // IDs in device order. Transmit-only (rx_enabled false), so attaching
  // it never adds medium RNG draws for frames it merely overhears.
  if (mode_ == TxMode::Wur && n > 0) {
    const Position ap_pos = b.wur_opts_.ap_position
                                ? *b.wur_opts_.ap_position
                                : Position{extent / 2.0, extent / 2.0};
    // Derived seed: the AP's CSMA backoff stream must alias neither the
    // device forks nor the medium stream.
    wur_ap_ = std::make_unique<ap::WurScheduler>(scheduler_, medium_, ap_pos,
                                                 Rng{b.master_seed_ ^ 0x11BA'0000},
                                                 b.wur_opts_.scheduler);
    if (b.auto_start_) {
      const Duration cadence =
          b.wur_opts_.cadence.count() > 0 ? b.wur_opts_.cadence : b.period_;
      if (b.wur_opts_.group_id != 0) {
        wur_ap_->start_group_cadence(b.wur_opts_.group_id, cadence);
      } else {
        std::vector<std::uint16_t> ids;
        ids.reserve(senders_.size());
        for (auto& s : senders_) ids.push_back(s->wur_id());
        wur_ap_->start_round_robin(std::move(ids), cadence);
      }
    }
  }

  // --- fault schedule --------------------------------------------------------
  // Runs after every device exists (so the injector already holds the
  // fleet's energy targets) and before telemetry, matching the hand
  // wiring order the bit-identity tests pin.
  if (b.configure_faults_) b.configure_faults_(faults());

  // --- telemetry bindings ----------------------------------------------------
  // Everything above ran without touching the registry, so a disabled
  // scenario is byte-identical to a pre-telemetry build: zero registry
  // entries, zero extra events, zero extra RNG draws.
  if (!telemetry_enabled_) return;

  registry_.bind_counter_fn("scheduler.events_run",
                            [this] { return scheduler_.events_run(); });
  registry_.bind_gauge_fn("scheduler.pending_events", [this] {
    return static_cast<double>(scheduler_.pending_events());
  });
  registry_.bind_gauge_fn("sim.time_us", [this] {
    return static_cast<double>(scheduler_.now().since_epoch().count());
  });
  medium_.publish_metrics(registry_);
  registry_.bind_counter_fn("fleet.messages", [this] { return messages_; });
  registry_.bind_gauge_fn("fleet.devices",
                          [this] { return static_cast<double>(senders_.size()); });
  registry_.bind_gauge_fn("fleet.gateways", [this] {
    return static_cast<double>(receivers_.size());
  });
  if (wur_ap_) {
    registry_.bind_counter_fn("wur.ap.wakes_sent",
                              [this] { return wur_ap_->wakes_sent(); });
    registry_.bind_gauge_fn("wur.ap.tx_airtime_us", [this] {
      return static_cast<double>(wur_ap_->tx_airtime_total().count());
    });
  }
  if (rules_engine_) rules_engine_->publish_metrics(registry_, "rules");

  if (b.per_node_) publish_node_metrics();

  if (b.sample_period_) {
    sampler_ = std::make_unique<telemetry::PeriodicSampler<Scheduler>>(
        scheduler_, registry_, *b.sample_period_);
    sampler_->start();
  }
}

// Sharded build path. Deliberately mirrors the serial loop line for
// line — same SenderConfig defaults, same master.fork() per device in
// index order, same staggered start times — so the only difference is
// WHICH event core each node attaches to. Shard assignment is a pure
// function of position and shard count, never of thread count, which
// is what makes digests comparable across threads={1,2,4}.
void Scenario::build_parallel(const ScenarioBuilder& b) {
  if (mode_ == TxMode::Ble) {
    build_ble_parallel(b);
    return;
  }
  const int n = b.n_devices_;
  const std::size_t n_shards = b.shards_;
  const int side =
      n > 0 ? static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n)))) : 1;
  const double extent = std::max(side * b.spacing_m_, 1.0);
  const auto period_us =
      static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                     b.period_)
                                     .count());

  // Per-shard event cores. The medium RNG master forks once per shard
  // in shard order: every shard draws an independent loss/PER stream,
  // and the set of streams depends only on the shard count.
  Rng medium_master{b.medium_seed_};
  shard_runtimes_.reserve(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) {
    ShardRuntime rt;
    rt.scheduler = std::make_unique<Scheduler>();
    rt.medium = std::make_unique<Medium>(*rt.scheduler, phy::Channel{b.channel_},
                                         medium_master.fork());
    if (b.loss_floor_) rt.medium->set_loss_floor(*b.loss_floor_);
    shard_runtimes_.push_back(std::move(rt));
  }

  // Stripe partition for node assignment; the engine below builds its
  // router over the same [0, extent) so spans and assignment agree.
  ShardRouter partition{n_shards, 0.0, extent};

  Rng master{b.master_seed_};
  senders_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    core::SenderConfig cfg;
    cfg.device_id = static_cast<std::uint32_t>(i + 1);
    cfg.period = b.period_;
    cfg.wake_jitter = b.wake_jitter_;
    cfg.timeline_max_segments = b.timeline_max_segments_;
    if (b.harvesting_) cfg.harvesting = b.harvesting_;
    if (mode_ == TxMode::Wur) {
      core::WurCompanionConfig wur;
      wur.group_id = b.wur_opts_.group_id;
      wur.receiver = b.wur_opts_.receiver;
      cfg.wur = wur;
    }
    if (b.configure_sender_) b.configure_sender_(cfg, i);

    const Position pos = b.place_device_
                             ? b.place_device_(i)
                             : Position{(i % side) * b.spacing_m_,
                                        (i / side) * b.spacing_m_};
    Rng forked = master.fork();
    Rng rng = b.device_rng_ ? b.device_rng_(i) : std::move(forked);
    ShardRuntime& rt = shard_runtimes_[partition.shard_of(pos.x_m)];
    senders_.push_back(std::make_unique<core::Sender>(*rt.scheduler, *rt.medium,
                                                      pos, cfg, std::move(rng)));
    core::Sender* s = senders_.back().get();

    if (!b.auto_start_) continue;
    core::Sender::PayloadProvider provider =
        b.make_provider_ ? b.make_provider_(i)
                         : [] { return Bytes(16, 0xA5); };
    core::Sender::SendCallback per_cycle;
    if (b.on_send_report_) {
      per_cycle = [fn = b.on_send_report_, i](const core::SendReport& r) {
        fn(i, r);
      };
    }
    if (cfg.wur) {
      s->arm_wur(std::move(provider), std::move(per_cycle));
    } else if (b.stagger_) {
      const auto start_us = static_cast<std::int64_t>(
          (static_cast<std::uint64_t>(i) * period_us) /
          static_cast<std::uint64_t>(n));
      rt.scheduler->schedule_at(
          TimePoint{usec(start_us)},
          [s, provider = std::move(provider), per_cycle = std::move(per_cycle)] {
            s->start_duty_cycle(std::move(provider), std::move(per_cycle));
          });
    } else {
      s->start_duty_cycle(std::move(provider), std::move(per_cycle));
    }
  }

  const int n_gw = b.n_gateways_
                       ? *b.n_gateways_
                       : (n > 0 ? std::max(1, n / std::max(1, b.gateway_every_)) : 0);
  receivers_.reserve(static_cast<std::size_t>(n_gw));
  for (int k = 0; k < n_gw; ++k) {
    core::ReceiverConfig cfg;
    if (b.configure_gateway_) b.configure_gateway_(cfg, k);
    const double c = (k + 0.5) * extent / n_gw;  // along the diagonal
    const Position pos = b.place_gateway_ ? b.place_gateway_(k) : Position{c, c};
    ShardRuntime& rt = shard_runtimes_[partition.shard_of(pos.x_m)];
    receivers_.push_back(
        std::make_unique<core::Receiver>(*rt.scheduler, *rt.medium, pos, cfg));
    // Count into the owning shard's tally: the callback runs on that
    // shard's worker thread, and per-shard counters need no atomics.
    receivers_.back()->set_message_callback(
        [this, counter = &rt.messages](const core::Message& msg,
                                       const core::RxMeta& meta) {
          ++*counter;
          if (user_on_message_) user_on_message_(msg, meta);
        });
  }

  // WUR AP: attaches to the shard its position falls in; wake frames to
  // devices on other shards ride the engine's boundary-transmission
  // phantoms like any other cross-shard traffic.
  if (mode_ == TxMode::Wur && n > 0) {
    const Position ap_pos = b.wur_opts_.ap_position
                                ? *b.wur_opts_.ap_position
                                : Position{extent / 2.0, extent / 2.0};
    ShardRuntime& rt = shard_runtimes_[partition.shard_of(ap_pos.x_m)];
    wur_ap_ = std::make_unique<ap::WurScheduler>(*rt.scheduler, *rt.medium, ap_pos,
                                                 Rng{b.master_seed_ ^ 0x11BA'0000},
                                                 b.wur_opts_.scheduler);
    if (b.auto_start_) {
      const Duration cadence =
          b.wur_opts_.cadence.count() > 0 ? b.wur_opts_.cadence : b.period_;
      if (b.wur_opts_.group_id != 0) {
        wur_ap_->start_group_cadence(b.wur_opts_.group_id, cadence);
      } else {
        std::vector<std::uint16_t> ids;
        ids.reserve(senders_.size());
        for (auto& s : senders_) ids.push_back(s->wur_id());
        wur_ap_->start_round_robin(std::move(ids), cadence);
      }
    }
  }

  std::vector<ParallelEngine::Shard> shards;
  shards.reserve(n_shards);
  for (auto& rt : shard_runtimes_) {
    shards.push_back(ParallelEngine::Shard{rt.scheduler.get(), rt.medium.get()});
  }
  engine_ = std::make_unique<ParallelEngine>(std::move(shards), 0.0, extent,
                                             b.window_, b.threads_);

  if (!telemetry_enabled_) return;

  // Aggregate bindings keep the serial metric names so every consumer
  // (export schema, dashboards) reads sharded runs unchanged.
  registry_.bind_counter_fn("scheduler.events_run", [this] { return events_run(); });
  registry_.bind_gauge_fn("scheduler.pending_events", [this] {
    std::size_t pending = 0;
    for (const auto& rt : shard_runtimes_) pending += rt.scheduler->pending_events();
    return static_cast<double>(pending);
  });
  registry_.bind_gauge_fn("sim.time_us", [this] {
    return static_cast<double>(now().since_epoch().count());
  });
  registry_.bind_counter_fn("medium.transmissions",
                            [this] { return medium_stats().transmissions; });
  registry_.bind_counter_fn("medium.deliveries",
                            [this] { return medium_stats().deliveries; });
  registry_.bind_counter_fn("medium.collision_losses",
                            [this] { return medium_stats().collision_losses; });
  registry_.bind_counter_fn("medium.channel_losses",
                            [this] { return medium_stats().channel_losses; });
  registry_.bind_counter_fn("medium.nodes", [this] {
    std::uint64_t nodes = 0;
    for (const auto& rt : shard_runtimes_) nodes += rt.medium->node_count();
    return nodes;
  });
  registry_.bind_counter_fn("fleet.messages", [this] { return messages(); });
  registry_.bind_gauge_fn("fleet.devices",
                          [this] { return static_cast<double>(senders_.size()); });
  registry_.bind_gauge_fn("fleet.gateways", [this] {
    return static_cast<double>(receivers_.size());
  });
  if (wur_ap_) {
    registry_.bind_counter_fn("wur.ap.wakes_sent",
                              [this] { return wur_ap_->wakes_sent(); });
    registry_.bind_gauge_fn("wur.ap.tx_airtime_us", [this] {
      return static_cast<double>(wur_ap_->tx_airtime_total().count());
    });
  }

  registry_.bind_gauge_fn("parallel.threads", [this] {
    return static_cast<double>(engine_->threads());
  });
  registry_.bind_gauge_fn("parallel.shards", [this] {
    return static_cast<double>(shard_runtimes_.size());
  });
  registry_.bind_gauge_fn("parallel.window_us", [this] {
    return static_cast<double>(engine_->window().count());
  });
  for (std::size_t s = 0; s < n_shards; ++s) {
    const std::string prefix = "parallel.shard" + std::to_string(s);
    registry_.bind_counter_fn(prefix + ".windows",
                              [this, s] { return engine_->shard_stats()[s].windows; });
    registry_.bind_counter_fn(prefix + ".barrier_stalls", [this, s] {
      return engine_->shard_stats()[s].barrier_stalls;
    });
    registry_.bind_counter_fn(prefix + ".boundary_tx_in", [this, s] {
      return engine_->shard_stats()[s].boundary_tx_in;
    });
    registry_.bind_counter_fn(prefix + ".boundary_tx_out", [this, s] {
      return engine_->shard_stats()[s].boundary_tx_out;
    });
  }

  if (b.per_node_) publish_node_metrics();
}

// Per-node names use the node id the serial build assigns: devices
// attach first, in index order, then gateways. A shard's Medium numbers
// its own nodes from 0, so the sharded build must not use node_id().
void Scenario::publish_node_metrics() {
  for (std::size_t i = 0; i < senders_.size(); ++i) {
    senders_[i]->publish_metrics(registry_, node_prefix(i, "sender"));
  }
  for (std::size_t k = 0; k < receivers_.size(); ++k) {
    receivers_[k]->publish_metrics(registry_,
                                   node_prefix(senders_.size() + k, "receiver"));
  }
}

// TxMode::Ble, serial engine. Shares the environment ritual with the
// Wi-LE loop — same grid, same diagonal gateway slots, same staggered
// start times, same master.fork() per device in index order (so device
// i draws the same RNG stream in every mode) — but populates the fleet
// with BleAdvertisers and the gateway slots with BleScanners.
void Scenario::build_ble(const ScenarioBuilder& b) {
  const int n = b.n_devices_;
  const int side =
      n > 0 ? static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n)))) : 1;
  const double extent = side * b.spacing_m_;
  const auto period_us =
      static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                     b.period_)
                                     .count());

  Rng master{b.master_seed_};
  ble_advertisers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ble::BleAdvertiserConfig cfg = b.ble_opts_.advertiser;
    cfg.address = MacAddress::from_seed(0xB1E0'0000u + static_cast<std::uint64_t>(i) + 1);
    cfg.adv_interval = b.period_;
    cfg.adv_delay_max = b.ble_opts_.adv_delay_max;

    const Position pos = b.place_device_
                             ? b.place_device_(i)
                             : Position{(i % side) * b.spacing_m_,
                                        (i / side) * b.spacing_m_};
    Rng rng = master.fork();  // advDelay stream; same fork discipline
    ble_advertisers_.push_back(std::make_unique<ble::BleAdvertiser>(
        scheduler_, medium_, pos, cfg, std::move(rng)));
    ble::BleAdvertiser* a = ble_advertisers_.back().get();

    if (!b.auto_start_) continue;
    ble::BleAdvertiser::PayloadProvider provider =
        b.make_provider_ ? b.make_provider_(i)
                         : [] { return Bytes(16, 0xA5); };
    if (b.stagger_) {
      const auto start_us = static_cast<std::int64_t>(
          (static_cast<std::uint64_t>(i) * period_us) /
          static_cast<std::uint64_t>(n));
      scheduler_.schedule_at(TimePoint{usec(start_us)},
                             [a, provider = std::move(provider)] {
                               a->start(std::move(provider));
                             });
    } else {
      a->start(std::move(provider));
    }
  }

  const int n_gw = b.n_gateways_
                       ? *b.n_gateways_
                       : (n > 0 ? std::max(1, n / std::max(1, b.gateway_every_)) : 0);
  ble_scanners_.reserve(static_cast<std::size_t>(n_gw));
  for (int k = 0; k < n_gw; ++k) {
    const double c = (k + 0.5) * extent / n_gw;  // along the diagonal
    const Position pos = b.place_gateway_ ? b.place_gateway_(k) : Position{c, c};
    ble_scanners_.push_back(
        std::make_unique<ble::BleScanner>(scheduler_, medium_, pos));
    ble_scanners_.back()->set_callback(
        [this, k](const ble::AdvertisingPdu& pdu, double rssi) {
          ++messages_;
          if (user_on_adv_) user_on_adv_(k, pdu, rssi);
        });
  }

  if (!telemetry_enabled_) return;
  registry_.bind_counter_fn("scheduler.events_run",
                            [this] { return scheduler_.events_run(); });
  registry_.bind_gauge_fn("scheduler.pending_events", [this] {
    return static_cast<double>(scheduler_.pending_events());
  });
  registry_.bind_gauge_fn("sim.time_us", [this] {
    return static_cast<double>(scheduler_.now().since_epoch().count());
  });
  medium_.publish_metrics(registry_);
  registry_.bind_counter_fn("fleet.messages", [this] { return messages_; });
  registry_.bind_gauge_fn("fleet.devices", [this] {
    return static_cast<double>(ble_advertisers_.size());
  });
  registry_.bind_gauge_fn("fleet.gateways", [this] {
    return static_cast<double>(ble_scanners_.size());
  });

  if (b.sample_period_) {
    sampler_ = std::make_unique<telemetry::PeriodicSampler<Scheduler>>(
        scheduler_, registry_, *b.sample_period_);
    sampler_->start();
  }
}

// TxMode::Ble on the sharded engine: same shard striping as the Wi-LE
// parallel path (assignment is a pure function of position and shard
// count), with per-shard accepted-PDU tallies.
void Scenario::build_ble_parallel(const ScenarioBuilder& b) {
  const int n = b.n_devices_;
  const std::size_t n_shards = b.shards_;
  const int side =
      n > 0 ? static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n)))) : 1;
  const double extent = std::max(side * b.spacing_m_, 1.0);
  const auto period_us =
      static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                     b.period_)
                                     .count());

  Rng medium_master{b.medium_seed_};
  shard_runtimes_.reserve(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) {
    ShardRuntime rt;
    rt.scheduler = std::make_unique<Scheduler>();
    rt.medium = std::make_unique<Medium>(*rt.scheduler, phy::Channel{b.channel_},
                                         medium_master.fork());
    if (b.loss_floor_) rt.medium->set_loss_floor(*b.loss_floor_);
    shard_runtimes_.push_back(std::move(rt));
  }
  ShardRouter partition{n_shards, 0.0, extent};

  Rng master{b.master_seed_};
  ble_advertisers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ble::BleAdvertiserConfig cfg = b.ble_opts_.advertiser;
    cfg.address = MacAddress::from_seed(0xB1E0'0000u + static_cast<std::uint64_t>(i) + 1);
    cfg.adv_interval = b.period_;
    cfg.adv_delay_max = b.ble_opts_.adv_delay_max;

    const Position pos = b.place_device_
                             ? b.place_device_(i)
                             : Position{(i % side) * b.spacing_m_,
                                        (i / side) * b.spacing_m_};
    Rng rng = master.fork();
    ShardRuntime& rt = shard_runtimes_[partition.shard_of(pos.x_m)];
    ble_advertisers_.push_back(std::make_unique<ble::BleAdvertiser>(
        *rt.scheduler, *rt.medium, pos, cfg, std::move(rng)));
    ble::BleAdvertiser* a = ble_advertisers_.back().get();

    if (!b.auto_start_) continue;
    ble::BleAdvertiser::PayloadProvider provider =
        b.make_provider_ ? b.make_provider_(i)
                         : [] { return Bytes(16, 0xA5); };
    if (b.stagger_) {
      const auto start_us = static_cast<std::int64_t>(
          (static_cast<std::uint64_t>(i) * period_us) /
          static_cast<std::uint64_t>(n));
      rt.scheduler->schedule_at(TimePoint{usec(start_us)},
                                [a, provider = std::move(provider)] {
                                  a->start(std::move(provider));
                                });
    } else {
      a->start(std::move(provider));
    }
  }

  const int n_gw = b.n_gateways_
                       ? *b.n_gateways_
                       : (n > 0 ? std::max(1, n / std::max(1, b.gateway_every_)) : 0);
  ble_scanners_.reserve(static_cast<std::size_t>(n_gw));
  for (int k = 0; k < n_gw; ++k) {
    const double c = (k + 0.5) * extent / n_gw;  // along the diagonal
    const Position pos = b.place_gateway_ ? b.place_gateway_(k) : Position{c, c};
    ShardRuntime& rt = shard_runtimes_[partition.shard_of(pos.x_m)];
    ble_scanners_.push_back(
        std::make_unique<ble::BleScanner>(*rt.scheduler, *rt.medium, pos));
    ble_scanners_.back()->set_callback(
        [this, k, counter = &rt.messages](const ble::AdvertisingPdu& pdu,
                                          double rssi) {
          ++*counter;
          if (user_on_adv_) user_on_adv_(k, pdu, rssi);
        });
  }

  std::vector<ParallelEngine::Shard> shards;
  shards.reserve(n_shards);
  for (auto& rt : shard_runtimes_) {
    shards.push_back(ParallelEngine::Shard{rt.scheduler.get(), rt.medium.get()});
  }
  engine_ = std::make_unique<ParallelEngine>(std::move(shards), 0.0, extent,
                                             b.window_, b.threads_);

  if (!telemetry_enabled_) return;
  registry_.bind_counter_fn("scheduler.events_run", [this] { return events_run(); });
  registry_.bind_gauge_fn("sim.time_us", [this] {
    return static_cast<double>(now().since_epoch().count());
  });
  registry_.bind_counter_fn("medium.transmissions",
                            [this] { return medium_stats().transmissions; });
  registry_.bind_counter_fn("medium.deliveries",
                            [this] { return medium_stats().deliveries; });
  registry_.bind_counter_fn("medium.collision_losses",
                            [this] { return medium_stats().collision_losses; });
  registry_.bind_counter_fn("medium.channel_losses",
                            [this] { return medium_stats().channel_losses; });
  registry_.bind_counter_fn("fleet.messages", [this] { return messages(); });
  registry_.bind_gauge_fn("fleet.devices", [this] {
    return static_cast<double>(ble_advertisers_.size());
  });
  registry_.bind_gauge_fn("fleet.gateways", [this] {
    return static_cast<double>(ble_scanners_.size());
  });
  registry_.bind_gauge_fn("parallel.threads", [this] {
    return static_cast<double>(engine_->threads());
  });
  registry_.bind_gauge_fn("parallel.shards", [this] {
    return static_cast<double>(shard_runtimes_.size());
  });
  registry_.bind_gauge_fn("parallel.window_us", [this] {
    return static_cast<double>(engine_->window().count());
  });
}

Scenario::~Scenario() = default;

void Scenario::require_serial(const char* what) const {
  if (engine_) {
    throw std::logic_error(std::string("Scenario: ") + what +
                           " requires the serial engine (built with threads(0))");
  }
}

Scheduler& Scenario::scheduler() {
  require_serial("scheduler()");
  return scheduler_;
}

Medium& Scenario::medium() {
  require_serial("medium()");
  return medium_;
}

std::uint64_t Scenario::events_run() const {
  if (engine_) return engine_->total_events_run();
  return scheduler_.events_run();
}

Medium::Stats Scenario::medium_stats() const {
  if (engine_) return engine_->total_medium_stats();
  return medium_.stats();
}

TimePoint Scenario::now() const {
  if (engine_) return engine_->now();
  return scheduler_.now();
}

std::uint64_t Scenario::messages() const {
  std::uint64_t total = messages_;
  for (const auto& rt : shard_runtimes_) total += rt.messages;
  return total;
}

void Scenario::run_until(TimePoint deadline) {
  if (engine_) {
    engine_->run_until(deadline);
  } else {
    scheduler_.run_until(deadline);
  }
}

FaultInjector& Scenario::faults() {
  require_serial("faults()");
  if (!faults_) {
    faults_ = std::make_unique<FaultInjector>(scheduler_, medium_, Rng{fault_seed_});
    if (telemetry_enabled_) faults_->publish_metrics(registry_);
    // Every harvesting device is an energy-fault target, in device
    // order, so fleet-wide brown-outs / droughts hit the whole fleet
    // without per-scenario wiring.
    for (auto& s : senders_) {
      if (auto* governor = s->energy_governor()) {
        faults_->attach_energy_target(governor);
      }
    }
  }
  return *faults_;
}

void Scenario::attach_invariants(InvariantMonitor& monitor) {
  require_serial("attach_invariants()");
  // Scheduler: simulated time and the event counter only move forward.
  monitor.add_monotone_counter("scheduler.time_us", [this] {
    return static_cast<std::uint64_t>(scheduler_.now().since_epoch().count());
  });
  monitor.add_monotone_counter("scheduler.events_run",
                               [this] { return scheduler_.events_run(); });

  // Frame-buffer leak accounting: every payload allocation alive must be
  // owned by an in-flight transmission. Sweeps run as scheduler events,
  // so no delivery is mid-flight when this is sampled.
  monitor.add_check("medium.frame_buffer_leak", [this]() -> std::optional<std::string> {
    const std::uint64_t live = FrameBuffer::live_buffers();
    const auto in_flight = static_cast<std::uint64_t>(medium_.active_transmissions());
    if (live > in_flight) {
      return std::to_string(live) + " live frame buffers but only " +
             std::to_string(in_flight) + " in-flight transmissions";
    }
    return std::nullopt;
  });

  // Gateways: reassembler partial tables stay bounded, and no (device,
  // sequence) pair is ever delivered twice by the same gateway. The
  // message callback is re-wired through the monitor; the scenario's
  // aggregate counter and any user callback keep working.
  for (auto& r : receivers_) {
    core::Receiver* gw = r.get();
    monitor.add_bounded_gauge(
        "receiver.partial_table_bound",
        [gw] { return static_cast<double>(gw->reassembler_partials()); }, 0.0,
        static_cast<double>(gw->config().max_partials), gw->node_id());
    gw->set_message_callback(
        [this, &monitor, key = static_cast<std::uint32_t>(gw->node_id())](
            const core::Message& msg, const core::RxMeta& meta) {
          ++messages_;
          monitor.on_delivery(key, msg.device_id, msg.sequence, scheduler_.now());
          if (rules_engine_) rules_engine_->on_message(msg, meta.rssi_dbm, meta.received_at);
          if (user_on_message_) user_on_message_(msg, meta);
        });
  }

  for (auto& s : senders_) {
    const core::Sender* dev = s.get();
    // Sequence numbers never run backwards — a brown-out resume that
    // rewound the counter would replay sequences the gateway has seen.
    monitor.add_monotone_counter(
        "sender.sequence_monotone", [dev] { return std::uint64_t{dev->next_sequence()}; },
        dev->node_id());

    if (const power::EnergyGovernor* gov = dev->energy_governor()) {
      // Energy conservation: stored charge can never exceed what the
      // initial charge plus an unfaded harvest could have supplied, nor
      // leave [0, capacity]. projected_charge is const — the oracle
      // never perturbs settlement, so attaching it cannot change a run.
      const auto& hcfg = gov->harvester().config();
      const double capacity = gov->harvester().capacity().value;
      const double initial = capacity * hcfg.initial_charge_fraction;
      const double harvest_w = hcfg.harvest_power.value;
      const double tol = 1e-9 + 1e-6 * capacity;
      monitor.add_check(
          "sender.energy_conservation",
          [this, gov, capacity, initial, harvest_w, tol]() -> std::optional<std::string> {
            const TimePoint now = scheduler_.now();
            const double q = gov->projected_charge(now).value;
            const double elapsed_s =
                static_cast<double>(now.since_epoch().count()) / 1e6;
            const double upper =
                std::min(capacity, initial + harvest_w * elapsed_s) + tol;
            if (q < -tol) {
              return "stored energy negative: " + std::to_string(q) + " J";
            }
            if (q > upper) {
              return "stored energy " + std::to_string(q) +
                     " J exceeds harvestable bound " + std::to_string(upper) + " J";
            }
            return std::nullopt;
          },
          dev->node_id());
    }
  }
}

ChaosTargets Scenario::chaos_targets() {
  require_serial("chaos_targets()");
  ChaosTargets targets;
  targets.faults = &faults();
  targets.device_nodes.reserve(senders_.size());
  targets.clock_drift.reserve(senders_.size());
  targets.energy.reserve(senders_.size());
  for (auto& s : senders_) {
    targets.device_nodes.push_back(s->node_id());
    targets.clock_drift.push_back(
        [dev = s.get()](double ppm) { dev->apply_clock_drift_ppm(ppm); });
    targets.energy.push_back(s->energy_governor());
  }
  for (auto& r : receivers_) targets.gateway_nodes.push_back(r->node_id());
  if (!receivers_.empty()) {
    targets.jammer_position = medium_.position(receivers_.front()->node_id());
  }
  return targets;
}

const std::vector<telemetry::Snapshot>& Scenario::samples() const {
  static const std::vector<telemetry::Snapshot> kEmpty;
  return sampler_ ? sampler_->samples() : kEmpty;
}

std::string Scenario::export_json(telemetry::ExportMeta meta,
                                  bool include_trace_events) {
  const telemetry::Snapshot snap = snapshot();
  return telemetry::to_json(snap, samples(), meta, &tracer_, include_trace_events);
}

void Scenario::schedule_rules_poll(Duration every) {
  scheduler_.schedule_in(every, [this, every] {
    rules_engine_->poll(scheduler_.now());
    schedule_rules_poll(every);
  });
}

void Scenario::stop_all() {
  for (auto& s : senders_) {
    s->stop_duty_cycle();
    s->disarm_wur();
  }
  for (auto& a : ble_advertisers_) a->stop();
  if (wur_ap_) wur_ap_->stop();
}

}  // namespace wile::sim
