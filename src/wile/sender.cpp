#include "wile/sender.hpp"

#include <algorithm>

#include "dot11/frame.hpp"
#include "dot11/mgmt.hpp"

namespace wile::core {

namespace {
// Phase labels matching the legend of Figure 3b.
constexpr power::PhaseLabel kPhaseSleep = "Sleep";
constexpr power::PhaseLabel kPhaseInit = "MC/WiFi init";
constexpr power::PhaseLabel kPhaseTx = "Tx";
constexpr power::PhaseLabel kPhaseRxWindow = "RxWindow";
constexpr power::PhaseLabel kPhaseBrownOut = "BrownOut";
/// Deep sleep with the 802.11ba companion receiver listening: the main
/// radio is off, the uW overlay is the only draw above deep-sleep.
constexpr power::PhaseLabel kPhaseWurListen = "WurListen";
}  // namespace

Sender::Sender(sim::Scheduler& scheduler, sim::Medium& medium, sim::Position position,
               SenderConfig config, Rng rng)
    : scheduler_(scheduler),
      medium_(medium),
      config_(std::move(config)),
      rng_(rng),
      timeline_(config_.power.supply),
      tracker_(scheduler, timeline_, config_.power.radio_tx, config_.power.tx_ramp),
      codec_(config_.key ? Codec{*config_.key} : Codec{}) {
  if (config_.mac.is_zero()) {
    config_.mac = MacAddress::from_seed(0xB13C000ULL + config_.device_id);
  }
  sequence_ = config_.initial_sequence;
  int longest_group = config_.recovery_k;
  if (config_.adaptation) {
    for (const RedundancyTier& tier : config_.adaptation->tiers) {
      longest_group = std::max(longest_group, tier.recovery_k);
    }
  }
  recovery_history_ = static_cast<std::size_t>(
      std::clamp<int>(longest_group, 0, static_cast<int>(kMaxRecoveryGroup)));
  timeline_.set_max_segments(config_.timeline_max_segments);
  node_id_ = medium_.attach(this, position);
  medium_.set_listening(node_id_, listening_hint());
  sim::CsmaConfig csma_cfg;
  csma_cfg.tx_power_dbm = config_.tx_power_dbm;
  csma_cfg.band = config_.band;
  csma_ = std::make_unique<sim::Csma>(scheduler_, medium_, node_id_, rng_.fork(), csma_cfg);
  csma_->set_tx_listener([this](Duration airtime, phy::WifiRate) {
    tracker_.on_tx_start(airtime);
    trace_end(telemetry::Phase::Csma);  // deferral over, frame on the air
  });

  if (config_.harvesting) {
    governor_ = std::make_unique<power::EnergyGovernor>(scheduler_, timeline_,
                                                        config_.harvesting->harvester);
    governor_->set_brown_out_handler([this] { on_brown_out(); });
    governor_->set_harvest_changed_handler([this] {
      // A lifted fade turns "never" into a finite recharge time, and a
      // fresh fade invalidates a scheduled one — re-derive the resume.
      if (recovering_) schedule_resume();
    });
  }

  // Precompute the constant beacon-body prefix: timestamp placeholder is
  // patched per send; SSID (hidden unless spoofed), rates and channel
  // never change for a device.
  dot11::Beacon prototype;
  prototype.beacon_interval_tu = config_.beacon_interval_tu;
  prototype.capability = dot11::Capability::kEss | dot11::Capability::kShortSlot;
  prototype.ies.add(dot11::make_ssid_ie(config_.spoofed_ssid));  // "" = hidden
  prototype.ies.add(dot11::make_supported_rates_ie(dot11::default_bg_rates()));
  prototype.ies.add(dot11::make_ds_param_ie(6));
  body_prefix_ = prototype.encode();

  if (config_.wur) {
    // Companion receiver: derive the 12-bit WUR ID when unset and hang
    // the always-on listen draw over every future timeline segment.
    if (config_.wur->wur_id == 0) {
      config_.wur->wur_id =
          static_cast<std::uint16_t>(config_.device_id) & phy::WurPhy::kMaxId;
    }
    tracker_.set_overlay(config_.wur->receiver.listen);
    tracker_.set_phase(config_.power.deep_sleep, kPhaseWurListen);
  } else {
    timeline_.set_current(scheduler_.now(), config_.power.deep_sleep, kPhaseSleep);
  }
}

bool Sender::listening_hint() const {
  if (config_.wur && phase_ == Phase::DeepSleep) {
    // The uW companion receiver listens whenever the main radio sleeps —
    // unless a brown-out darkened the whole board.
    return !recovering_;
  }
  return phase_ == Phase::RxWindow;
}

void Sender::set_radio_state(Phase phase, bool recovering) {
  phase_ = phase;
  recovering_ = recovering;
  medium_.set_listening(node_id_, listening_hint());
}

bool Sender::rx_enabled() const {
  return listening_hint() && !medium_.transmitting(node_id_);
}

void Sender::send_now(Bytes data, SendCallback done) {
  if (phase_ != Phase::DeepSleep) {
    throw std::logic_error("wile::Sender: send_now requires deep sleep");
  }
  begin_cycle(std::move(data), std::move(done));
}

void Sender::start_duty_cycle(PayloadProvider provider, SendCallback per_cycle) {
  if (!provider) throw std::invalid_argument("wile::Sender: null payload provider");
  duty_cycling_ = true;
  provider_ = std::move(provider);
  per_cycle_ = std::move(per_cycle);
  schedule_next_cycle();
}

void Sender::stop_duty_cycle() { duty_cycling_ = false; }

void Sender::arm_wur(PayloadProvider provider, SendCallback per_cycle) {
  if (!config_.wur) {
    throw std::logic_error("wile::Sender: arm_wur requires SenderConfig::wur");
  }
  if (!provider) throw std::invalid_argument("wile::Sender: null payload provider");
  wur_armed_ = true;
  provider_ = std::move(provider);
  per_cycle_ = std::move(per_cycle);
}

void Sender::on_wakeup_frame(const phy::WakeUpFrame& wake) {
  const WurCompanionConfig& wur = *config_.wur;
  std::optional<std::uint8_t>& last_seq =
      wake.group_addressed ? last_group_wake_seq_ : last_unicast_wake_seq_;
  const bool addressed_here =
      wake.group_addressed ? (wur.group_id != 0 && wake.address == wur.group_id)
                           : wake.address == wur.wur_id;
  if (!addressed_here || !wur_armed_ || (last_seq && *last_seq == wake.seq)) {
    // Someone else's wake, a disarmed companion, or a reliability repeat
    // of a frame this device already acted on.
    ++wur_frames_ignored_;
    return;
  }
  last_seq = wake.seq;
  if (governor_) {
    // Same wake gate as the periodic duty cycle: a cycle the capacitor
    // cannot fund would brown out mid-flight.
    const Joules need{config_.harvesting->wake_margin * estimated_cycle_cost().value};
    if (!governor_->can_afford(need)) {
      ++cycles_skipped_energy_;
      return;
    }
  }
  ++wur_wakes_total_;
  // Companion decode + wake-interrupt latency, then the normal cycle.
  const std::uint64_t epoch = cycle_epoch_;
  scheduler_.schedule_in(wur.receiver.wake_latency, [this, epoch] {
    if (epoch != cycle_epoch_) return;        // browned out in the gap
    if (phase_ != Phase::DeepSleep) return;   // already mid-cycle
    if (!will_retransmit()) trace_instant(telemetry::Phase::Sample);
    Bytes data = will_retransmit() ? Bytes{} : provider_();
    begin_cycle(std::move(data), [this](const SendReport& report) {
      if (per_cycle_) per_cycle_(report);
    });
  });
}

Duration Sender::jittered_period() {
  double period_us = static_cast<double>(config_.period.count());
  period_us *= 1.0 + config_.clock_ppm_error * 1e-6;
  if (config_.wake_jitter.count() > 0) {
    period_us += static_cast<double>(
        rng_.range(-config_.wake_jitter.count(), config_.wake_jitter.count()));
  }
  return Duration{static_cast<std::int64_t>(period_us)};
}

void Sender::schedule_next_cycle() {
  scheduler_.schedule_in(jittered_period(), [this] {
    if (!duty_cycling_) return;
    // Maintain the wake cadence: the next timer runs from this wake-up,
    // not from cycle completion (the deep-sleep timer on the ESP32 is
    // armed before sleeping, so the period is wake-to-wake).
    schedule_next_cycle();
    if (phase_ != Phase::DeepSleep) return;  // previous cycle still busy
    if (recovering_) return;  // browned out: the resume path owns the restart
    if (governor_) {
      // Wake gate: a cycle the capacitor cannot fund would brown out
      // mid-flight; cheaper to stay asleep and let the charge build.
      const Joules need{config_.harvesting->wake_margin *
                        estimated_cycle_cost().value};
      if (!governor_->can_afford(need)) {
        ++cycles_skipped_energy_;
        return;
      }
    }
    // Reliable mode: don't consume fresh sensor data while a
    // retransmission is pending.
    if (!will_retransmit()) trace_instant(telemetry::Phase::Sample);
    Bytes data = will_retransmit() ? Bytes{} : provider_();
    begin_cycle(std::move(data), [this](const SendReport& report) {
      if (per_cycle_) per_cycle_(report);
    });
  });
}

Bytes Sender::build_beacon_mpdu(const dot11::InfoElement& vendor_ie) {
  // Patch the precomputed prefix: timestamp (first 8 bytes of the body).
  Bytes body = body_prefix_;
  const auto ts = static_cast<std::uint64_t>(scheduler_.now().us());
  for (int i = 0; i < 8; ++i) body[i] = static_cast<std::uint8_t>(ts >> (8 * i));
  // Append the data-bearing vendor element.
  ByteWriter ie_w(2 + vendor_ie.data.size());
  ie_w.u8(static_cast<std::uint8_t>(vendor_ie.id));
  ie_w.u8(static_cast<std::uint8_t>(vendor_ie.data.size()));
  ie_w.bytes(vendor_ie.data);
  const Bytes ie_bytes = ie_w.take();
  body.insert(body.end(), ie_bytes.begin(), ie_bytes.end());

  dot11::MacHeader h;
  h.fc = dot11::FrameControl::mgmt(dot11::MgmtSubtype::Beacon);
  h.addr1 = MacAddress::broadcast();
  h.addr2 = config_.mac;
  h.addr3 = config_.mac;  // the device itself is the (fake) BSSID
  h.set_sequence(seq_ctl_++ & 0x0fff);
  return dot11::assemble_mpdu(h, body);
}

Bytes Sender::build_ssid_stuffed_mpdu(const std::string& stuffed_ssid) {
  dot11::Beacon beacon;
  beacon.timestamp_us = static_cast<std::uint64_t>(scheduler_.now().us());
  beacon.beacon_interval_tu = config_.beacon_interval_tu;
  beacon.capability = dot11::Capability::kEss | dot11::Capability::kShortSlot;
  beacon.ies.add(dot11::make_ssid_ie(stuffed_ssid));  // data in the SSID itself
  beacon.ies.add(dot11::make_supported_rates_ie(dot11::default_bg_rates()));
  beacon.ies.add(dot11::make_ds_param_ie(6));

  dot11::MacHeader h;
  h.fc = dot11::FrameControl::mgmt(dot11::MgmtSubtype::Beacon);
  h.addr1 = MacAddress::broadcast();
  h.addr2 = config_.mac;
  h.addr3 = config_.mac;
  h.set_sequence(seq_ctl_++ & 0x0fff);
  return dot11::assemble_mpdu(h, beacon.encode());
}

RedundancyTier Sender::active_tier() const {
  if (config_.adaptation && !config_.adaptation->tiers.empty()) {
    return config_.adaptation->tiers[std::min(tier_, config_.adaptation->tiers.size() - 1)];
  }
  RedundancyTier tier;
  tier.repeats = config_.repeats;
  tier.fec_parity = config_.fec_parity;
  tier.recovery_k = config_.recovery_k;
  tier.recovery_stride = config_.recovery_stride;
  return tier;
}

std::optional<Message> Sender::maybe_recovery_message(const RedundancyTier& tier) {
  const auto k = static_cast<std::size_t>(
      std::clamp<int>(tier.recovery_k, 0, static_cast<int>(kMaxRecoveryGroup)));
  if (k == 0 || recent_sent_.size() < k) return std::nullopt;
  const int stride = tier.recovery_stride > 0 ? tier.recovery_stride
                                              : std::max<int>(1, static_cast<int>(k) / 2);
  if (msgs_since_recovery_ < stride) return std::nullopt;
  msgs_since_recovery_ = 0;

  RecoveryPayload payload;
  payload.base_sequence = recent_sent_[recent_sent_.size() - k].sequence;
  for (std::size_t i = recent_sent_.size() - k; i < recent_sent_.size(); ++i) {
    const RecentMessage& r = recent_sent_[i];
    payload.entries.push_back(
        {r.type, static_cast<std::uint16_t>(std::min<std::size_t>(r.data.size(), 0xffff))});
    if (r.data.size() > payload.xor_block.size()) payload.xor_block.resize(r.data.size());
  }
  for (std::size_t i = recent_sent_.size() - k; i < recent_sent_.size(); ++i) {
    const Bytes& d = recent_sent_[i].data;
    for (std::size_t b = 0; b < d.size(); ++b) payload.xor_block[b] ^= d[b];
  }

  Message m;
  m.device_id = config_.device_id;
  m.sequence = recovery_sequence_++;
  m.type = MessageType::Recovery;
  m.data = encode_recovery_payload(payload);
  return m;
}

void Sender::begin_cycle(Bytes data, SendCallback done) {
  ++cycles_;
  cycle_done_ = std::move(done);
  wake_time_ = scheduler_.now();
  trace_begin(telemetry::Phase::Cycle);
  trace_begin(telemetry::Phase::Wake);
  cycle_airtime_ = Duration{0};
  cycle_beacons_ = 0;
  cycle_downlinks_ = 0;
  cycle_failed_ = false;
  cycle_acked_ = false;
  cycle_retransmission_ = false;
  cycle_resumed_ = false;
  cycle_parity_beacons_ = 0;
  cycle_parity_airtime_ = Duration{0};

  // No-controller fallback: with ChannelReports silent for long enough,
  // stop waiting for closed-loop guidance and run the configured
  // open-loop schedule.
  if (config_.adaptation && config_.adaptation->fallback_after_cycles > 0 &&
      !fallback_active_ &&
      cycles_since_report_ >=
          static_cast<std::uint64_t>(config_.adaptation->fallback_after_cycles) &&
      !config_.adaptation->tiers.empty()) {
    fallback_active_ = true;
    tier_ = std::min(config_.adaptation->fallback_tier, config_.adaptation->tiers.size() - 1);
  }
  // Stale-report watchdog: a silent controller walks the tier back
  // toward the open-loop fallback one step at a time instead of
  // freezing the sender at the last commanded redundancy level.
  if (config_.adaptation && config_.adaptation->decay_after_cycles > 0 &&
      !config_.adaptation->tiers.empty()) {
    const AdaptationConfig& a = *config_.adaptation;
    const std::size_t target = std::min(a.fallback_tier, a.tiers.size() - 1);
    const auto threshold = static_cast<std::uint64_t>(a.decay_after_cycles);
    const auto every = static_cast<std::uint64_t>(std::max(a.decay_every, 1));
    if (tier_ != target && cycles_since_report_ >= threshold &&
        (cycles_since_report_ - threshold) % every == 0) {
      if (tier_ < target) {
        ++tier_;
      } else {
        --tier_;
      }
      ++tier_decays_;
    }
  }
  ++cycles_since_report_;

  Message message;
  bool fresh = false;
  if (will_retransmit()) {
    // Reliable mode: repeat the unacknowledged message, same sequence.
    message = *unacked_;
    cycle_retransmission_ = true;
  } else {
    if (config_.reliable && unacked_) {
      // Retry budget exhausted: abandon and move on.
      ++dropped_unacked_;
      unacked_.reset();
      unacked_attempts_ = 0;
    }
    message.device_id = config_.device_id;
    message.sequence = sequence_++;
    message.type = MessageType::Telemetry;
    message.data = std::move(data);
    message.rx_window = config_.rx_window;
    fresh = true;
  }
  if (config_.reliable) {
    unacked_ = message;
    ++unacked_attempts_;
  }

  const bool fec_usable = !config_.ssid_stuffing;
  if (fresh && fec_usable) {
    if (recovery_history_ > 0) {
      recent_sent_.push_back({message.sequence, message.type, message.data});
      if (recent_sent_.size() > recovery_history_) recent_sent_.erase(recent_sent_.begin());
    }
    ++msgs_since_recovery_;
  }
  cycle_sequence_ = message.sequence;

  // Intermittent power: checkpoint the cycle into the persistent region
  // before any risky phase. The sequence is already assigned and the FEC
  // accumulator already booked the sample, so a post-brown-out resume
  // replays the identical train instead of minting a duplicate.
  if (governor_) checkpoint_ = Checkpoint{message, scheduler_.now()};

  encode_and_transmit(message, fresh && fec_usable);
}

void Sender::encode_and_transmit(const Message& message, bool include_recovery) {
  const RedundancyTier tier = active_tier();
  std::vector<CycleMpdu> mpdus;
  trace_instant(telemetry::Phase::Encode);
  try {
    std::vector<CycleMpdu> once;
    if (config_.ssid_stuffing) {
      if (auto stuffed = encode_ssid_stuffed(message)) {
        once.push_back({build_ssid_stuffed_mpdu(*stuffed), false});
      } else {
        cycle_failed_ = true;  // message does not fit the SSID field
      }
    } else {
      const auto elements = codec_.encode(message, tier.fec_parity);
      // With parity on, a fragmented message's last element is the
      // parity (encode() only appends one when there are >= 2 data
      // fragments, so a parity train always has >= 3 elements).
      const std::size_t parity_from =
          tier.fec_parity && elements.size() >= 3 ? elements.size() - 1 : elements.size();
      for (std::size_t i = 0; i < elements.size(); ++i) {
        once.push_back({build_beacon_mpdu(elements[i]), i >= parity_from});
      }
    }
    // Open-loop reliability: repeat the whole fragment train. Receivers
    // drop the duplicates by (device, sequence).
    const int repeats = std::max(tier.repeats, 1);
    for (int r = 0; r < repeats; ++r) {
      mpdus.insert(mpdus.end(), once.begin(), once.end());
    }
    // Cross-cycle FEC: one (unrepeated) recovery beacon when due.
    if (include_recovery) {
      if (auto recovery = maybe_recovery_message(tier)) {
        for (const auto& ie : codec_.encode(*recovery)) {
          mpdus.push_back({build_beacon_mpdu(ie), true});
        }
        ++recovery_beacons_sent_;
      }
    }
  } catch (const std::invalid_argument&) {
    cycle_failed_ = true;
  }

  set_radio_state(Phase::Init, recovering_);
  tracker_.set_phase(config_.power.cpu_active, kPhaseInit);
  const Duration init =
      config_.power.boot_from_deep_sleep + config_.power.wifi_inject_init;
  const std::uint64_t epoch = cycle_epoch_;
  scheduler_.schedule_in(init, [this, epoch, mpdus = std::move(mpdus)]() mutable {
    if (epoch != cycle_epoch_) return;  // browned out during init
    trace_end(telemetry::Phase::Wake);
    if (maybe_brown_out()) return;  // the init phase outran the charge
    if (cycle_failed_ || mpdus.empty()) {
      finish_cycle();
      return;
    }
    set_radio_state(Phase::Tx, recovering_);
    tracker_.set_phase(config_.power.cpu_active, kPhaseTx);
    trace_begin(telemetry::Phase::Tx);
    inject_fragments(std::move(mpdus), 0);
  });
}

void Sender::inject_fragments(std::vector<CycleMpdu> mpdus, std::size_t index) {
  // Organic brown-out check at every fragment boundary: a capacitor
  // that ran dry during the previous fragment kills the train here.
  if (maybe_brown_out()) return;
  if (index >= mpdus.size()) {
    trace_end(telemetry::Phase::Tx);
    after_last_beacon();
    return;
  }
  const Bytes& mpdu = mpdus[index].mpdu;
  const Duration airtime = phy::frame_airtime(mpdu.size(), config_.rate, config_.band);
  cycle_airtime_ += airtime;
  ++cycle_beacons_;
  ++beacons_sent_total_;
  tx_airtime_total_ += airtime;
  if (mpdus[index].fec) {
    cycle_parity_airtime_ += airtime;
    ++cycle_parity_beacons_;
    ++parity_beacons_total_;
  }

  const std::uint64_t epoch = cycle_epoch_;
  if (config_.use_csma) {
    trace_begin(telemetry::Phase::Csma);
    csma_->send(mpdu, config_.rate, /*expect_ack=*/false,
                [this, epoch, mpdus = std::move(mpdus),
                 index](const sim::Csma::Result&) mutable {
                  if (epoch != cycle_epoch_) return;  // browned out mid-train
                  inject_fragments(std::move(mpdus), index + 1);
                });
  } else {
    // Raw injection: fire immediately, no carrier sense (E7 ablation).
    sim::TxRequest req;
    req.mpdu = mpdu;
    req.airtime = airtime;
    req.tx_power_dbm = config_.tx_power_dbm;
    req.rate = config_.rate;
    req.on_complete = [this, epoch, mpdus = std::move(mpdus), index]() mutable {
      if (epoch != cycle_epoch_) return;  // browned out mid-train
      inject_fragments(std::move(mpdus), index + 1);
    };
    tracker_.on_tx_start(airtime);
    medium_.transmit(node_id_, std::move(req));
  }
}

void Sender::after_last_beacon() {
  // The train is on the air: the sample has been transmitted, so the
  // checkpoint has nothing left to protect. A brown-out from here on
  // costs only the RX window / report, never the reading.
  checkpoint_.reset();
  if (!config_.rx_window) {
    finish_cycle();
    return;
  }
  // Two-way extension: idle briefly, then listen for the announced
  // window. The radio draws RX current for the whole window — this is
  // the energy cost E8 measures against always-on listening.
  set_radio_state(Phase::Tx, recovering_);  // offset gap: radio on but not yet listening
  tracker_.set_phase(config_.power.cpu_active, kPhaseRxWindow);
  const std::uint64_t epoch = cycle_epoch_;
  scheduler_.schedule_in(config_.rx_window->offset, [this, epoch] {
    if (epoch != cycle_epoch_) return;
    if (maybe_brown_out()) return;
    set_radio_state(Phase::RxWindow, recovering_);
    tracker_.set_phase(config_.power.radio_rx, kPhaseRxWindow);
    trace_begin(telemetry::Phase::RxWindow);
    scheduler_.schedule_in(config_.rx_window->duration, [this, epoch] {
      if (epoch != cycle_epoch_) return;
      trace_end(telemetry::Phase::RxWindow);
      finish_cycle();
    });
  });
}

void Sender::finish_cycle() {
  checkpoint_.reset();  // cycle completed (or failed terminally)
  set_radio_state(Phase::Shutdown, recovering_);
  tracker_.set_phase(config_.power.cpu_active, kPhaseInit);
  const std::uint64_t epoch = cycle_epoch_;
  scheduler_.schedule_in(config_.power.shutdown_time, [this, epoch] {
    if (epoch != cycle_epoch_) return;  // browned out during shutdown
    set_radio_state(Phase::DeepSleep, recovering_);
    tracker_.set_phase(config_.power.deep_sleep,
                       config_.wur ? kPhaseWurListen : kPhaseSleep);
    // A capacitor that ran dry during shutdown browns out here; the
    // cycle's work is done, so only the recharge wait is at stake.
    maybe_brown_out();

    SendReport report;
    report.success = !cycle_failed_ && cycle_beacons_ > 0;
    report.sequence = cycle_sequence_;
    report.resumed = cycle_resumed_;
    report.beacons_sent = cycle_beacons_;
    report.tx_airtime = cycle_airtime_;
    const Duration tx_time =
        cycle_airtime_ + Duration{config_.power.tx_ramp.count() * cycle_beacons_};
    report.tx_only_energy = tx_power_draw() * tx_time;
    report.parity_beacons = cycle_parity_beacons_;
    report.parity_airtime = cycle_parity_airtime_;
    report.parity_tx_energy =
        tx_power_draw() * (cycle_parity_airtime_ +
                           Duration{config_.power.tx_ramp.count() * cycle_parity_beacons_});
    report.tier = tier_;
    report.active_time = scheduler_.now() - wake_time_;
    report.cycle_energy = timeline_.energy_between(wake_time_, scheduler_.now());
    report.downlinks_received = cycle_downlinks_;
    report.acked = cycle_acked_;
    report.retransmission = cycle_retransmission_;
    if (!report.success) ++cycles_failed_total_;
    if (cycle_active_hist_ != nullptr) {
      cycle_active_hist_->record(static_cast<std::uint64_t>(report.active_time.count()));
    }
    trace_instant(telemetry::Phase::Sleep);
    trace_end(telemetry::Phase::Cycle);
    if (cycle_done_) {
      auto cb = std::move(cycle_done_);
      cycle_done_ = {};
      cb(report);
    }
  });
}

// ---------------------------------------------------------------------------
// Intermittent power: gating, checkpointing, brown-out recovery.
// ---------------------------------------------------------------------------

Joules Sender::estimated_cycle_cost() const {
  const auto& p = config_.power;
  const RedundancyTier tier = active_tier();
  // Nominal cost of one cycle at the active tier: init + a
  // single-fragment train (typical beacon size) + RX window + shutdown.
  // The HarvestingConfig margins absorb what this cannot see (CSMA
  // deferral, fragmentation, recovery beacons).
  constexpr std::size_t kNominalMpduBytes = 128;
  const Duration airtime =
      phy::frame_airtime(kNominalMpduBytes, config_.rate, config_.band);
  const int beacons =
      std::max(tier.repeats, 1) + ((tier.fec_parity || tier.recovery_k > 0) ? 1 : 0);
  const Watts cpu = p.supply * p.cpu_active;
  Joules cost = cpu * (p.boot_from_deep_sleep + p.wifi_inject_init + p.shutdown_time);
  cost += tx_power_draw() * Duration{(airtime.count() + p.tx_ramp.count()) * beacons};
  if (config_.rx_window) {
    cost += cpu * config_.rx_window->offset;
    cost += (p.supply * p.radio_rx) * config_.rx_window->duration;
  }
  return cost;
}

bool Sender::maybe_brown_out() { return governor_ && governor_->check_brown_out(); }

void Sender::on_brown_out() {
  ++brown_outs_total_;
  trace_instant(telemetry::Phase::BrownOut);
  if (phase_ != Phase::DeepSleep) {
    // Kill the in-flight cycle: strand its scheduled continuations via
    // the epoch, flush the CSMA queue, power down. The checkpoint
    // written in begin_cycle survives in the persistent region.
    ++cycle_epoch_;
    csma_->drop_queued();
  }
  set_radio_state(Phase::DeepSleep, /*recovering=*/true);
  brown_out_at_ = scheduler_.now();
  // Dark: not even sleep current, and the WUR companion receiver dies
  // with the rest of the board (its overlay must not keep integrating).
  if (config_.wur) tracker_.set_overlay(Amps{0.0});
  tracker_.set_phase(Amps{0.0}, kPhaseBrownOut);
  schedule_resume();
}

Joules Sender::resume_target() const {
  // Clamped to capacity: a small capacitor must still be able to resume
  // even when the margin asks for more than it can ever hold.
  const double want = config_.harvesting->resume_margin * estimated_cycle_cost().value;
  return Joules{std::min(want, governor_->harvester().capacity().value)};
}

void Sender::schedule_resume() {
  if (resume_event_) {
    scheduler_.cancel(*resume_event_);
    resume_event_.reset();
  }
  if (!recovering_) return;
  const Duration wait = governor_->time_until(resume_target());
  // During a drought the harvest can never reach the target; the
  // harvest-changed handler re-derives this when the fade lifts.
  if (wait == Duration::max()) return;
  resume_event_ = scheduler_.schedule_in(std::max<Duration>(wait, usec(1)), [this] {
    resume_event_.reset();
    resume_cycle();
  });
}

void Sender::resume_cycle() {
  // A fade may have raced the recharge timer; re-derive if still short.
  if (governor_->charge() < resume_target()) {
    schedule_resume();
    return;
  }
  set_radio_state(phase_, /*recovering=*/false);
  if (config_.wur) tracker_.set_overlay(config_.wur->receiver.listen);
  tracker_.set_phase(config_.power.deep_sleep,
                     config_.wur ? kPhaseWurListen : kPhaseSleep);
  trace_instant(telemetry::Phase::Recharge);
  if (recharge_hist_ != nullptr) {
    recharge_hist_->record(
        static_cast<std::uint64_t>((scheduler_.now() - brown_out_at_).count()));
  }
  if (!checkpoint_) return;  // browned out while asleep: nothing to replay

  Checkpoint cp = std::move(*checkpoint_);
  checkpoint_.reset();
  const Duration age = scheduler_.now() - cp.sampled_at;
  const Duration bound = config_.harvesting->max_checkpoint_age;
  if (bound.count() > 0 && age > bound) {
    // Bounded staleness: the reading no longer describes the world.
    // Drop it (the sequence stays consumed — receivers see a gap, which
    // is the honest signal) instead of retransmitting it forever.
    ++cycles_aborted_stale_;
    if (cycle_done_) {
      SendReport report;
      report.sequence = cp.message.sequence;
      auto cb = std::move(cycle_done_);
      cycle_done_ = {};
      cb(report);
    }
    return;
  }

  // Resume the interrupted cycle from the persistent region: identical
  // message, identical already-assigned sequence — receivers dedupe any
  // fragments that made it out before the lights went off. The FEC
  // accumulator already booked this sample, so no new recovery beacon.
  ++cycles_resumed_;
  wake_time_ = scheduler_.now();
  trace_begin(telemetry::Phase::Cycle);
  trace_begin(telemetry::Phase::Wake);
  cycle_airtime_ = Duration{0};
  cycle_beacons_ = 0;
  cycle_downlinks_ = 0;
  cycle_failed_ = false;
  cycle_acked_ = false;
  cycle_retransmission_ = false;
  cycle_resumed_ = true;
  cycle_parity_beacons_ = 0;
  cycle_parity_airtime_ = Duration{0};
  cycle_sequence_ = cp.message.sequence;
  checkpoint_ = Checkpoint{cp.message, cp.sampled_at};  // survive repeated brown-outs
  encode_and_transmit(cp.message, /*include_recovery=*/false);
}

void Sender::on_frame(const sim::RxFrame& frame) {
  if (config_.wur && phase_ == Phase::DeepSleep) {
    // Only the companion receiver is powered: the sole thing it can
    // decode is a 6-byte OOK wake-up frame. Everything else on the air
    // is energy the envelope detector discards.
    if (auto wake = phy::decode_wakeup_frame(frame.mpdu.view())) {
      on_wakeup_frame(*wake);
    }
    return;
  }
  if (phase_ != Phase::RxWindow) return;
  auto parsed = dot11::parse_mpdu(frame.mpdu);
  if (!parsed || !parsed->fcs_ok) return;
  if (!parsed->header.fc.is_mgmt(dot11::MgmtSubtype::Beacon)) return;
  auto beacon = dot11::Beacon::decode(parsed->body);
  if (!beacon) return;
  for (const Fragment& f : codec_.decode_all(beacon->ies)) {
    if (f.device_id != config_.device_id) continue;
    if (f.type == MessageType::ChannelReport) {
      if (auto report = decode_channel_report(f.data)) on_channel_report(*report);
      continue;
    }
    if (f.type == MessageType::Ack) {
      // Reliable mode: match the acknowledged sequence number.
      if (config_.reliable && unacked_ && f.data.size() == 4) {
        ByteReader r{f.data};
        if (r.u32le() == unacked_->sequence) {
          cycle_acked_ = true;
          unacked_.reset();
          unacked_attempts_ = 0;
        }
      }
      continue;
    }
    if (f.type != MessageType::Downlink) continue;
    Message m;
    m.device_id = f.device_id;
    m.sequence = f.sequence;
    m.type = f.type;
    m.data = f.data;
    ++cycle_downlinks_;
    ++downlinks_total_;
    if (downlink_cb_) downlink_cb_(m);
  }
}

void Sender::on_channel_report(const ChannelReport& report) {
  ++reports_received_;
  cycles_since_report_ = 0;
  fallback_active_ = false;  // a controller is audible again
  if (!config_.adaptation || config_.adaptation->tiers.empty()) return;
  const AdaptationConfig& a = *config_.adaptation;

  const double loss_pct = static_cast<double>(report.loss_permille) / 10.0;
  if (loss_pct >= a.raise_loss_pct) {
    clear_streak_ = 0;
    if (++raise_streak_ >= std::max(a.raise_after, 1)) {
      raise_streak_ = 0;
      if (tier_ + 1 < a.tiers.size()) {
        ++tier_;
        ++tier_raises_;
      }
    }
  } else if (loss_pct <= a.clear_loss_pct) {
    raise_streak_ = 0;
    if (++clear_streak_ >= std::max(a.clear_after, 1)) {
      clear_streak_ = 0;
      if (tier_ > 0) {
        --tier_;
        ++tier_clears_;
      }
    }
  } else {
    // Hysteresis dead zone: hold the tier, restart both streaks.
    raise_streak_ = 0;
    clear_streak_ = 0;
  }
}

void Sender::publish_metrics(telemetry::MetricsRegistry& registry,
                             const std::string& prefix) {
  registry.bind_counter(prefix + ".cycles", &cycles_);
  registry.bind_counter(prefix + ".cycles_failed", &cycles_failed_total_);
  registry.bind_counter(prefix + ".tx.beacons", &beacons_sent_total_);
  registry.bind_counter(prefix + ".tx.parity_beacons", &parity_beacons_total_);
  registry.bind_counter_fn(prefix + ".tx.airtime_us", [this] {
    return static_cast<std::uint64_t>(tx_airtime_total_.count());
  });
  registry.bind_counter(prefix + ".rx.downlinks", &downlinks_total_);
  registry.bind_counter(prefix + ".fec.recovery_beacons", &recovery_beacons_sent_);
  registry.bind_counter(prefix + ".adapt.reports_received", &reports_received_);
  registry.bind_counter(prefix + ".adapt.tier_raises", &tier_raises_);
  registry.bind_counter(prefix + ".adapt.tier_clears", &tier_clears_);
  registry.bind_counter(prefix + ".adapt.tier_decays", &tier_decays_);
  registry.bind_counter(prefix + ".reliable.dropped_unacked", &dropped_unacked_);
  if (config_.wur) {
    registry.bind_counter(prefix + ".wur.wakes", &wur_wakes_total_);
    registry.bind_counter(prefix + ".wur.frames_ignored", &wur_frames_ignored_);
  }
  registry.bind_gauge_fn(prefix + ".adapt.tier",
                         [this] { return static_cast<double>(tier_); });
  // Integrated energy since simulation start. PowerTimeline folds old
  // segment history on fleet runs but keeps the from-zero integral exact
  // (see PowerTimeline::set_max_segments), so this gauge is always the
  // true lifetime energy.
  registry.bind_gauge_fn(prefix + ".energy_j", [this] {
    return timeline_.energy_between(TimePoint{}, scheduler_.now()).value;
  });
  cycle_active_hist_ = registry.histogram(prefix + ".cycle_active_us");

  if (governor_) {
    registry.bind_counter(prefix + ".energy.brown_outs", &brown_outs_total_);
    registry.bind_counter(prefix + ".energy.cycles_resumed", &cycles_resumed_);
    registry.bind_counter(prefix + ".energy.cycles_aborted_stale",
                          &cycles_aborted_stale_);
    registry.bind_counter(prefix + ".energy.cycles_skipped", &cycles_skipped_energy_);
    // Charge gauge: a pure projection to the snapshot time. Reading it
    // never settles the governor, so attaching telemetry cannot perturb
    // the settlement sequence (same-seed runs stay bit-exact).
    registry.bind_gauge_fn(prefix + ".energy.charge_j", [this] {
      return governor_->projected_charge(scheduler_.now()).value;
    });
    // Resumed-vs-aborted is in the counters above; this histogram adds
    // how long each outage lasted (brown-out to recharge).
    recharge_hist_ = registry.histogram(prefix + ".energy.recharge_us");
  }
}

}  // namespace wile::core
