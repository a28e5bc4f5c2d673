// The Wi-LE sender — the paper's core contribution (§4).
//
// An IoT device that never associates: it wakes from deep sleep,
// enables the radio just enough to inject one (or a few) fake 802.11
// beacon frames carrying its data in vendor-specific elements with a
// hidden SSID, and goes straight back to deep sleep. "When the
// microcontroller wakes up, it embeds its data in a beacon frame,
// transmits it immediately and goes back to sleep. Note that Wi-LE does
// not associate with an AP for transmission."
//
// The beacon's constant parts (MAC header template, SSID/rates/DS
// elements) are precomputed once, mirroring §5.4's observation that "the
// content of the packet including all of the headers can be pre-computed
// and then only the IoT device's data needs to be inserted".
//
// Optional extensions implemented from §6:
//   * clock-jittered periods, so co-periodic devices drift apart;
//   * per-device payload encryption (see codec.hpp);
//   * two-way communication: a beacon can announce a short RX window
//     during which the device listens for Downlink messages.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "phy/airtime.hpp"
#include "phy/wur_phy.hpp"
#include "power/devices.hpp"
#include "power/harvester.hpp"
#include "power/radio_tracker.hpp"
#include "power/timeline.hpp"
#include "sim/csma.hpp"
#include "sim/medium.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/mac_address.hpp"
#include "util/rng.hpp"
#include "wile/codec.hpp"

namespace wile::core {

/// One open-loop redundancy operating point for the ack-less uplink:
/// how many times each beacon train is repeated, whether fragmented
/// messages carry an XOR parity element, and how often a cross-cycle
/// Recovery beacon (XOR of the last `recovery_k` message payloads) is
/// transmitted. The adaptation state machine moves between tiers based
/// on controller ChannelReports; without adaptation the SenderConfig
/// fields below define a single fixed tier.
struct RedundancyTier {
  int repeats = 1;
  bool fec_parity = false;
  /// Cross-cycle recovery group size; 0 disables recovery beacons.
  int recovery_k = 0;
  /// Send a recovery beacon every `stride` fresh messages, each covering
  /// the last `recovery_k`. 0 = recovery_k / 2 (min 1): overlapping
  /// groups, so every message is covered twice and two-loss patterns
  /// that fall across group boundaries remain recoverable.
  int recovery_stride = 0;
};

/// Loss-adaptive redundancy (closed-loop tuning of open-loop FEC): the
/// sender listens for controller ChannelReports in its RX windows and
/// walks up `tiers` while the reported loss stays above
/// `raise_loss_pct`, back down when it stays below `clear_loss_pct`.
/// The band between the two thresholds is a hysteresis dead zone: both
/// streaks reset, the tier holds, and the sender cannot oscillate while
/// an estimate decays through the middle. With no controller audible for
/// `fallback_after_cycles` duty cycles the sender switches to the
/// configured open-loop `fallback_tier` (it cannot know the channel, so
/// it pays for scheduled redundancy instead).
struct AdaptationConfig {
  std::vector<RedundancyTier> tiers;  // base tier first, max redundancy last
  double raise_loss_pct = 10.0;       // report >= this: raise pressure
  double clear_loss_pct = 2.0;        // report <= this: clear pressure
  int raise_after = 1;                // consecutive high reports to raise
  int clear_after = 2;                // consecutive low reports to clear
  int fallback_after_cycles = 0;      // 0 = never fall back
  std::size_t fallback_tier = 0;
  /// Stale-report watchdog: with ChannelReports silent for this many
  /// duty cycles, the tier starts decaying one step toward
  /// `fallback_tier` every `decay_every` further cycles instead of
  /// freezing at the last commanded tier (a dead controller must not
  /// pin a sender at maximum redundancy forever). 0 = disabled. Decay
  /// composes with fallback_after_cycles: decay walks, fallback jumps.
  int decay_after_cycles = 0;
  int decay_every = 1;
};

/// Intermittent-power operation (see power/harvester.hpp): the sender
/// runs off a harvested capacitor instead of an infinite supply. Wakes
/// are gated on a charge budget, brown-outs checkpoint the in-flight
/// cycle, and recharged devices resume the cycle instead of restarting.
struct HarvestingConfig {
  power::HarvesterConfig harvester{};
  /// Wake gate: skip a duty cycle unless the settled charge covers
  /// `wake_margin * estimated_cycle_cost()` (headroom for CSMA
  /// deferral and fragment-count variance the estimate cannot see).
  double wake_margin = 1.5;
  /// Recharge target after a brown-out, as the same multiple of the
  /// estimated cycle cost (clamped to the capacitor's capacity).
  double resume_margin = 1.5;
  /// Bounded staleness: a checkpointed sample older than this when the
  /// device finally recharges is discarded, not retransmitted — the
  /// reading no longer describes the world. 0 = keep forever.
  Duration max_checkpoint_age = minutes(5);
};

/// 802.11ba wake-up radio companion (the third transmission mode beside
/// Wi-LE duty cycles and BLE advertising). The main 802.11 radio stays
/// in deep sleep while a uW-class OOK companion receiver listens
/// continuously; an AP wake-up frame addressed to this device's WUR ID
/// (or one of its groups) triggers one full wake->inject->sleep cycle.
/// The listen draw rides the power timeline as an always-on overlay, so
/// the Harvester/EnergyGovernor see it and a brown-out darkens it.
struct WurCompanionConfig {
  /// 12-bit WUR ID this companion answers to. 0 = derive from device_id.
  std::uint16_t wur_id = 0;
  /// Group membership for multicast wakes; 0 = no group.
  std::uint16_t group_id = 0;
  power::WurReceiverModel receiver{};
};

struct SenderConfig {
  std::uint32_t device_id = 1;
  /// Locally-administered MAC the fake beacons claim as their BSSID.
  /// Zero = derive from device_id.
  MacAddress mac = MacAddress::zero();
  phy::WifiRate rate = phy::WifiRate::Mcs7Sgi;  // 72 Mbps, §5.4
  /// §1 suggests 5 GHz to escape the crowded 2.4 GHz band; pair with a
  /// Medium built from phy::ChannelConfig::for_band(Band::G5).
  phy::Band band = phy::Band::G2_4;
  double tx_power_dbm = 0.0;                    // §5.4: 0 dBm, BLE-class range
  /// 16-byte device key enabling payload encryption (§6 "Security").
  std::optional<Bytes> key;

  /// Duty-cycle period (the paper sweeps 0-5 minutes in Fig. 4).
  Duration period = minutes(1);
  /// Systematic clock error in parts-per-million (±). Real sleep clocks
  /// have tens of ppm; §6 argues this drift un-synchronises colliding
  /// devices. Applied multiplicatively to every period.
  double clock_ppm_error = 0.0;
  /// Additional uniform per-wake jitter (± this amount).
  Duration wake_jitter = Duration{0};

  /// Defer to CSMA before injecting (polite: checks the channel). The
  /// off setting models the cheapest possible injector and is what the
  /// collision ablation (E7) exercises.
  bool use_csma = true;

  /// Inject each beacon this many times per cycle (1 = paper behaviour).
  /// Broadcast frames carry no ACK, so repetition is the standard
  /// open-loop reliability lever; receivers de-duplicate by sequence
  /// number. Energy per message scales linearly.
  int repeats = 1;

  /// Advertised beacon interval field in the fake beacon (TUs).
  std::uint16_t beacon_interval_tu = 100;
  /// Non-empty = advertise this SSID openly instead of the hidden-SSID
  /// null element (the spam ablation; §4.1 explains why hidden wins).
  std::string spoofed_ssid;

  /// Related-work arm (§2, beacon-stuffing): carry the message in the
  /// SSID field itself instead of a vendor IE. Caps the payload at
  /// kSsidStuffingCapacity bytes, truncates the sequence number to 8
  /// bits, forgoes encryption/fragmentation/rx-windows — and spams every
  /// nearby scan list. Mutually exclusive with spoofed_ssid.
  bool ssid_stuffing = false;

  /// Two-way extension: announce an RX window on every beacon.
  std::optional<RxWindow> rx_window;

  /// Reliable mode (a §6-grade extension): retransmit a message — same
  /// sequence number — on subsequent cycles until a controller Ack
  /// arrives in the RX window, up to reliable_max_attempts per message.
  /// Requires rx_window; pair with ControllerConfig::auto_ack.
  bool reliable = false;
  int reliable_max_attempts = 3;

  /// First uplink sequence number (devices persisting their counter
  /// across reboots resume mid-space; also pins wraparound tests).
  std::uint32_t initial_sequence = 0;

  /// Fixed FEC tier (see RedundancyTier): parity elements on fragmented
  /// messages and periodic cross-cycle Recovery beacons. Ignored for the
  /// ssid_stuffing arm (no vendor elements to protect).
  bool fec_parity = false;
  int recovery_k = 0;
  int recovery_stride = 0;

  /// Loss-adaptive redundancy: overrides repeats/fec_parity/recovery_*
  /// with the active tier. Requires rx_window (reports arrive like Acks)
  /// and a controller with channel_reports enabled to leave the base
  /// tier — except via the no-controller fallback.
  std::optional<AdaptationConfig> adaptation;

  /// Batteryless operation: run off a harvested capacitor (see
  /// HarvestingConfig). Absent = the legacy infinite supply.
  std::optional<HarvestingConfig> harvesting;

  /// 802.11ba wake-up radio companion receiver. Absent = no companion
  /// circuit; set, it enables arm_wur() and adds the uW listen draw to
  /// every power-timeline segment.
  std::optional<WurCompanionConfig> wur;

  power::Esp32PowerProfile power{};

  /// Bound on the power timeline's retained segment history (0 =
  /// unbounded). Fleet-scale simulations set a small bound so 100k
  /// devices don't each keep an hour of phase annotations; energy
  /// totals stay exact (power::PowerTimeline::set_max_segments).
  std::size_t timeline_max_segments = 0;
};

struct SendReport {
  bool success = false;
  std::uint32_t sequence = 0;
  int beacons_sent = 0;       // fragments transmitted
  Duration tx_airtime{};      // on-air time, all fragments
  /// Reliable mode: this cycle's message was acknowledged in its window.
  bool acked = false;
  /// Reliable mode: this cycle retransmitted a previously unacked message.
  bool retransmission = false;
  /// Harvesting: this cycle resumed from a brown-out checkpoint (same
  /// sequence as the interrupted attempt; receivers dedupe).
  bool resumed = false;
  /// Table-1 accounting: "we consider only the time required to transmit
  /// the packet" — (airtime + PA ramp) x TX power draw.
  Joules tx_only_energy{};
  /// Whole wake->sleep cycle energy, init and shutdown included.
  Joules cycle_energy{};
  Duration active_time{};
  std::size_t downlinks_received = 0;  // during this cycle's RX window
  /// FEC accounting: beacons/airtime/energy spent on redundancy this
  /// cycle (parity elements + recovery beacons). Included in the totals
  /// above; broken out so benches can price the erasure code exactly.
  int parity_beacons = 0;
  Duration parity_airtime{};
  Joules parity_tx_energy{};
  /// Active redundancy tier index (0 unless adaptation raised it).
  std::size_t tier = 0;
};

class Sender : public sim::MediumClient {
 public:
  Sender(sim::Scheduler& scheduler, sim::Medium& medium, sim::Position position,
         SenderConfig config, Rng rng);

  using SendCallback = std::function<void(const SendReport&)>;
  using PayloadProvider = std::function<Bytes()>;
  using DownlinkCallback = std::function<void(const Message&)>;

  /// One-shot: wake from deep sleep, inject, sleep, report.
  void send_now(Bytes data, SendCallback done);

  /// Periodic operation: every (jittered) period, wake and transmit
  /// whatever `provider` returns. `per_cycle` fires after each cycle.
  void start_duty_cycle(PayloadProvider provider, SendCallback per_cycle = {});
  void stop_duty_cycle();

  /// 802.11ba duty model: arm the wake-up companion receiver and stay in
  /// deep sleep. Every AP wake-up frame matching this device's WUR ID or
  /// group triggers one wake->inject->sleep cycle transmitting whatever
  /// `provider` returns (uplink rides the normal Wi-LE beacon path).
  /// Requires config.wur. There is no periodic timer — the AP owns the
  /// cadence.
  void arm_wur(PayloadProvider provider, SendCallback per_cycle = {});
  void disarm_wur() { wur_armed_ = false; }

  /// Deliver Downlink messages received during announced RX windows.
  void set_downlink_callback(DownlinkCallback cb) { downlink_cb_ = std::move(cb); }

  /// Step the sleep clock's systematic error at runtime (fault injection:
  /// a temperature excursion shifting the crystal). Takes effect from the
  /// next scheduled wake onward; jittered_period() reads it per cycle.
  void apply_clock_drift_ppm(double ppm) { config_.clock_ppm_error = ppm; }

  [[nodiscard]] const power::PowerTimeline& timeline() const { return timeline_; }
  [[nodiscard]] const SenderConfig& config() const { return config_; }
  [[nodiscard]] sim::NodeId node_id() const { return node_id_; }
  [[nodiscard]] std::uint32_t next_sequence() const { return sequence_; }
  [[nodiscard]] std::uint64_t cycles_run() const { return cycles_; }
  /// Beacons injected since construction (fragments, repeats, parity and
  /// recovery beacons included).
  [[nodiscard]] std::uint64_t beacons_sent() const { return beacons_sent_total_; }
  /// Cumulative on-air time of everything this device transmitted.
  [[nodiscard]] Duration tx_airtime_total() const { return tx_airtime_total_; }

  // --- telemetry -------------------------------------------------------------
  /// Bind this device's counters into a telemetry registry under
  /// `prefix` (canonically "node.<id>.sender"): TX counts/airtime,
  /// cycle counters, FEC/adaptation state and an integrated-energy
  /// gauge over the power timeline. Also claims a registry-owned
  /// histogram of per-cycle active time. Non-const only because the
  /// histogram slot is cached for lookup-free recording.
  void publish_metrics(telemetry::MetricsRegistry& registry,
                       const std::string& prefix);

  /// Attach a protocol-phase tracer (nullptr detaches). The sender emits
  /// wake/sample/encode/csma/tx/rx-window/sleep spans on the simulated
  /// clock only while the tracer is attached AND enabled.
  void set_tracer(telemetry::Tracer* tracer) { tracer_ = tracer; }
  /// Reliable mode: messages abandoned after reliable_max_attempts.
  [[nodiscard]] std::uint64_t messages_dropped_unacked() const {
    return dropped_unacked_;
  }

  // --- FEC / adaptation observability ---------------------------------------
  /// Active redundancy tier index (always 0 without adaptation).
  [[nodiscard]] std::size_t current_tier() const { return tier_; }
  [[nodiscard]] std::uint64_t reports_received() const { return reports_received_; }
  [[nodiscard]] std::uint64_t tier_raises() const { return tier_raises_; }
  [[nodiscard]] std::uint64_t tier_clears() const { return tier_clears_; }
  /// True while running the open-loop fallback tier (controller silent).
  [[nodiscard]] bool fallback_active() const { return fallback_active_; }
  /// Stale-report watchdog steps taken toward the fallback tier.
  [[nodiscard]] std::uint64_t tier_decays() const { return tier_decays_; }
  [[nodiscard]] std::uint64_t recovery_beacons_sent() const {
    return recovery_beacons_sent_;
  }

  // --- intermittent power observability --------------------------------------
  /// Non-null iff config.harvesting was set. The governor is also the
  /// sim::EnergyFaultTarget to hand FaultInjector::attach_energy_target.
  [[nodiscard]] power::EnergyGovernor* energy_governor() { return governor_.get(); }
  [[nodiscard]] const power::EnergyGovernor* energy_governor() const {
    return governor_.get();
  }
  /// True between a brown-out and the recharge that clears it.
  [[nodiscard]] bool recovering() const { return recovering_; }
  [[nodiscard]] std::uint64_t brown_outs() const { return brown_outs_total_; }
  [[nodiscard]] std::uint64_t cycles_resumed() const { return cycles_resumed_; }
  [[nodiscard]] std::uint64_t cycles_aborted_stale() const {
    return cycles_aborted_stale_;
  }
  /// Wakes skipped because the capacitor could not fund a full cycle.
  [[nodiscard]] std::uint64_t cycles_skipped_energy() const {
    return cycles_skipped_energy_;
  }
  /// Charge budget the wake gate compares against (one nominal cycle at
  /// the active tier, margins excluded). Exposed for benches/tests.
  [[nodiscard]] Joules estimated_cycle_cost() const;

  // --- WUR observability ------------------------------------------------------
  /// Wake-up frames that matched this device and triggered a cycle.
  [[nodiscard]] std::uint64_t wur_wakes() const { return wur_wakes_total_; }
  /// Decoded wake-up frames addressed elsewhere (or stale repeats).
  [[nodiscard]] std::uint64_t wur_frames_ignored() const {
    return wur_frames_ignored_;
  }
  /// Effective (derived) 12-bit WUR ID; 0 when config.wur is absent.
  [[nodiscard]] std::uint16_t wur_id() const {
    return config_.wur ? config_.wur->wur_id : 0;
  }

  /// TX power draw (P_tx of Eq. 1) for this device profile.
  [[nodiscard]] Watts tx_power_draw() const {
    return config_.power.supply * config_.power.radio_tx;
  }
  /// Idle power draw (P_idle of Eq. 1): deep sleep.
  [[nodiscard]] Watts idle_power_draw() const {
    return config_.power.supply * config_.power.deep_sleep;
  }

  // --- sim::MediumClient -----------------------------------------------------
  void on_frame(const sim::RxFrame& frame) override;
  [[nodiscard]] bool rx_enabled() const override;

 private:
  enum class Phase { DeepSleep, Init, Tx, RxWindow, Shutdown };

  /// One frame of this cycle's train; `fec` marks pure-redundancy
  /// beacons (parity elements, recovery beacons) for energy accounting.
  struct CycleMpdu {
    Bytes mpdu;
    bool fec = false;
  };

  /// The only writer of phase_ and recovering_: every write re-derives
  /// the medium's listening hint, so the hint cannot drift from
  /// rx_enabled().
  void set_radio_state(Phase phase, bool recovering);
  /// Whether any receiver on the board is powered (rx_enabled() minus
  /// the own-transmission check); mirrored into Medium::set_listening.
  [[nodiscard]] bool listening_hint() const;

  void begin_cycle(Bytes data, SendCallback done);
  /// Shared back half of begin_cycle/resume_cycle: encode `message`
  /// into this cycle's beacon train and schedule the init->TX chain.
  void encode_and_transmit(const Message& message, bool include_recovery);
  void inject_fragments(std::vector<CycleMpdu> mpdus, std::size_t index);
  void after_last_beacon();
  [[nodiscard]] RedundancyTier active_tier() const;
  /// Build this cycle's Recovery beacon if one is due, else nullopt.
  [[nodiscard]] std::optional<Message> maybe_recovery_message(const RedundancyTier& tier);
  void on_channel_report(const ChannelReport& report);
  void finish_cycle();
  void schedule_next_cycle();
  [[nodiscard]] Bytes build_beacon_mpdu(const dot11::InfoElement& vendor_ie);
  [[nodiscard]] Bytes build_ssid_stuffed_mpdu(const std::string& stuffed_ssid);
  [[nodiscard]] Duration jittered_period();

  sim::Scheduler& scheduler_;
  sim::Medium& medium_;
  SenderConfig config_;
  Rng rng_;
  sim::NodeId node_id_;
  std::unique_ptr<sim::Csma> csma_;
  power::PowerTimeline timeline_;
  power::RadioPowerTracker tracker_;
  Codec codec_;

  /// Precomputed beacon-body prefix (everything before the vendor IEs).
  Bytes body_prefix_;

  // --- telemetry hooks (null/zero when no registry is attached) -------------
  telemetry::Tracer* tracer_ = nullptr;
  telemetry::Histogram* cycle_active_hist_ = nullptr;
  void trace_begin(telemetry::Phase p) {
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->begin(scheduler_.now(), node_id_, p);
    }
  }
  void trace_end(telemetry::Phase p) {
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->end(scheduler_.now(), node_id_, p);
    }
  }
  void trace_instant(telemetry::Phase p) {
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->instant(scheduler_.now(), node_id_, p);
    }
  }

  Phase phase_ = Phase::DeepSleep;
  std::uint32_t sequence_ = 0;
  std::uint16_t seq_ctl_ = 0;
  std::uint64_t cycles_ = 0;
  // Lifetime totals surfaced through the metrics registry.
  std::uint64_t beacons_sent_total_ = 0;
  std::uint64_t parity_beacons_total_ = 0;
  std::uint64_t downlinks_total_ = 0;
  std::uint64_t cycles_failed_total_ = 0;
  Duration tx_airtime_total_{};

  // current cycle bookkeeping
  SendCallback cycle_done_;
  TimePoint wake_time_{};
  Duration cycle_airtime_{};
  int cycle_beacons_ = 0;
  std::size_t cycle_downlinks_ = 0;
  bool cycle_failed_ = false;
  bool cycle_acked_ = false;
  bool cycle_retransmission_ = false;
  bool cycle_resumed_ = false;
  std::uint32_t cycle_sequence_ = 0;  // the sequence this cycle carries
  int cycle_parity_beacons_ = 0;
  Duration cycle_parity_airtime_{};

  // FEC: payloads of the last `recovery_history_` fresh messages, for
  // cross-cycle recovery beacons. The bound is the largest recovery_k
  // any tier can run (clamped to kMaxRecoveryGroup), fixed at
  // construction; 0 means no tier ever sends a recovery beacon, and
  // nothing is recorded.
  struct RecentMessage {
    std::uint32_t sequence = 0;
    MessageType type = MessageType::Telemetry;
    Bytes data;
  };
  std::vector<RecentMessage> recent_sent_;
  std::size_t recovery_history_ = 0;
  int msgs_since_recovery_ = 0;
  std::uint32_t recovery_sequence_ = 0;  // own space; never perturbs loss gaps
  std::uint64_t recovery_beacons_sent_ = 0;

  // adaptation state machine
  std::size_t tier_ = 0;
  int raise_streak_ = 0;
  int clear_streak_ = 0;
  std::uint64_t cycles_since_report_ = 0;
  bool fallback_active_ = false;
  std::uint64_t reports_received_ = 0;
  std::uint64_t tier_raises_ = 0;
  std::uint64_t tier_clears_ = 0;

  // reliable mode
  std::optional<Message> unacked_;
  int unacked_attempts_ = 0;
  std::uint64_t dropped_unacked_ = 0;
  [[nodiscard]] bool will_retransmit() const {
    return config_.reliable && unacked_ &&
           unacked_attempts_ < config_.reliable_max_attempts;
  }

  // adaptation: stale-report decay
  std::uint64_t tier_decays_ = 0;

  // --- intermittent power (harvesting) --------------------------------------
  // The persistent region an intermittent device keeps across
  // brown-outs: sequence_/recovery_sequence_/recent_sent_/
  // msgs_since_recovery_ above (FRAM-class state), plus the checkpoint
  // of the in-flight cycle written before the risky phases.
  struct Checkpoint {
    Message message;          // sequence already assigned
    TimePoint sampled_at{};   // staleness is measured from first sampling
  };
  void on_brown_out();
  void schedule_resume();
  void resume_cycle();
  [[nodiscard]] Joules resume_target() const;
  /// True (and the brown-out path has run) if the capacitor is dry at
  /// this phase boundary. No-op without harvesting.
  bool maybe_brown_out();

  std::unique_ptr<power::EnergyGovernor> governor_;
  std::optional<Checkpoint> checkpoint_;
  /// Bumped on every brown-out; scheduled cycle lambdas capture the
  /// epoch they belong to and bail when stranded.
  std::uint64_t cycle_epoch_ = 0;
  bool recovering_ = false;
  std::optional<sim::EventId> resume_event_;
  TimePoint brown_out_at_{};
  std::uint64_t brown_outs_total_ = 0;
  std::uint64_t cycles_resumed_ = 0;
  std::uint64_t cycles_aborted_stale_ = 0;
  std::uint64_t cycles_skipped_energy_ = 0;
  telemetry::Histogram* recharge_hist_ = nullptr;

  // duty cycle
  bool duty_cycling_ = false;
  PayloadProvider provider_;
  SendCallback per_cycle_;

  // --- 802.11ba wake-up companion ---------------------------------------------
  void on_wakeup_frame(const phy::WakeUpFrame& wake);
  bool wur_armed_ = false;
  std::uint64_t wur_wakes_total_ = 0;
  std::uint64_t wur_frames_ignored_ = 0;
  /// Sequence dedupe for repeated wake frames (per address kind).
  std::optional<std::uint8_t> last_unicast_wake_seq_;
  std::optional<std::uint8_t> last_group_wake_seq_;

  DownlinkCallback downlink_cb_;
};

}  // namespace wile::core
