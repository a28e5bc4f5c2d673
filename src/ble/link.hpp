// BLE connection-event link model: a CC2541-class slave reporting to a
// mains-powered master (the paper's BLE scenario, §5.3: "the BLE chip is
// in the slave mode, and periodically transmits a data packet to another
// BLE device which is in the master mode. The microcontroller goes into
// the deep sleep mode between the transmissions").
//
// Each connection event follows the Core spec sequence on a shared data
// channel: the master transmits an (empty) poll PDU at the anchor point,
// the slave answers T_IFS = 150 us later with its data PDU. The slave's
// radio bring-up/tear-down phases and currents follow the TI SWRA347a
// measurement report, which is also where the paper takes its BLE
// numbers from.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "ble/pdu.hpp"
#include "phy/ble_phy.hpp"
#include "power/devices.hpp"
#include "power/timeline.hpp"
#include "sim/medium.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace wile::ble {

struct BleLinkConfig {
  std::uint32_t access_address = 0x50123456;
  std::uint32_t crc_init = 0x0BAD5E;
  std::uint8_t data_channel = 11;
  Duration connection_interval = seconds(1);
  double tx_power_dbm = 0.0;  // matches the paper's 0 dBm comparison
  /// Slave receive window opens this long before the anchor point
  /// (sleep-clock uncertainty guard).
  Duration rx_guard = usec(150);
  /// Give up on the master's poll this long after the anchor.
  Duration poll_timeout = msec(2);
  /// Slave latency (Core spec connection parameter): with no data
  /// pending, the slave may sleep through up to this many consecutive
  /// connection events — BLE's analogue of the WiFi-PS beacon-skip knob.
  int slave_latency = 0;
  power::Cc2541PowerProfile power{};
};

/// Per-connection-event summary from the slave, for Table 1 / Fig. 4.
struct BleEventReport {
  bool data_sent = false;
  TimePoint wake_time{};
  TimePoint sleep_time{};
  Joules energy{};
  Duration active_time{};
};

class BleMaster : public sim::MediumClient {
 public:
  BleMaster(sim::Scheduler& scheduler, sim::Medium& medium, sim::Position position,
            BleLinkConfig config);

  /// Begin issuing connection events, first anchor one interval from now.
  void start();

  [[nodiscard]] const std::vector<Bytes>& received_payloads() const { return received_; }
  [[nodiscard]] std::uint64_t events_run() const { return events_; }
  [[nodiscard]] sim::NodeId node_id() const { return node_id_; }

  void on_frame(const sim::RxFrame& frame) override;
  [[nodiscard]] bool rx_enabled() const override;

 private:
  void run_event();

  sim::Scheduler& scheduler_;
  sim::Medium& medium_;
  BleLinkConfig config_;
  sim::NodeId node_id_;
  bool running_ = false;
  bool sn_ = false;
  std::uint64_t events_ = 0;
  std::vector<Bytes> received_;
};

class BleSlave : public sim::MediumClient {
 public:
  BleSlave(sim::Scheduler& scheduler, sim::Medium& medium, sim::Position position,
           BleLinkConfig config);

  /// Begin following the master's anchor schedule (call start() on the
  /// master in the same simulated instant).
  void start();

  /// Queue a payload (<= 27 bytes) for the next connection event.
  void queue_payload(Bytes payload);

  using EventCallback = std::function<void(const BleEventReport&)>;
  void set_event_callback(EventCallback cb) { event_cb_ = std::move(cb); }

  [[nodiscard]] const power::PowerTimeline& timeline() const { return timeline_; }
  [[nodiscard]] std::uint64_t events_attended() const { return events_; }
  [[nodiscard]] std::uint64_t events_skipped() const { return events_skipped_; }
  [[nodiscard]] std::uint64_t polls_missed() const { return polls_missed_; }
  [[nodiscard]] sim::NodeId node_id() const { return node_id_; }
  [[nodiscard]] const BleLinkConfig& config() const { return config_; }

  void on_frame(const sim::RxFrame& frame) override;
  [[nodiscard]] bool rx_enabled() const override;

 private:
  enum class State { Sleep, WakeUp, PreProcessing, RxWait, Ifs, Tx, PostProcessing };

  /// The only writer of state_: keeps the medium's listening hint set
  /// exactly while the radio waits for the master's poll (RxWait).
  void set_state(State state);
  void schedule_next_event(TimePoint anchor);
  void begin_event(TimePoint anchor);
  void respond_with_data();
  void end_event(bool data_sent);

  sim::Scheduler& scheduler_;
  sim::Medium& medium_;
  BleLinkConfig config_;
  sim::NodeId node_id_;
  power::PowerTimeline timeline_;

  State state_ = State::Sleep;
  bool sn_ = false;
  TimePoint wake_time_{};
  std::deque<Bytes> pending_;
  std::optional<sim::EventId> poll_timer_;
  std::uint64_t events_ = 0;
  std::uint64_t events_skipped_ = 0;
  int consecutive_skips_ = 0;
  std::uint64_t polls_missed_ = 0;
  EventCallback event_cb_;
};

}  // namespace wile::ble
