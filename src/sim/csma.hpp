// CSMA/CA distributed coordination function (DCF), IEEE 802.11-2012 §9.3.
//
// One instance per transmitting radio. Handles DIFS deference, slotted
// binary-exponential backoff, transmission, ACK timeout and retry. The
// owner (STA/AP/Wi-LE node) feeds received ACKs back via notify_ack.
// Wi-LE broadcasts beacons with expect_ack=false — broadcast frames are
// never acknowledged, which is part of why a Wi-LE transmission is one
// frame instead of two.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "phy/airtime.hpp"
#include "sim/medium.hpp"
#include "sim/scheduler.hpp"
#include "util/mac_address.hpp"
#include "util/rng.hpp"

namespace wile::sim {

struct CsmaConfig {
  int retry_limit = phy::MacTiming::kRetryLimit;
  int cw_min = phy::MacTiming::kCwMin;
  int cw_max = phy::MacTiming::kCwMax;
  double tx_power_dbm = 0.0;
  phy::Band band = phy::Band::G2_4;
  /// MPDUs at least this long use RTS/CTS when the send() call provides
  /// the handshake addresses (hidden-terminal protection).
  std::size_t rts_threshold = SIZE_MAX;
};

/// Addresses for the RTS/CTS exchange preceding a protected send.
struct RtsAddresses {
  MacAddress receiver;     // the peer that will answer with CTS
  MacAddress transmitter;  // our own address (RTS TA)
};

class Csma {
 public:
  using Config = CsmaConfig;

  /// Outcome of one send() call.
  struct Result {
    bool success = false;
    int transmissions = 0;  // 1 = no retries
  };
  using DoneCallback = std::function<void(const Result&)>;

  Csma(Scheduler& scheduler, Medium& medium, NodeId self, Rng rng, Config config = {});

  /// Queue an MPDU for transmission. `expect_ack` enables the ACK-timeout
  /// retry loop (unicast); broadcast frames complete when they leave the
  /// antenna. Sends are serviced FIFO. When `rts` is provided and the
  /// MPDU reaches the configured rts_threshold, the transmission is
  /// protected by an RTS/CTS handshake.
  void send(Bytes mpdu, phy::WifiRate rate, bool expect_ack, DoneCallback done,
            std::optional<RtsAddresses> rts = std::nullopt);

  /// Queue a frame whose airtime does not follow the 802.11 rate table —
  /// the 802.11ba WUR PPDU's OOK body, whose duration the caller computes
  /// from phy::WurPhy. The frame contends exactly like any broadcast
  /// (DIFS + backoff, no ACK) and is put on the medium with no WiFi rate,
  /// so receivers apply the non-OFDM error model.
  void send_raw(Bytes mpdu, Duration airtime, DoneCallback done);

  /// The owner observed an ACK addressed to this station.
  void notify_ack();

  /// The owner observed a CTS addressed to this station.
  void notify_cts();

  /// Virtual carrier sense: the owner overheard a frame reserving the
  /// channel for `duration_us` (the 802.11 Duration/ID field). Values
  /// with bit 15 set are AIDs/CFP markers, not NAV, and are ignored.
  void observe_nav(std::uint16_t duration_us);

  /// Current NAV expiry (for tests).
  [[nodiscard]] TimePoint nav_until() const { return nav_until_; }

  /// Optional hook fired at the instant each (re)transmission starts,
  /// with its airtime and rate. Power models use it to overlay TX current.
  void set_tx_listener(std::function<void(Duration airtime, phy::WifiRate rate)> listener) {
    tx_listener_ = std::move(listener);
  }

  /// True when no send is queued or in flight.
  [[nodiscard]] bool idle() const { return !busy_ && queue_.empty(); }

  /// Discard every queued (not yet begun) send without invoking its
  /// callback. An in-flight transmission still completes — a crashing
  /// node's final frame leaves the antenna. Used by fault injection
  /// (AP outage) to silence a node instantly.
  void drop_queued() { queue_.clear(); }

 private:
  struct Pending {
    Bytes mpdu;
    phy::WifiRate rate{};
    bool expect_ack = false;
    DoneCallback done;
    std::optional<RtsAddresses> rts;
    /// Explicit airtime for non-802.11-rate waveforms (WUR OOK); when
    /// set the frame goes out with no WiFi rate attached.
    std::optional<Duration> raw_airtime;
    int transmissions = 0;
    int cw = 0;
  };

  [[nodiscard]] bool channel_busy() const;
  void start_next();
  void begin_access();
  void sense_difs(Duration observed_idle);
  void backoff_slot(int remaining_slots);
  void resume_after_busy(int remaining_slots);
  void transmit_now();
  void transmit_rts();
  void transmit_data();
  void on_tx_complete();
  void on_ack_timeout();
  void on_cts_timeout();
  void retry_or_fail();
  void finish(bool success);

  Scheduler& scheduler_;
  Medium& medium_;
  NodeId self_;
  Rng rng_;
  Config config_;

  /// FIFO of sends not yet begun. A vector popped from the front: a
  /// queue holds a handful of sends at most, and an empty vector costs
  /// no allocation (a std::deque allocates its map and first node).
  std::vector<Pending> queue_;
  bool busy_ = false;
  std::optional<Pending> current_;
  std::optional<EventId> ack_timer_;
  bool awaiting_ack_ = false;
  std::optional<EventId> cts_timer_;
  bool awaiting_cts_ = false;
  std::function<void(Duration, phy::WifiRate)> tx_listener_;
  TimePoint nav_until_{};
};

}  // namespace wile::sim
