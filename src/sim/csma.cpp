#include "sim/csma.hpp"

#include <utility>

#include "dot11/frame.hpp"

namespace wile::sim {

using phy::MacTiming;

Csma::Csma(Scheduler& scheduler, Medium& medium, NodeId self, Rng rng, Config config)
    : scheduler_(scheduler), medium_(medium), self_(self), rng_(rng), config_(config) {}

void Csma::send(Bytes mpdu, phy::WifiRate rate, bool expect_ack, DoneCallback done,
                std::optional<RtsAddresses> rts) {
  Pending p;
  p.mpdu = std::move(mpdu);
  p.rate = rate;
  p.expect_ack = expect_ack;
  p.done = std::move(done);
  p.rts = rts;
  p.cw = config_.cw_min;
  queue_.push_back(std::move(p));
  if (!busy_) start_next();
}

void Csma::send_raw(Bytes mpdu, Duration airtime, DoneCallback done) {
  Pending p;
  p.mpdu = std::move(mpdu);
  p.expect_ack = false;
  p.done = std::move(done);
  p.raw_airtime = airtime;
  p.cw = config_.cw_min;
  queue_.push_back(std::move(p));
  if (!busy_) start_next();
}

void Csma::start_next() {
  if (queue_.empty()) return;
  busy_ = true;
  current_ = std::move(queue_.front());
  queue_.erase(queue_.begin());
  begin_access();
}

void Csma::begin_access() {
  ++current_->transmissions;
  sense_difs(Duration{0});
}

void Csma::observe_nav(std::uint16_t duration_us) {
  if (duration_us & 0x8000) return;  // AID / CFP encodings, not a NAV value
  const TimePoint until = scheduler_.now() + Duration{duration_us};
  if (until > nav_until_) nav_until_ = until;
}

bool Csma::channel_busy() const {
  // Physical carrier sense OR virtual carrier sense (NAV).
  return medium_.carrier_busy(self_) || scheduler_.now() < nav_until_;
}

void Csma::sense_difs(Duration observed_idle) {
  // Sample the channel each slot; after a contiguous DIFS of idle,
  // proceed to backoff.
  if (channel_busy()) {
    scheduler_.schedule_in(MacTiming::kSlot,
                           [this] { sense_difs(Duration{0}); });
    return;
  }
  if (observed_idle >= MacTiming::kDifs) {
    const int slots = static_cast<int>(rng_.below(static_cast<std::uint64_t>(current_->cw) + 1));
    backoff_slot(slots);
    return;
  }
  scheduler_.schedule_in(MacTiming::kSlot, [this, observed_idle] {
    sense_difs(observed_idle + MacTiming::kSlot);
  });
}

void Csma::backoff_slot(int remaining_slots) {
  if (channel_busy()) {
    // Freeze the counter; defer again for DIFS before resuming.
    scheduler_.schedule_in(MacTiming::kSlot, [this, remaining_slots] {
      resume_after_busy(remaining_slots);
    });
    return;
  }
  if (remaining_slots <= 0) {
    transmit_now();
    return;
  }
  scheduler_.schedule_in(MacTiming::kSlot,
                         [this, remaining_slots] { backoff_slot(remaining_slots - 1); });
}

void Csma::resume_after_busy(int remaining_slots) {
  if (channel_busy()) {
    scheduler_.schedule_in(MacTiming::kSlot, [this, remaining_slots] {
      resume_after_busy(remaining_slots);
    });
    return;
  }
  // Channel went idle again: wait a fresh DIFS then continue the frozen
  // backoff countdown.
  scheduler_.schedule_in(MacTiming::kDifs,
                         [this, remaining_slots] { backoff_slot(remaining_slots); });
}

void Csma::transmit_now() {
  if (current_->rts && current_->mpdu.size() >= config_.rts_threshold) {
    transmit_rts();
  } else {
    transmit_data();
  }
}

void Csma::transmit_rts() {
  const Duration cts_time = phy::ack_airtime(config_.band);  // same 14-byte format
  const Duration data_time =
      phy::frame_airtime(current_->mpdu.size(), current_->rate, config_.band);
  Duration reserved = MacTiming::kSifs + cts_time + MacTiming::kSifs + data_time;
  if (current_->expect_ack) {
    reserved = reserved + MacTiming::kSifs + phy::ack_airtime(config_.band);
  }
  TxRequest req;
  req.mpdu = dot11::build_rts(current_->rts->receiver, current_->rts->transmitter,
                              static_cast<std::uint16_t>(reserved.count()));
  req.airtime = phy::frame_airtime(req.mpdu.size(), phy::kControlResponseRate, config_.band);
  req.tx_power_dbm = config_.tx_power_dbm;
  req.rate = phy::kControlResponseRate;
  req.on_complete = [this] {
    awaiting_cts_ = true;
    const Duration timeout =
        MacTiming::kSifs + phy::ack_airtime(config_.band) + MacTiming::kSlot;
    cts_timer_ = scheduler_.schedule_in(timeout, [this] { on_cts_timeout(); });
  };
  if (tx_listener_) tx_listener_(req.airtime, phy::kControlResponseRate);
  medium_.transmit(self_, std::move(req));
}

void Csma::notify_cts() {
  if (!awaiting_cts_) return;
  awaiting_cts_ = false;
  if (cts_timer_) {
    scheduler_.cancel(*cts_timer_);
    cts_timer_.reset();
  }
  // Data follows the CTS after SIFS, no re-contention.
  scheduler_.schedule_in(MacTiming::kSifs, [this] {
    if (current_) transmit_data();
  });
}

void Csma::on_cts_timeout() {
  if (!awaiting_cts_) return;
  awaiting_cts_ = false;
  cts_timer_.reset();
  retry_or_fail();
}

void Csma::transmit_data() {
  TxRequest req;
  // Fill the Duration/ID field just before transmission: unicast frames
  // reserve the channel through their ACK (SIFS + ACK airtime).
  if (current_->expect_ack) {
    const auto nav = static_cast<std::uint16_t>(
        (MacTiming::kSifs + phy::ack_airtime(config_.band)).count());
    req.mpdu = dot11::with_duration(current_->mpdu, nav);
  } else {
    req.mpdu = current_->mpdu;
  }
  if (current_->raw_airtime) {
    req.airtime = *current_->raw_airtime;
    req.rate = std::nullopt;
  } else {
    req.airtime = phy::frame_airtime(current_->mpdu.size(), current_->rate, config_.band);
    req.rate = current_->rate;
  }
  req.tx_power_dbm = config_.tx_power_dbm;
  req.on_complete = [this] { on_tx_complete(); };
  if (tx_listener_) tx_listener_(req.airtime, current_->rate);
  medium_.transmit(self_, std::move(req));
}

void Csma::on_tx_complete() {
  if (!current_->expect_ack) {
    finish(true);
    return;
  }
  awaiting_ack_ = true;
  // ACK timeout: SIFS + ACK airtime + one slot of slack.
  const Duration timeout =
      MacTiming::kSifs + phy::ack_airtime(config_.band) + MacTiming::kSlot;
  ack_timer_ = scheduler_.schedule_in(timeout, [this] { on_ack_timeout(); });
}

void Csma::notify_ack() {
  if (!awaiting_ack_) return;
  awaiting_ack_ = false;
  if (ack_timer_) {
    scheduler_.cancel(*ack_timer_);
    ack_timer_.reset();
  }
  finish(true);
}

void Csma::on_ack_timeout() {
  if (!awaiting_ack_) return;
  awaiting_ack_ = false;
  ack_timer_.reset();
  retry_or_fail();
}

void Csma::retry_or_fail() {
  if (current_->transmissions > config_.retry_limit) {
    finish(false);
    return;
  }
  current_->cw = std::min(current_->cw * 2 + 1, config_.cw_max);
  begin_access();
}

void Csma::finish(bool success) {
  awaiting_cts_ = false;
  if (cts_timer_) {
    scheduler_.cancel(*cts_timer_);
    cts_timer_.reset();
  }
  Result result;
  result.success = success;
  result.transmissions = current_->transmissions;
  DoneCallback done = std::move(current_->done);
  current_.reset();
  busy_ = false;
  if (done) done(result);
  // The callback may have queued more work.
  if (!busy_ && !queue_.empty()) start_next();
}

}  // namespace wile::sim
