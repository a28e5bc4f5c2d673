// ingest_replay: a seeded Wi-LE uplink stream replayed through the
// gateway receive path (Receiver::on_frame -> IngestTable ->
// ForwardedBatch -> rules::Engine), with no simulator layer running.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "chain.hpp"
#include "report.hpp"
#include "sim/medium.hpp"
#include "sim/scheduler.hpp"
#include "spans.hpp"
#include "util/byte_buffer.hpp"
#include "wile/receiver.hpp"

namespace perfbench {

struct IngestParams {
  std::uint32_t devices = 100'000;
  /// Fresh messages per stream (one replay pass).
  std::uint64_t messages = 1'000'000;
  double gap_share = 0.03;     // a sequence gap (lost messages) precedes the message
  double stale_share = 0.02;   // a re-delivery of an already delivered message
  double multi_share = 0.10;   // the message needs 2-3 beacon fragments
  double window_share = 0.125; // the message announces an RX window
  /// Stream time between messages: 100k devices reporting every 60 s.
  wile::Duration spacing = wile::usec(600);
};

/// A generated stream: every frame a complete beacon MPDU (hidden SSID,
/// one Wi-LE vendor element from core::Codec, FCS), stored back to back.
struct IngestStream {
  std::uint32_t devices = 0;
  wile::Bytes arena;
  std::vector<std::uint32_t> offsets;  // frame i is arena[offsets[i], offsets[i+1])
  std::vector<std::int8_t> rssi_dbm;
  std::vector<std::uint32_t> at_us;    // stream time of each frame
  /// Messages the receiver must deliver once frames [0, i] are in.
  std::vector<std::uint32_t> expected_after;
  /// Stale re-deliveries (receiver duplicates) within frames [0, i].
  std::vector<std::uint32_t> stale_after;
  /// Frame index one past each whole stream second.
  std::vector<std::uint32_t> step_ends;

  [[nodiscard]] std::size_t frames() const { return rssi_dbm.size(); }
  [[nodiscard]] wile::BytesView frame(std::size_t i) const {
    return {arena.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
};

IngestStream generate_stream(const IngestParams& p, std::uint64_t seed);

/// The gateway receive side, constructed fresh for each pass: a bench-
/// owned scheduler/medium (only so the Receiver can attach; nothing
/// runs on them), the Receiver, and the chain with the fleet provisioned.
class IngestRig {
 public:
  IngestRig(std::uint32_t devices, SpanLog* spans);

  /// Replay frames [0, n) until done or, at a stream-second boundary,
  /// past `deadline_ns`. Appends per-second wall times to `step_ms` and
  /// returns the frames replayed. The partial batch is flushed.
  std::size_t replay(const IngestStream& s, std::int64_t deadline_ns,
                     std::vector<double>& step_ms, std::uint64_t* live_peak);

  /// Verify the pass against the generator's expectations for the first
  /// `replayed` frames.
  void check(const IngestStream& s, std::size_t replayed, RunResult& r) const;

  /// Digest of the receiver stats and chain state (determinism checks).
  [[nodiscard]] std::uint64_t digest() const;
  /// Frames that carried no decodable Wi-LE element.
  [[nodiscard]] std::uint64_t rejected(std::size_t replayed) const;

  [[nodiscard]] const wile::core::Receiver& receiver() const { return *rx_; }
  [[nodiscard]] const GatewayChain& chain() const { return chain_; }

 private:
  SpanLog* spans_;
  wile::sim::Scheduler scheduler_;
  wile::sim::Medium medium_;
  std::unique_ptr<wile::core::Receiver> rx_;
  GatewayChain chain_;
  std::int64_t frame_clock_ns_ = 0;
  std::uint64_t frame_index_ = 0;
  wile::TimePoint frame_at_{};
};

struct RunArgs;
RunResult run_ingest(const RunArgs& args);

}  // namespace perfbench
