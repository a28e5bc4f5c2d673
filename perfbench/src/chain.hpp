// The gateway application path a delivered message takes after the
// receiver: controller bookkeeping (IngestTable), batched forwarding
// (ForwardedBatch, batch of 16) and the rules engine (the 3-rule chain
// of bench/ingest_throughput). Both benchmark families drive it: the
// ingest replay calls it from inside Receiver::on_frame, the fleets
// from the scenario's on_message hook.
#pragma once

#include <cstdint>
#include <vector>

#include "digest.hpp"
#include "spans.hpp"
#include "util/byte_buffer.hpp"
#include "util/units.hpp"
#include "wile/gateway.hpp"
#include "wile/ingest.hpp"
#include "wile/message.hpp"
#include "wile/rules/engine.hpp"

namespace perfbench {

class GatewayChain {
 public:
  static constexpr std::size_t kBatchMax = 16;

  /// `spans` (nullable) receives the Ingest/Batch/Rules spans.
  explicit GatewayChain(SpanLog* spans = nullptr);

  /// Register devices [0, n) the way a long-running controller knows
  /// its fleet: every record exists, downlink sequence counters start
  /// at 1 and every 5th device holds a drained downlink queue.
  void provision(std::uint32_t n);

  /// One message delivered by a gateway receiver. `batch_clock_ns` is
  /// the cpu_now_ns() reading when the work that produced it began (the
  /// ingest replay passes the moment its frame entered on_frame); a
  /// batch's latency runs from its first reading's clock to its readings
  /// being evaluated. It is read only while !batch_open(). `group` tags
  /// the spans.
  void on_message(const wile::core::Message& m, double rssi_dbm, wile::TimePoint at,
                  std::int64_t batch_clock_ns, std::uint64_t group);

  /// Finish a partly filled batch (end of a replay pass) so every
  /// delivered reading reaches the rules engine. Records no latency.
  void flush(std::uint64_t group);

  /// True while a batch has readings waiting for the 16th.
  [[nodiscard]] bool batch_open() const { return !pending_.empty(); }

  /// Batch latencies (µs, thread CPU time) recorded since the last
  /// clear_samples().
  [[nodiscard]] const std::vector<double>& batch_us() const { return batch_us_; }
  void clear_samples() { batch_us_.clear(); }

  [[nodiscard]] std::uint64_t readings_in() const { return readings_in_; }
  [[nodiscard]] std::uint64_t readings_evaluated() const { return readings_evaluated_; }
  [[nodiscard]] std::uint64_t reports() const { return reports_; }
  [[nodiscard]] std::uint64_t batches() const { return batches_; }
  [[nodiscard]] std::uint64_t batch_bytes() const { return batch_bytes_; }
  [[nodiscard]] std::uint64_t fired() const { return engine_.fired_total(); }
  /// Digest over every finished batch's bytes, report decisions and the
  /// rules engine's fire count.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  void finish_batch(std::uint64_t group);

  SpanLog* spans_;
  wile::core::IngestTable table_;
  wile::rules::Engine engine_;
  wile::Bytes arena_;
  wile::core::ForwardedReading record_;
  std::vector<wile::rules::Reading> pending_;
  std::int64_t batch_start_ns_ = 0;
  std::vector<double> batch_us_;
  std::uint64_t readings_in_ = 0;
  std::uint64_t readings_evaluated_ = 0;
  std::uint64_t reports_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t batch_bytes_ = 0;
  Digest digest_;
};

}  // namespace perfbench
