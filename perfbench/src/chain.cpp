#include "chain.hpp"

namespace perfbench {

namespace {

std::vector<wile::rules::RuleSpec> rule_chain() {
  using namespace wile;
  std::vector<rules::RuleSpec> specs(3);
  specs[0].name = "hot-held";
  specs[0].when = rules::ConditionSpec{rules::Field::Value, rules::Cmp::Gt, 40000.0};
  specs[0].hold = seconds(10);
  specs[1].name = "burst";
  specs[1].aggregate =
      rules::AggregateSpec{rules::AggOp::Count, seconds(30), rules::Cmp::Ge, 8.0};
  specs[2].name = "weak-signal";
  specs[2].when = rules::ConditionSpec{rules::Field::RssiDbm, rules::Cmp::Lt, -85.0};
  specs[2].cooldown = seconds(60);
  return specs;
}

}  // namespace

GatewayChain::GatewayChain(SpanLog* spans) : spans_(spans), engine_(rule_chain()) {
  pending_.reserve(kBatchMax);
}

void GatewayChain::provision(std::uint32_t n) {
  for (std::uint32_t id = 0; id < n; ++id) {
    wile::core::DeviceState& dev = table_.state(id);
    dev.downlink_seq = 1;
    if (id % 5 == 0) (void)dev.queue();
  }
}

void GatewayChain::on_message(const wile::core::Message& m, double rssi_dbm,
                              wile::TimePoint at, std::int64_t batch_clock_ns,
                              std::uint64_t group) {
  ++readings_in_;
  {
    ScopedSpan span(spans_, SpanName::Ingest, group);
    wile::core::DeviceState& dev = table_.state(m.device_id);
    wile::core::IngestTable::note_uplink(dev, m.sequence);
    if (m.rx_window && wile::core::IngestTable::should_report(dev, m.sequence)) {
      ++reports_;
      digest_.add(m.device_id);
    }
  }
  {
    ScopedSpan span(spans_, SpanName::Batch, group);
    if (pending_.empty()) {
      batch_start_ns_ = batch_clock_ns;
      wile::core::ForwardedBatch::begin(arena_);
    }
    record_.device_id = m.device_id;
    record_.sequence = m.sequence;
    record_.type = m.type;
    record_.rssi_dbm = static_cast<std::int8_t>(rssi_dbm);
    record_.data = m.data;
    wile::core::ForwardedBatch::append(arena_, record_);
    wile::rules::Reading reading;
    reading.device_id = m.device_id;
    reading.sequence = m.sequence;
    reading.type = m.type;
    reading.rssi_dbm = rssi_dbm;
    if (m.data.size() >= 2) reading.value = m.data[0] | (m.data[1] << 8);
    reading.at = at;
    pending_.push_back(reading);
    if (pending_.size() < kBatchMax) return;
  }
  finish_batch(group);
  batch_us_.push_back(static_cast<double>(cpu_now_ns() - batch_start_ns_) / 1e3);
}

void GatewayChain::flush(std::uint64_t group) {
  if (!pending_.empty()) finish_batch(group);
}

void GatewayChain::finish_batch(std::uint64_t group) {
  {
    ScopedSpan span(spans_, SpanName::Batch, group);
    wile::core::ForwardedBatch::finish(arena_, pending_.size());
    digest_.add_bytes(arena_.data(), arena_.size());
    batch_bytes_ += arena_.size();
    ++batches_;
  }
  ScopedSpan span(spans_, SpanName::Rules, group);
  for (const wile::rules::Reading& r : pending_) engine_.on_reading(r);
  readings_evaluated_ += pending_.size();
  pending_.clear();
}

std::uint64_t GatewayChain::digest() const {
  Digest d = digest_;
  d.add(engine_.fired_total());
  return d.value();
}

}  // namespace perfbench
