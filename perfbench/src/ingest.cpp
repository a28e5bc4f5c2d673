#include "ingest.hpp"

#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "dot11/frame.hpp"
#include "dot11/mgmt.hpp"
#include "rss.hpp"
#include "util/frame_buffer.hpp"
#include "util/mac_address.hpp"
#include "util/rng.hpp"
#include "wile/codec.hpp"

namespace perfbench {

using namespace wile;

namespace {

/// A message's content is a pure function of (stream seed, device,
/// sequence), so a stale re-delivery re-encodes the identical message.
core::Message make_message(const core::Codec& codec, const IngestParams& p,
                           std::uint64_t seed, std::uint32_t device, std::uint32_t seq) {
  Rng rng{mix_seed(seed, (static_cast<std::uint64_t>(device) << 32) | seq)};
  core::Message m;
  m.device_id = device;
  m.sequence = seq;
  m.type = core::MessageType::Telemetry;
  if (rng.chance(p.window_share)) m.rx_window = core::RxWindow{};
  const bool window = m.rx_window.has_value();
  std::size_t len = 8;
  if (rng.chance(p.multi_share)) {
    const std::size_t lo = codec.capacity(1, window) + 1;
    const std::size_t hi = codec.capacity(3, window);
    len = lo + static_cast<std::size_t>(rng.below(hi - lo + 1));
  }
  m.data.resize(len);
  for (auto& b : m.data) b = static_cast<std::uint8_t>(rng.below(256));
  return m;
}

}  // namespace

IngestStream generate_stream(const IngestParams& p, std::uint64_t seed) {
  const core::Codec codec;
  Rng rng{mix_seed(seed, 0x1276E57)};
  IngestStream s;
  s.devices = p.devices;

  struct Dev {
    std::uint32_t next_seq = 0;
    std::uint32_t sent[2] = {0, 0};  // last two sequences sent, newest first
    std::uint8_t n_sent = 0;
  };
  std::vector<Dev> devs(p.devices);
  for (Dev& d : devs) d.next_seq = static_cast<std::uint32_t>(rng.below(1000));

  // The beacon body before the Wi-LE element never changes: hidden SSID,
  // rates, DS channel (what core::Sender transmits).
  dot11::Beacon prototype;
  prototype.capability = dot11::Capability::kEss | dot11::Capability::kShortSlot;
  prototype.ies.add(dot11::make_ssid_ie(""));
  prototype.ies.add(dot11::make_supported_rates_ie(dot11::default_bg_rates()));
  prototype.ies.add(dot11::make_ds_param_ie(6));

  std::uint32_t expected = 0;
  std::uint32_t stale = 0;
  std::uint64_t next_step_us = 1'000'000;
  s.offsets.push_back(0);
  for (std::uint64_t k = 0; k < p.messages; ++k) {
    const auto at = static_cast<std::uint32_t>(k * static_cast<std::uint64_t>(p.spacing.count()));
    while (at >= next_step_us) {
      s.step_ends.push_back(static_cast<std::uint32_t>(s.frames()));
      next_step_us += 1'000'000;
    }
    const auto device = static_cast<std::uint32_t>(rng.below(p.devices));
    Dev& d = devs[device];
    std::uint32_t seq = 0;
    const bool is_stale = d.n_sent == 2 && rng.chance(p.stale_share);
    if (is_stale) {
      seq = d.sent[1];
    } else {
      if (rng.chance(p.gap_share)) d.next_seq += 1 + static_cast<std::uint32_t>(rng.below(4));
      seq = d.next_seq++;
      d.sent[1] = d.sent[0];
      d.sent[0] = seq;
      d.n_sent = static_cast<std::uint8_t>(std::min(2, d.n_sent + 1));
    }
    const core::Message m = make_message(codec, p, seed, device, seq);
    const MacAddress mac = MacAddress::from_seed(0x5E000000ull + device);
    const auto ies = codec.encode(m);
    const auto rssi = static_cast<std::int8_t>(-40 - static_cast<int>(rng.below(50)));
    for (std::size_t f = 0; f < ies.size(); ++f) {
      dot11::Beacon beacon = prototype;
      beacon.timestamp_us = at;
      beacon.ies.add(ies[f]);
      const Bytes mpdu = dot11::build_mgmt_mpdu(
          dot11::MgmtSubtype::Beacon, MacAddress::broadcast(), mac, mac,
          static_cast<std::uint16_t>((seq + f) & 0x0fff), beacon.encode());
      s.arena.insert(s.arena.end(), mpdu.begin(), mpdu.end());
      s.offsets.push_back(static_cast<std::uint32_t>(s.arena.size()));
      s.rssi_dbm.push_back(rssi);
      s.at_us.push_back(at);
      // A message is delivered with its last fragment; a stale copy
      // never is (the receiver already holds it).
      if (!is_stale && f + 1 == ies.size()) ++expected;
      if (is_stale && f + 1 == ies.size()) ++stale;
      s.expected_after.push_back(expected);
      s.stale_after.push_back(stale);
    }
  }
  s.step_ends.push_back(static_cast<std::uint32_t>(s.frames()));
  return s;
}

IngestRig::IngestRig(std::uint32_t devices, SpanLog* spans)
    : spans_(spans), medium_(scheduler_, phy::Channel{}, Rng{1}), chain_(spans) {
  core::ReceiverConfig cfg;
  cfg.require_hidden_ssid = true;
  rx_ = std::make_unique<core::Receiver>(scheduler_, medium_, sim::Position{0, 0}, cfg);
  rx_->set_message_callback([this](const core::Message& m, const core::RxMeta& meta) {
    chain_.on_message(m, meta.rssi_dbm, frame_at_, frame_clock_ns_, frame_index_);
  });
  chain_.provision(devices);
}

std::size_t IngestRig::replay(const IngestStream& s, std::int64_t deadline_ns,
                              std::vector<double>& step_ms, std::uint64_t* live_peak) {
  sim::RxFrame frame;
  frame.rate = phy::WifiRate::Mcs7Sgi;
  std::size_t i = 0;
  std::int64_t step_start = cpu_now_ns();
  for (const std::uint32_t end : s.step_ends) {
    for (; i < end; ++i) {
      frame.mpdu = FrameBuffer::copy_of(s.frame(i));
      frame.rx_power_dbm = s.rssi_dbm[i];
      frame_at_ = TimePoint{usec(s.at_us[i])};
      frame_index_ = i;
      // The next delivered reading may open a batch: stamp its start.
      if (!chain_.batch_open()) frame_clock_ns_ = cpu_now_ns();
      ScopedSpan span(spans_, SpanName::OnFrame, i);
      rx_->on_frame(frame);
    }
    if (live_peak != nullptr) {
      *live_peak = std::max(*live_peak, FrameBuffer::live_buffers());
    }
    const std::int64_t t = cpu_now_ns();
    step_ms.push_back(static_cast<double>(t - step_start) / 1e6);
    step_start = t;
    if (now_ns() >= deadline_ns) break;
  }
  chain_.flush(i);
  return i;
}

std::uint64_t IngestRig::rejected(std::size_t replayed) const {
  const std::uint64_t accepted = rx_->stats().wile_beacons;
  return replayed > accepted ? replayed - accepted : 0;
}

void IngestRig::check(const IngestStream& s, std::size_t replayed, RunResult& r) const {
  if (replayed == 0) {
    r.check(false, "ingest_replay: no frame replayed");
    return;
  }
  const core::ReceiverStats& st = rx_->stats();
  const std::uint64_t expected = s.expected_after[replayed - 1];
  const std::uint64_t evaluated = chain_.readings_evaluated();
  r.check(evaluated == expected,
          "ingest_replay: " + std::to_string(evaluated) + " readings reached the rules engine, " +
              std::to_string(expected) + " expected");
  r.check(st.messages == expected, "ingest_replay: receiver delivered " +
                                       std::to_string(st.messages) + " messages, " +
                                       std::to_string(expected) + " expected");
  r.check(st.duplicates == s.stale_after[replayed - 1],
          "ingest_replay: receiver duplicates differ from the stale re-deliveries sent");
  r.check(st.fragments == replayed, "ingest_replay: fragments decoded != frames replayed");
  const std::uint64_t failures =
      rejected(replayed) + st.crc_failures + st.decrypt_failures + st.fcs_failures;
  r.check(failures == 0,
          "ingest_replay: " + std::to_string(failures) + " well-formed frames rejected");
  r.attempted += expected;
  r.failed += (evaluated > expected ? evaluated - expected : expected - evaluated) + failures;
}

std::uint64_t IngestRig::digest() const {
  const core::ReceiverStats& st = rx_->stats();
  Digest d;
  for (const std::uint64_t v : {st.beacons_seen, st.wile_beacons, st.fragments, st.messages,
                                st.duplicates, st.crc_failures, st.fcs_failures}) {
    d.add(v);
  }
  d.add(chain_.readings_evaluated());
  d.add(chain_.reports());
  d.add(chain_.digest());
  return d.value();
}

namespace {

struct Pass {
  std::unique_ptr<IngestRig> rig;
  std::size_t frames = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  // this thread's CPU time replaying
};

/// Build a rig (set-up timed on the CPU clock), replay the stream into it
/// until done or `deadline_ns`, collect its samples into `e` and check it.
Pass run_pass(const IngestStream& s, const RunArgs& args, std::int64_t deadline_ns,
              SpanLog* spans, EndToEnd& e, std::vector<double>& setups, RunResult& r,
              std::uint64_t* live_peak = nullptr) {
  Pass pass;
  const std::int64_t c0 = cpu_now_ns();
  pass.rig = std::make_unique<IngestRig>(s.devices, spans);
  const std::int64_t c1 = cpu_now_ns();
  const std::int64_t w1 = now_ns();
  setups.push_back(static_cast<double>(c1 - c0) / 1e9);
  pass.frames = pass.rig->replay(s, deadline_ns, e.step_ms, live_peak);
  pass.cpu_s = static_cast<double>(cpu_now_ns() - c1) / 1e9;
  pass.wall_s = static_cast<double>(now_ns() - w1) / 1e9;
  const std::vector<double>& batches = pass.rig->chain().batch_us();
  e.batch_us.insert(e.batch_us.end(), batches.begin(), batches.end());
  pass.rig->check(s, pass.frames, r);
  if (pass.frames == s.frames()) {
    r.check(same_as_earlier_runs(args, "pass", pass.rig->digest()),
            "ingest_replay: pass digest differs from an earlier pass or run with this seed");
  }
  return pass;
}

constexpr double kPassSeconds = 5.0;

double readings_per_cpu_s(const Pass& p) {
  return static_cast<double>(p.rig->chain().readings_evaluated()) / p.cpu_s;
}

}  // namespace

RunResult run_ingest(const RunArgs& args) {
  RunResult r;
  const IngestStream stream = generate_stream(IngestParams{}, args.seed);
  std::vector<double> setups;
  constexpr std::int64_t kNoDeadline = INT64_MAX;

  if (!args.trace) {
    EndToEnd e;
    {
      // An untimed first pass: it measures the memory growth of set-up
      // plus one whole pass, and leaves the allocator warm, so the timed
      // passes all see the same (steady) heap.
      EndToEnd warm;
      const std::int64_t rss0 = rss_baseline_bytes();
      const Pass pass = run_pass(stream, args, kNoDeadline, nullptr, warm, setups, r);
      e.rss_per_node_bytes =
          static_cast<double>(current_rss_bytes() - rss0) / static_cast<double>(stream.devices);
    }
    // Whole passes, so every run's steps have the same make-up: each
    // pass starts on an empty receiver, and its tables' growth puts a
    // handful of 20-70 ms steps (rehashes) in the first stream minute,
    // about 1 % of a pass's steps — right where p99 reads. A pass takes
    // ~5 s on the 4-vCPU VM this was tuned on; the deadline only stops
    // a much slower build from overrunning the run.
    const long passes = std::max(1L, std::lround(args.seconds / kPassSeconds));
    const std::int64_t deadline = deadline_after(3.0 * args.seconds);
    double cpu_s = 0.0;
    std::uint64_t readings = 0;
    for (long k = 0; k < passes && now_ns() < deadline; ++k) {
      const Pass pass = run_pass(stream, args, deadline, nullptr, e, setups, r);
      cpu_s += pass.cpu_s;
      readings += pass.rig->chain().readings_evaluated();
    }
    e.setup_s = setup_median(std::move(setups), [&] {
      const std::int64_t t0 = cpu_now_ns();
      const IngestRig rig(stream.devices, nullptr);
      return static_cast<double>(cpu_now_ns() - t0) / 1e9;
    });
    // Every step is one stream second.
    e.sim_rate = static_cast<double>(e.step_ms.size()) / cpu_s;
    e.readings_per_s = static_cast<double>(readings) / cpu_s;
    emit(e, r);
    return r;
  }

  // Traced run: untraced, traced and untraced again over the whole
  // stream. The first pass warms the allocator, so neither the traced
  // pass nor the trace.overhead baseline after it pays the process's
  // first page faults.
  EndToEnd untraced;
  const std::uint64_t digest_a =
      run_pass(stream, args, kNoDeadline, nullptr, untraced, setups, r).rig->digest();
  SpanLog spans;
  EndToEnd traced;
  std::uint64_t live_peak = 0;
  Pass b = run_pass(stream, args, kNoDeadline, &spans, traced, setups, r, &live_peak);
  const IngestRig& rig = *b.rig;
  r.check(rig.digest() == digest_a, "ingest_replay: traced pass digest differs from untraced");

  Layers l;
  const core::ReceiverStats& st = rig.receiver().stats();
  const double readings = static_cast<double>(rig.chain().readings_evaluated());
  l.receiver_busy_s = spans.self_s(SpanName::OnFrame);
  l.receiver_ns_per_frame = l.receiver_busy_s * 1e9 / static_cast<double>(b.frames);
  l.receiver_messages = static_cast<double>(st.messages);
  l.receiver_duplicates = static_cast<double>(st.duplicates);
  l.receiver_fragments = static_cast<double>(st.fragments);
  l.receiver_decode_failures = static_cast<double>(rig.rejected(b.frames));
  l.ingest_busy_s = spans.self_s(SpanName::Ingest);
  l.ingest_ns_per_reading = l.ingest_busy_s * 1e9 / static_cast<double>(rig.chain().readings_in());
  l.ingest_reports = static_cast<double>(rig.chain().reports());
  l.batch_busy_s = spans.self_s(SpanName::Batch);
  l.batch_batches = static_cast<double>(rig.chain().batches());
  l.batch_bytes_per_reading = static_cast<double>(rig.chain().batch_bytes()) / readings;
  l.rules_busy_s = spans.self_s(SpanName::Rules);
  l.rules_ns_per_reading = l.rules_busy_s * 1e9 / readings;
  l.rules_fired = static_cast<double>(rig.chain().fired());
  l.frame_buffer_live_peak = static_cast<double>(live_peak);
  l.trace_coverage =
      (l.receiver_busy_s + l.ingest_busy_s + l.batch_busy_s + l.rules_busy_s) / b.wall_s;
  const double traced_rate = readings_per_cpu_s(b);
  b.rig.reset();
  const Pass a = run_pass(stream, args, kNoDeadline, nullptr, untraced, setups, r);
  l.trace_overhead = readings_per_cpu_s(a) / traced_rate - 1.0;
  write_trace(args, spans);
  emit(l, r);
  return r;
}

}  // namespace perfbench
