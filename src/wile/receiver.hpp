// The Wi-LE receiver — any WiFi device in monitor mode, or an ordinary
// smartphone/laptop whose OS surfaces received beacons (§4: "Upon
// receiving a WiFi beacon frame, the MAC layer forwards it to higher
// layer ... an application looks for special beacon frames transmitted
// by IoT devices and extracts their data").
//
// The receiver is passive: it never transmits, it just watches the
// medium for beacons carrying Wi-LE vendor elements, reassembles
// fragments, de-duplicates by (device, sequence), and keeps a per-device
// registry with loss estimates from sequence gaps.
//
// The registry is one flat open-addressing table (util/flat_table.hpp)
// holding a single record per device: the DeviceInfo the registry
// reports and the FEC state (payload cache, parked recovery beacons).
// A delivered message resolves its record with one probe and reuses it
// for the FEC cache, so a gateway hearing 100k devices never walks a
// tree or allocates a node per message.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "dot11/frame.hpp"
#include "sim/medium.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/metrics.hpp"
#include "util/flat_table.hpp"
#include "wile/codec.hpp"

namespace wile::core {

struct ReceiverConfig {
  /// Device key for encrypted payloads (must match the senders').
  std::optional<Bytes> key;
  /// Accept only beacons using the hidden-SSID discipline (reject
  /// spoofed-SSID senders). Off by default: a monitor sees everything.
  bool require_hidden_ssid = false;
  /// Reassembly memory bound: at most this many in-progress fragmented
  /// messages are held; beyond it the stalest partial is evicted
  /// (surfaced as ReceiverStats::partials_evicted).
  std::size_t max_partials = Reassembler::kDefaultMaxPartials;
};

struct ReceiverStats {
  std::uint64_t beacons_seen = 0;         // all beacons, Wi-LE or not
  std::uint64_t wile_beacons = 0;         // beacons with >= 1 Wi-LE element
  std::uint64_t fragments = 0;
  std::uint64_t messages = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t crc_failures = 0;
  std::uint64_t decrypt_failures = 0;
  std::uint64_t fcs_failures = 0;         // corrupt radio frames observed
  std::uint64_t collisions_observed = 0;
  // --- FEC ---
  std::uint64_t parity_beacons = 0;   // parity elements seen
  std::uint64_t recovery_beacons = 0; // distinct Recovery messages seen
  /// Messages reconstructed without retransmission: group-parity XOR
  /// plus cross-cycle recovery-beacon decodes. Counted in `messages` too.
  std::uint64_t recovered = 0;
  std::uint64_t partials_evicted = 0; // reassembler memory-bound drops
};

struct DeviceInfo {
  std::uint32_t device_id = 0;
  std::uint32_t last_sequence = 0;
  std::uint64_t messages = 0;
  std::uint64_t estimated_losses = 0;  // from sequence gaps
  /// Sliding window over the last 64 sequence numbers: bit i set means
  /// sequence (last_sequence - i) was received. Lets a late retransmitted
  /// beacon fill its gap (decrementing estimated_losses) instead of being
  /// miscounted as a duplicate or inflating the loss estimate.
  std::uint64_t recent_seen = 1;
  TimePoint first_seen{};
  TimePoint last_seen{};
  double last_rssi_dbm = 0.0;
};

struct RxMeta {
  TimePoint received_at{};
  double rssi_dbm = 0.0;
  MacAddress bssid;  // the fake-AP address the device used
};

class Receiver : public sim::MediumClient {
 public:
  Receiver(sim::Scheduler& scheduler, sim::Medium& medium, sim::Position position,
           ReceiverConfig config = {});

  /// Called once per delivered message. It must not feed frames back
  /// into this receiver synchronously (the medium never does: every
  /// delivery is its own scheduler event).
  using MessageCallback = std::function<void(const Message&, const RxMeta&)>;
  void set_message_callback(MessageCallback cb) { callback_ = std::move(cb); }

  [[nodiscard]] const ReceiverStats& stats() const { return stats_; }

  /// Bind this receiver's counters into a telemetry registry under
  /// `prefix` (canonically "node.<id>.receiver"); stats() remains a
  /// view of the exact same slots.
  void publish_metrics(telemetry::MetricsRegistry& registry,
                       const std::string& prefix) const;
  /// Registry entry for `device_id`; nullptr until its first message.
  [[nodiscard]] const DeviceInfo* device(std::uint32_t device_id) const;
  /// Devices that have delivered at least one message (O(1)).
  [[nodiscard]] std::size_t device_count() const { return device_count_; }
  /// Snapshot of the registry ordered by device id (stable iteration for
  /// tests, benches and reports; O(n log n), not for the hot path).
  [[nodiscard]] std::vector<DeviceInfo> devices() const;

  /// Device registry as CSV ("device_id,messages,losses,loss_pct,
  /// last_seq,first_seen_s,last_seen_s,rssi_dbm") for ops dashboards.
  [[nodiscard]] std::string devices_csv() const;
  [[nodiscard]] sim::NodeId node_id() const { return node_id_; }
  [[nodiscard]] const ReceiverConfig& config() const { return config_; }
  /// In-progress fragmented messages currently held. The chaos
  /// harness's partial-table oracle pins this to config().max_partials.
  [[nodiscard]] std::size_t reassembler_partials() const {
    return reassembler_.partials();
  }

  // --- sim::MediumClient -----------------------------------------------------
  void on_frame(const sim::RxFrame& frame) override;
  void on_corrupt_frame(const sim::RxFrame& frame, bool collision) override;
  [[nodiscard]] bool rx_enabled() const override;

 private:
  /// How many payloads (and how far back in sequence space) the FEC
  /// machinery can reach: matches DeviceInfo::recent_seen's 64-bit
  /// horizon, so anything the bitmap remembers is XOR-reconstructable.
  static constexpr std::size_t kPayloadCacheSize = 64;
  static constexpr std::size_t kMaxPendingRecoveries = 8;

  struct CachedPayload {
    std::uint32_t sequence = 0;
    MessageType type = MessageType::Telemetry;
    Bytes data;
  };
  /// Per-device erasure-decoding state: recently delivered payloads (the
  /// XOR inputs) and recovery beacons still waiting for a second loss in
  /// their group to be filled by a later beacon or delivery.
  struct FecState {
    /// Ring of the last kPayloadCacheSize payloads: once full, each
    /// delivery overwrites the oldest slot (cache_next) in place and
    /// reuses its buffer. Lookups go by sequence, so order is free.
    std::vector<CachedPayload> cache;
    std::vector<RecoveryPayload> pending;
    std::uint32_t last_recovery_seq = 0;  // valid once recovery_seen
    bool recovery_seen = false;
    std::uint8_t cache_next = 0;
  };
  /// Everything the receiver knows about one device, in one table slot.
  struct DeviceRecord {
    DeviceInfo info;
    FecState fec;
    /// False while only FEC state exists (a recovery beacon can arrive
    /// before the device's first message); the first registered message
    /// makes info.messages non-zero.
    [[nodiscard]] bool registered() const { return info.messages != 0; }
  };
  // 112 B, so a table slot (8-byte key plus record) is 120 B.
  static_assert(sizeof(DeviceRecord) == 112);

  // Record references: util::FlatTable invalidates them only when a
  // *new* key is inserted. Every path below, recovery included, touches
  // only the device the record belongs to, and the message callback may
  // not feed frames back in, so a reference resolved once stays valid
  // for the whole call chain.

  void accept_fragment(const Fragment& fragment, const RxMeta& meta);
  /// Registry update (dedup, gap/loss accounting, wrap-safe). Returns
  /// false for duplicates and beyond-horizon stragglers.
  bool register_message(DeviceRecord& rec, const Message& message, const RxMeta& meta);
  /// Registry + cache + user callback for one completed message.
  void deliver(DeviceRecord& rec, const Message& message, const RxMeta& meta,
               bool recovered);
  void handle_recovery(DeviceRecord& rec, std::uint32_t device_id,
                       std::uint32_t recovery_seq, const RecoveryPayload& payload,
                       const RxMeta& meta);
  /// Try to decode one recovery group. Returns true when the beacon is
  /// spent (recovered something, nothing missing, or unrecoverable) and
  /// false when it should stay pending.
  bool attempt_recovery(DeviceRecord& rec, std::uint32_t device_id,
                        const RecoveryPayload& payload, const RxMeta& meta);
  /// Re-try pending recovery beacons until no further progress (one
  /// recovered message can complete another group). Returns at once
  /// when none are parked.
  void drain_pending(DeviceRecord& rec, std::uint32_t device_id, const RxMeta& meta);

  sim::Scheduler& scheduler_;
  sim::Medium& medium_;
  ReceiverConfig config_;
  sim::NodeId node_id_;
  Codec codec_;
  Reassembler reassembler_;
  MessageCallback callback_;
  ReceiverStats stats_;
  util::FlatTable<DeviceRecord> registry_;
  std::size_t device_count_ = 0;  // records with registered()
  std::uint64_t cross_recovered_ = 0;  // recovery-beacon decodes (not parity)
};

}  // namespace wile::core
