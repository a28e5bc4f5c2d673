// Piecewise-constant current-draw timeline.
//
// The firmware models (STA, AP, Wi-LE sender, BLE slave) report every
// current change with a phase label ("MC/WiFi init", "Probe/Auth./
// Associate", ...). Energy is the integral of current x supply voltage;
// the TraceRecorder samples the same timeline the way the paper's
// Keysight 34465A samples the real board (§5.1, Figure 2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace wile::power {

/// Phase annotation for Figure 3-style plots: a pointer to a string
/// literal. The constructor is consteval and takes a character array,
/// so only compile-time text (a literal or a constexpr array) can
/// become a label; the pointee then lives for the whole program and a
/// segment stores 8 bytes instead of a std::string. Labels compare by
/// content, so equal text from different translation units is the same
/// phase.
class PhaseLabel {
 public:
  template <std::size_t N>
  consteval PhaseLabel(const char (&text)[N])  // NOLINT(google-explicit-constructor)
      : text_(text) {}

  [[nodiscard]] std::string_view view() const { return text_; }

  friend bool operator==(PhaseLabel a, PhaseLabel b) {
    return a.text_ == b.text_ || std::strcmp(a.text_, b.text_) == 0;
  }

 private:
  const char* text_;
};

struct Segment {
  TimePoint start;
  Amps current;
  PhaseLabel phase;
};
static_assert(sizeof(Segment) == 24, "a timeline segment is start, current and a label pointer");

class PowerTimeline {
 public:
  explicit PowerTimeline(Volts supply) : supply_(supply) {}

  [[nodiscard]] Volts supply() const { return supply_; }

  /// Report that from `t` onward the device draws `current`. `t` must be
  /// monotonically non-decreasing across calls. Consecutive identical
  /// currents are merged (the phase label of the first is kept).
  void set_current(TimePoint t, Amps current, PhaseLabel phase);

  /// Bound the retained segment history (0 = unbounded, the default).
  /// When the bound is exceeded, the oldest half of the history is
  /// folded into an accumulated energy baseline and discarded. Totals
  /// stay exact: an energy_between query that starts at or before the
  /// retained horizon includes the folded baseline (i.e. it reports the
  /// integral from simulation start). Queries that begin strictly
  /// inside the discarded span cannot be answered segment-accurately
  /// any more; fleet-scale simulations that only need per-cycle and
  /// lifetime totals set this to a small multiple of the segments one
  /// duty cycle produces (see bench/scale_fleet). The history's capacity
  /// grows geometrically but never past `max_segments + 1`.
  void set_max_segments(std::size_t max_segments) { max_segments_ = max_segments; }

  /// Time before which segment history has been folded away.
  [[nodiscard]] TimePoint retained_since() const { return retained_since_; }

  [[nodiscard]] Amps current_at(TimePoint t) const;

  /// Integrated energy over [from, to). The final segment extends to
  /// infinity (the device keeps drawing its last reported current).
  [[nodiscard]] Joules energy_between(TimePoint from, TimePoint to) const;

  /// Mean power over [from, to).
  [[nodiscard]] Watts average_power(TimePoint from, TimePoint to) const;

  [[nodiscard]] const std::vector<Segment>& segments() const { return segments_; }

  /// First time at or after `from` where the phase label equals `phase`;
  /// returns false if never. Used by benches to locate e.g. the TX spike.
  bool find_phase(std::string_view phase, TimePoint from, TimePoint* start,
                  TimePoint* end) const;

 private:
  void fold_history();

  Volts supply_;
  std::vector<Segment> segments_;
  std::size_t max_segments_ = 0;
  TimePoint retained_since_{};  // history before this is baseline-only
  Joules baseline_energy_{};    // integral over [0, retained_since_)
};

/// Equation (1) of the paper: average power for a duty-cycled device
/// that spends Ttx at Ptx each interval INT and idles at Pidle otherwise.
Watts duty_cycle_average_power(Watts p_tx, Duration t_tx, Watts p_idle, Duration interval);

}  // namespace wile::power
