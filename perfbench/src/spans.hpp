// In-memory span recorder for the traced benchmark run.
//
// The benchmark opens a span around each of its own calls into a layer
// (Scenario::build/run_until, Receiver::on_frame, the IngestTable calls,
// ForwardedBatch::append/finish, rules::Engine::on_reading). Spans nest:
// a span opened while another is open is its child, and every span of
// one message or simulation step carries that step's group id.
//
// Per-name totals (count, duration, self time) are folded in as each
// span closes, so they cover every span however long the run. The span
// records themselves are kept up to a fixed cap and written out when the
// run ends as Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// Self time is a span's duration minus the part of it its children
// cover. Children of one parent run one after another on one thread, so
// that part is the sum of their durations.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint8_t {
  Build,     // wile/scenario: ScenarioBuilder::build
  RunUntil,  // wile/scenario: Scenario::run_until (one step)
  OnFrame,   // wile/receiver: Receiver::on_frame
  Ingest,    // wile/ingest: IngestTable state/note_uplink/should_report
  Batch,     // wile/gateway: ForwardedBatch append/finish
  Rules,     // wile/rules: Engine::on_reading
};
constexpr std::size_t kSpanNames = 6;

const char* span_name(SpanName n);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID), in ns. The
/// end-to-end timings of the single-threaded workloads use this clock:
/// it advances only while the thread runs, so time the host takes the
/// vCPU away for other tenants is not charged to the program (on a
/// shared 4-vCPU VM that time made wall-clock step tails swing 2x from
/// run to run). It costs a system call (~0.3 µs), so it is read per
/// step or batch, not per frame.
inline std::int64_t cpu_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

class SpanLog {
 public:
  struct Span {
    SpanName name{};
    std::int32_t parent = -1;  // index into spans(), -1 = root or not kept
    std::uint64_t group = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  static constexpr std::size_t kDefaultKeep = 200'000;

  explicit SpanLog(std::size_t keep = kDefaultKeep) : keep_(keep) {}

  /// Open a span at `t_ns`; it becomes the child of the innermost open
  /// span.
  void open(SpanName name, std::uint64_t group, std::int64_t t_ns) {
    std::int32_t kept = -1;
    if (spans_.size() < keep_) {
      kept = static_cast<std::int32_t>(spans_.size());
      spans_.push_back({name, stack_.empty() ? -1 : stack_.back().kept, group, t_ns, 0});
    }
    stack_.push_back({name, t_ns, 0, kept});
  }

  /// Close the innermost open span at `t_ns`.
  void close(std::int64_t t_ns) {
    const Open top = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = t_ns - top.start_ns;
    Totals& t = totals_[static_cast<std::size_t>(top.name)];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - top.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (top.kept >= 0) spans_[static_cast<std::size_t>(top.kept)].end_ns = t_ns;
  }

  [[nodiscard]] const Totals& totals(SpanName n) const {
    return totals_[static_cast<std::size_t>(n)];
  }
  [[nodiscard]] double self_s(SpanName n) const { return totals(n).self_ns * 1e-9; }
  [[nodiscard]] double total_s(SpanName n) const { return totals(n).total_ns * 1e-9; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::size_t open_spans() const { return stack_.size(); }

  /// Kept spans as Chrome trace-event JSON (the comma-joined events).
  [[nodiscard]] std::string chrome_events() const;

 private:
  struct Open {
    SpanName name;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int32_t kept;
  };

  std::size_t keep_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::array<Totals, kSpanNames> totals_{};
};

/// RAII span on a log that may be null (untraced runs pass null).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanName name, std::uint64_t group) : log_(log) {
    if (log_ != nullptr) log_->open(name, group, now_ns());
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

/// Write `events` (a chrome_events() result) as a trace file. Returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path, const std::string& events);

}  // namespace perfbench
