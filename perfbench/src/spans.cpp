#include "spans.hpp"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::Build: return "scenario.build";
    case SpanName::RunUntil: return "scenario.run_until";
    case SpanName::OnFrame: return "receiver.on_frame";
    case SpanName::Ingest: return "ingest";
    case SpanName::Batch: return "batch";
    case SpanName::Rules: return "rules.on_reading";
  }
  return "?";
}

std::string SpanLog::chrome_events() const {
  std::string out;
  char line[256];
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) continue;  // still open when the run ended
    std::snprintf(line, sizeof(line),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%" PRId32
                  ",\"group\":%" PRIu64 "}}",
                  out.empty() ? "" : ",\n", span_name(s.name),
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent, s.group);
    out += line;
  }
  return out;
}

bool write_chrome_trace(const std::string& path, const std::string& events) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  std::fputs(events.c_str(), f);
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
