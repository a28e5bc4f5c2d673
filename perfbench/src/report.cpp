#include "report.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::string to_json(const RunResult& r) {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                r.correct ? "true" : "false", r.attempted, r.failed);
  out += buf;
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    // JSON has no NaN/Inf; a non-finite reading is reported as null so
    // the consumer rejects it instead of parsing a made-up number.
    if (std::isfinite(m.value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
