#ifndef FRESQUE_SRC_TELEMETRY_TRACE_H_
#define FRESQUE_SRC_TELEMETRY_TRACE_H_

#include <chrono>
#include <cstdint>

namespace fresque {
namespace telemetry {

/// Monotonic clock for stage timings and pipeline latency stamps.
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace telemetry
}  // namespace fresque

#endif  // FRESQUE_SRC_TELEMETRY_TRACE_H_
