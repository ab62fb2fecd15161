#ifndef FRESQUE_QUERY_CONTEXT_H_
#define FRESQUE_QUERY_CONTEXT_H_

#include <cstdint>

#include "common/clock.h"
#include "common/status.h"

namespace fresque {
namespace query {

/// Per-query execution context threaded through the scan: an absolute
/// deadline (SystemClock nanoseconds, 0 = none). Scans call Check()
/// between batches and abort with DeadlineExceeded, so a query past its
/// deadline stops within one batch, never a full store scan.
struct QueryContext {
  int64_t deadline_ns = 0;  ///< absolute, SystemClock epoch; 0 = none

  /// Reads the clock only when a deadline is set.
  Status Check() const {
    if (deadline_ns != 0 &&
        SystemClock::Global()->NowNanos() >= deadline_ns) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }
};

}  // namespace query
}  // namespace fresque

#endif  // FRESQUE_QUERY_CONTEXT_H_
