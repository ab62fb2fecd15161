#ifndef FRESQUE_BENCH_FRESQUE_BENCH_TRACED_H_
#define FRESQUE_BENCH_FRESQUE_BENCH_TRACED_H_

#include <vector>

#include "harness.h"
#include "live.h"

namespace fresque {
namespace fbench {

/// The per-layer metrics of a workload. Replays its first 10 publication
/// intervals on one thread, sending the workload's own lines and config
/// through each module's public calls in pipeline order and timing every
/// call; then derives the single-thread baseline, the simulator's
/// prediction from those costs, and joins the live counters of `live`
/// (an untraced run in the same process). Returns an empty vector and
/// prints the error if a replayed call fails.
std::vector<Metric> RunTraced(const Workload& w, const Options& o,
                              const LinePool& pool, const LiveResult& live);

}  // namespace fbench
}  // namespace fresque

#endif  // FRESQUE_BENCH_FRESQUE_BENCH_TRACED_H_
