#ifndef FRESQUE_BENCH_FRESQUE_BENCH_LIVE_H_
#define FRESQUE_BENCH_FRESQUE_BENCH_LIVE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace fresque {
namespace fbench {

/// Outcome of one untraced run of a workload through the threaded
/// ShardedPipeline: the end-to-end metrics, the live counters read once
/// after Shutdown, and the correctness checks.
struct LiveResult {
  /// Names of the correctness checks that failed; empty when all passed.
  std::vector<std::string> failed_checks;

  uint64_t offered = 0;
  uint64_t publications = 0;
  uint64_t queries = 0;
  /// Failed or timed-out publication waits plus failed queries.
  uint64_t failed_ops = 0;

  double ingest_rps = 0;
  double setup_s = 0;
  double e2e_p50_ms = 0;
  double e2e_p99_ms = 0;
  /// Median time from Publish() until WaitForPublication returned OK.
  double publish_p50_ms = 0;
  /// Latency of the queries sent beside ingest, from their scheduled send.
  double query_p50_ms = 0;
  double query_p99_ms = 0;
  /// Wall time of RecoverShardedCloud; durable workloads only.
  double recovery_s = 0;

  /// Router placements per shard.
  std::vector<uint64_t> routed;
  /// Largest queue depth / capacity seen at each stage's inbox, max over
  /// shards (and over the computing nodes of a shard).
  double hwm_ingress = 0;
  double hwm_computing = 0;
  double hwm_checking = 0;
  double hwm_merger = 0;
  /// Largest delay behind the send schedule: open loop, Ingest time minus
  /// due time; closed loop, the longest gap between consecutive Ingest
  /// calls (a back-pressure stall).
  double lag_max_ms = 0;
};

LiveResult RunLive(const Workload& w, const Options& o, const LinePool& pool);

}  // namespace fbench
}  // namespace fresque

#endif  // FRESQUE_BENCH_FRESQUE_BENCH_LIVE_H_
