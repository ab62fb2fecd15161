#ifndef FRESQUE_SHARD_SHARDED_CLOUD_H_
#define FRESQUE_SHARD_SHARDED_CLOUD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cloud/server.h"
#include "common/clock.h"
#include "common/result.h"
#include "index/index.h"
#include "query/context.h"
#include "query/result.h"
#include "shard/partition.h"

namespace fresque {
namespace shard {

/// What one shard contributed to a fanned-out query.
struct ShardQueryStats {
  size_t shard = 0;
  /// View epoch the shard's scan was pinned against — the cross-shard
  /// consistency witness /statusz and tests report alongside results.
  uint64_t view_epoch = 0;
  size_t indexed_records = 0;
  size_t overflow_records = 0;
  size_t unindexed_records = 0;

  size_t Total() const {
    return indexed_records + overflow_records + unindexed_records;
  }
};

/// Exact accounting of one cross-shard fan-out: which shards were probed
/// (their per-shard counts must sum to the merged result — the
/// conservation ledger) and how many the placement pruned.
struct FanoutStats {
  std::vector<ShardQueryStats> probed;
  size_t shards_pruned = 0;

  size_t TotalRecords() const {
    size_t n = 0;
    for (const auto& s : probed) n += s.Total();
    return n;
  }
};

/// Cloud side of the sharded deployment: N independent CloudServer stores
/// (one per collector pipeline, each with its slice's binning) behind one
/// query facade that fans a range query out to the shards whose key-range
/// intersects it and merges the ciphertext results.
///
/// Merging is pure concatenation with per-shard accounting: result
/// records already carry their publication number, all shards share one
/// KeyManager and publish at the same barriers, so the client's existing
/// Decrypt path works on a merged result unchanged.
///
/// Thread-safety: the shard servers are internally synchronized and the
/// facade holds no mutable state, so any number of threads may query
/// while the ingest pipelines install publications.
class ShardedCloudServer {
 public:
  /// Builds a fresh (empty) server per shard.
  explicit ShardedCloudServer(ShardPlacement placement,
                              const Clock* clock = SystemClock::Global(),
                              size_t leaf_cache_capacity = 4096);

  ShardedCloudServer(const ShardedCloudServer&) = delete;
  ShardedCloudServer& operator=(const ShardedCloudServer&) = delete;

  size_t num_shards() const { return shards_.size(); }
  const ShardPlacement& placement() const { return placement_; }

  /// Shard i's store; never null. Used by the per-shard CloudNodes and by
  /// tests that need the unsharded API.
  cloud::CloudServer* shard(size_t i) { return shards_[i].get(); }
  const cloud::CloudServer* shard(size_t i) const { return shards_[i].get(); }

  /// Replaces shard i's store with a recovered instance. The replacement
  /// must use the same binning the placement assigns to shard i. Only
  /// valid before any CloudNode holds the old pointer.
  Status AdoptShard(size_t i, std::unique_ptr<cloud::CloudServer> server);

  /// Fans `q` out to the intersecting shards and merges their results.
  /// `stats`, when non-null, receives the per-shard accounting.
  Result<query::QueryResult> ExecuteQuery(const index::RangeQuery& q,
                                          FanoutStats* stats = nullptr) const;

  /// Deadline/cancellation-aware fan-out: `ctx` is honored by every
  /// per-shard scan; the first non-OK shard status fails the whole query
  /// (partial merges are never returned).
  Result<query::QueryResult> ExecuteQuery(const index::RangeQuery& q,
                                          const query::QueryContext& ctx,
                                          FanoutStats* stats = nullptr) const;

  /// DP approximate COUNT(*): sum over the intersecting shards' noisy
  /// counts (each shard's index is an independent DP release, so the sum
  /// is still a valid DP estimate of the total).
  int64_t ApproximateCount(const index::RangeQuery& q) const;

  // Aggregates over all shards.
  size_t total_records() const;
  size_t total_bytes() const;
  /// Publications per shard are barrier-aligned; this returns the
  /// maximum any shard knows (shards can trail mid-install).
  size_t num_publications() const;

 private:
  template <typename ScanFn>
  Result<query::QueryResult> FanOut(const index::RangeQuery& q,
                                    FanoutStats* stats,
                                    const ScanFn& scan) const;

  ShardPlacement placement_;
  std::vector<std::unique_ptr<cloud::CloudServer>> shards_;
};

}  // namespace shard
}  // namespace fresque

#endif  // FRESQUE_SHARD_SHARDED_CLOUD_H_
