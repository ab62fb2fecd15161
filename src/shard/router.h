#ifndef FRESQUE_SHARD_ROUTER_H_
#define FRESQUE_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/hot.h"
#include "record/parser.h"
#include "shard/partition.h"

namespace fresque {
namespace shard {

/// Placement decisions and counters of a ShardRouter.
struct RouterMetrics {
  /// Sum of per_shard: every routed line lands on exactly one shard.
  uint64_t routed = 0;
  /// Lines whose indexed attribute could not be extracted cheaply; placed
  /// by byte hash instead (the owning shard's parse is authoritative).
  uint64_t extract_fallbacks = 0;
  std::vector<uint64_t> per_shard;
};

/// Maps raw lines to collector shards on the ingest hot path.
///
/// The router deliberately does *not* parse: it asks the workload's
/// parser for the cheap LineParser::IndexedValue extraction (a substring
/// scan) and feeds the value through the O(1) ShardPlacement, keeping the
/// FRESQUE property that full parsing happens on the shards' computing
/// nodes, where it scales with cores. Stateless apart from relaxed
/// counters, so Route is safe from any thread (the sharded pipeline calls
/// it from its single ingress thread).
class ShardRouter {
 public:
  ShardRouter(ShardPlacement placement,
              std::shared_ptr<const record::LineParser> parser);

  struct Decision {
    size_t shard = 0;
    /// False when the indexed attribute failed to extract and the line
    /// was placed by FallbackShard.
    bool extracted = true;
  };

  FRESQUE_HOT Decision Route(std::string_view line) {
    Decision d;
    auto v = parser_->IndexedValue(line);
    if (v.ok()) {
      d.shard = placement_.ShardOf(*v);
    } else {
      d.shard = placement_.FallbackShard(line);
      d.extracted = false;
      extract_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    }
    per_shard_[d.shard].fetch_add(1, std::memory_order_relaxed);
    return d;
  }

  const ShardPlacement& placement() const { return placement_; }

  RouterMetrics Metrics() const;

 private:
  ShardPlacement placement_;
  std::shared_ptr<const record::LineParser> parser_;
  std::atomic<uint64_t> extract_fallbacks_{0};
  /// Fixed-size at construction; the atomics themselves are the only
  /// mutable state.
  std::unique_ptr<std::atomic<uint64_t>[]> per_shard_;
};

}  // namespace shard
}  // namespace fresque

#endif  // FRESQUE_SHARD_ROUTER_H_
