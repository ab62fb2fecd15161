#include "shard/router.h"

#include <utility>

namespace fresque {
namespace shard {

ShardRouter::ShardRouter(ShardPlacement placement,
                         std::shared_ptr<const record::LineParser> parser)
    : placement_(std::move(placement)),
      parser_(std::move(parser)),
      per_shard_(new std::atomic<uint64_t>[placement_.num_shards()]) {
  for (size_t i = 0; i < placement_.num_shards(); ++i) per_shard_[i] = 0;
}

RouterMetrics ShardRouter::Metrics() const {
  RouterMetrics m;
  m.extract_fallbacks = extract_fallbacks_.load(std::memory_order_relaxed);
  m.per_shard.reserve(placement_.num_shards());
  for (size_t i = 0; i < placement_.num_shards(); ++i) {
    m.per_shard.push_back(per_shard_[i].load(std::memory_order_relaxed));
    m.routed += m.per_shard.back();
  }
  return m;
}

}  // namespace shard
}  // namespace fresque
