#include "shard/sharded_cloud.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace fresque {
namespace shard {

namespace {

void Append(std::vector<query::ResultRecord>* into,
            std::vector<query::ResultRecord>&& from) {
  into->insert(into->end(), std::make_move_iterator(from.begin()),
               std::make_move_iterator(from.end()));
}

}  // namespace

ShardedCloudServer::ShardedCloudServer(ShardPlacement placement,
                                       const Clock* clock)
    : placement_(std::move(placement)) {
  shards_.reserve(placement_.num_shards());
  for (size_t i = 0; i < placement_.num_shards(); ++i) {
    shards_.push_back(std::make_unique<cloud::CloudServer>(
        placement_.ShardBinning(i), clock));
  }
}

Status ShardedCloudServer::AdoptShard(
    size_t i, std::unique_ptr<cloud::CloudServer> server) {
  if (i >= shards_.size()) {
    return Status::InvalidArgument("shard index " + std::to_string(i) +
                                   " out of range");
  }
  if (server == nullptr) {
    return Status::InvalidArgument("cannot adopt a null shard server");
  }
  const auto want = placement_.ShardBinning(i);
  const auto& got = server->binning();
  if (got.domain_min() != want.domain_min() ||
      got.domain_max() != want.domain_max() ||
      got.bin_width() != want.bin_width()) {
    return Status::InvalidArgument(
        "recovered shard " + std::to_string(i) +
        " binning does not match the placement's slice — wrong directory or"
        " shard count changed between runs");
  }
  shards_[i] = std::move(server);
  return Status::OK();
}

Result<query::QueryResult> ShardedCloudServer::ExecuteQuery(
    const index::RangeQuery& q, FanoutStats* stats,
    const query::QueryContext& ctx) const {
  query::QueryResult merged;
  FanoutStats local;
  const std::vector<size_t> targets = placement_.ShardsForQuery(q);
  local.shards_pruned = shards_.size() - targets.size();
  for (size_t i : targets) {
    // Pin the epoch before the scan: the scan itself pins a view >= this
    // epoch, so reporting the pre-scan epoch never overstates freshness.
    ShardQueryStats s;
    s.shard = i;
    s.view_epoch = shards_[i]->view_epoch();
    auto part = shards_[i]->ExecuteQuery(q, ctx);
    if (!part.ok()) return part.status();
    s.indexed_records = part->indexed_records.size();
    s.overflow_records = part->overflow_records.size();
    s.unindexed_records = part->unindexed_records.size();
    Append(&merged.indexed_records, std::move(part->indexed_records));
    Append(&merged.overflow_records, std::move(part->overflow_records));
    Append(&merged.unindexed_records, std::move(part->unindexed_records));
    local.probed.push_back(s);
  }
  if (stats != nullptr) *stats = std::move(local);
  return merged;
}

int64_t ShardedCloudServer::ApproximateCount(
    const index::RangeQuery& q) const {
  int64_t total = 0;
  for (size_t i : placement_.ShardsForQuery(q)) {
    total += shards_[i]->ApproximateCount(q);
  }
  return total;
}

size_t ShardedCloudServer::total_records() const {
  size_t n = 0;
  for (const auto& s : shards_) n += s->total_records();
  return n;
}

size_t ShardedCloudServer::total_bytes() const {
  size_t n = 0;
  for (const auto& s : shards_) n += s->total_bytes();
  return n;
}

size_t ShardedCloudServer::num_publications() const {
  size_t n = 0;
  for (const auto& s : shards_) n = std::max(n, s->num_publications());
  return n;
}

}  // namespace shard
}  // namespace fresque
