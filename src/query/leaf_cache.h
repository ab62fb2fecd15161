#ifndef FRESQUE_QUERY_LEAF_CACHE_H_
#define FRESQUE_QUERY_LEAF_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace fresque {
namespace query {

/// What a scan needs to know about one index leaf before touching any
/// record bytes: its value interval, its noisy count, and how much real
/// work (postings, used overflow slots) the leaf holds. Building one
/// walks the publication's index and posting directory; serving one from
/// cache is a hash probe.
struct LeafDescriptor {
  double lo = 0;
  double hi = 0;
  int64_t noisy_count = 0;
  uint32_t postings = 0;        ///< records reachable through the leaf
  uint32_t overflow_used = 0;   ///< non-empty overflow slots
};

/// Bounded LRU cache of leaf descriptors keyed by (publication, leaf).
///
/// Range queries are Zipf-skewed in practice — the same hot leaves are
/// traversed by most queries — so the descriptors that size result
/// buffers and prune empty leaves are worth keeping hot. The cache is a
/// single mutex-protected LRU: it sits on the per-*leaf* path (a few
/// entries per query), not the per-record path, so a probe's critical
/// section is a hash lookup and a list splice. Hits, misses, and
/// evictions are counted here and exported as `query.leaf_cache.*`.
class LeafCache {
 public:
  explicit LeafCache(size_t capacity = 4096);

  /// Returns the descriptor for (pn, leaf), invoking `build` and caching
  /// its result on miss. `build` runs outside the cache lock.
  LeafDescriptor GetOrBuild(uint64_t pn, uint32_t leaf,
                            const std::function<LeafDescriptor()>& build)
      FRESQUE_EXCLUDES(mu_);

  /// Drops every cached descriptor of publication `pn` (used when a
  /// publication is retired from the view).
  void Invalidate(uint64_t pn) FRESQUE_EXCLUDES(mu_);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t size = 0;
    size_t capacity = 0;

    double HitRatio() const {
      uint64_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    }
  };
  Stats stats() const FRESQUE_EXCLUDES(mu_);

  size_t capacity() const { return capacity_; }

 private:
  using Key = std::pair<uint64_t, uint32_t>;
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = k.first * 0x9e3779b97f4a7c15ULL + k.second;
      h ^= h >> 29;
      return static_cast<size_t>(h);
    }
  };
  struct Entry {
    LeafDescriptor descriptor;
    std::list<Key>::iterator lru_pos;
  };

  size_t capacity_;
  mutable Mutex mu_;
  std::unordered_map<Key, Entry, KeyHash> map_ FRESQUE_GUARDED_BY(mu_);
  std::list<Key> lru_ FRESQUE_GUARDED_BY(mu_);  ///< front = most recent
  uint64_t hits_ FRESQUE_GUARDED_BY(mu_) = 0;
  uint64_t misses_ FRESQUE_GUARDED_BY(mu_) = 0;
  uint64_t evictions_ FRESQUE_GUARDED_BY(mu_) = 0;
};

}  // namespace query
}  // namespace fresque

#endif  // FRESQUE_QUERY_LEAF_CACHE_H_
