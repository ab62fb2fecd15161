#ifndef FRESQUE_OBS_QUANTILES_H_
#define FRESQUE_OBS_QUANTILES_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace fresque {
namespace obs {

/// Concurrent streaming quantile sketch (DESIGN.md §16), in the spirit of
/// Quancurrent (arXiv:2208.09265): writers insert into striped ingestion
/// buffers, full buffers are folded into a shared KLL-style compactor
/// hierarchy, and quantile queries run against the merged summary — no
/// stop-the-world snapshot, no global lock on the insert path.
///
/// Concurrency contract:
///  - Insert()/InsertMany() are safe from any number of threads. The fast
///    path takes only the calling thread's stripe lock (chosen by thread
///    id, so concurrent writers land on different stripes and never contend);
///    once per `kBufferLen` inserts the filling writer copies the full
///    buffer to its stack, releases the stripe lock, and merges into the
///    compactor hierarchy under the sketch lock. No lock is ever held
///    while acquiring another, so the sketch adds no lock-order edges.
///  - Query()/QueryMany() are safe from any thread, intended for the
///    low-rate sampler/scrape path (they allocate; Insert never does
///    after construction).
///
/// Accuracy: standard KLL guarantees — a level-i survivor represents 2^i
/// samples, compaction keeps alternating elements from a random offset,
/// so rank error is unbiased with standard deviation O(sqrt(levels)/k).
/// With the default k=256 the p50/p95/p99 estimates land well within a
/// percent of true rank for millions of samples, which is far below the
/// log2-histogram's factor-of-2 bucket resolution.
class StreamingQuantiles {
 public:
  static constexpr size_t kStripes = 8;
  static constexpr size_t kBufferLen = 256;
  static constexpr size_t kLevelCapacity = 256;
  static constexpr size_t kMaxLevels = 28;

  StreamingQuantiles();

  StreamingQuantiles(const StreamingQuantiles&) = delete;
  StreamingQuantiles& operator=(const StreamingQuantiles&) = delete;

  /// Inserts one sample. Lock-free with respect to other stripes; the
  /// once-per-buffer fold is amortized O(log) and allocation-free.
  void Insert(uint64_t v) { InsertMany(&v, 1); }

  /// Inserts `n` samples, each one sample of weight 1 as if inserted
  /// alone, taking the stripe lock once per buffer's worth instead of
  /// once per sample.
  void InsertMany(const uint64_t* values, size_t n);

  /// Estimated value at quantile `q` in [0, 1]. Returns 0 on an empty
  /// sketch.
  uint64_t Query(double q) const;

  /// One merged pass answering several quantiles (cheaper than repeated
  /// Query calls). `qs` must be ascending.
  std::vector<uint64_t> QueryMany(const std::vector<double>& qs) const;

  /// Samples ever inserted (exact, atomic).
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }

  /// Total weight currently represented by the summary (buffered samples
  /// at weight 1 plus level-i survivors at weight 2^i). Compaction
  /// conserves weight exactly — an odd element is left behind rather than
  /// rounded — so this always equals Count(). Exposed for tests.
  uint64_t TotalWeight() const;

  /// Discards all samples (test isolation; racing writers may leak a few
  /// samples into the fresh state, same caveat as Registry::ResetForTest).
  void ResetForTest();

 private:
  struct Stripe {
    Mutex mu;
    std::array<uint64_t, kBufferLen> buf FRESQUE_GUARDED_BY(mu){};
    size_t n FRESQUE_GUARDED_BY(mu) = 0;
  };

  /// Folds `n` sorted samples into the compactor hierarchy.
  void Merge(const uint64_t* samples, size_t n) FRESQUE_EXCLUDES(mu_);
  /// Collects the whole summary as (value, weight) pairs.
  void Collect(std::vector<std::pair<uint64_t, uint64_t>>* out) const
      FRESQUE_EXCLUDES(mu_);

  mutable std::array<Stripe, kStripes> stripes_;
  std::atomic<uint64_t> count_{0};

  mutable Mutex mu_;
  /// levels_[i] holds survivors of weight 2^i, sorted; capacity reserved
  /// up front (kLevelCapacity + kLevelCapacity/2 + kBufferLen headroom)
  /// so the merge path never reallocates.
  std::vector<std::vector<uint64_t>> levels_ FRESQUE_GUARDED_BY(mu_);
  /// xorshift state for the unbiased compaction offset.
  uint64_t rng_ FRESQUE_GUARDED_BY(mu_) = 0x9e3779b97f4a7c15ull;
};

}  // namespace obs
}  // namespace fresque

#endif  // FRESQUE_OBS_QUANTILES_H_
