#ifndef FRESQUE_OBS_SAMPLER_H_
#define FRESQUE_OBS_SAMPLER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/quantiles.h"

namespace fresque {
namespace obs {

/// Process-wide end-to-end latency sketch fed by NoteE2eSample below and
/// drained by the ObsSampler thread into `pipeline.e2e_p*` gauges.
StreamingQuantiles* GlobalE2eSketch();

/// Enables/disables e2e sampling. While inactive (the default — i.e. no
/// observability server running) NoteE2eSample costs one relaxed load and
/// a branch.
void SetE2eSamplingActive(bool active);
bool E2eSamplingActive();

/// Sets the end-to-end latency SLO target; 0 (default) disables SLO
/// accounting. Violations are counted by NoteE2eSample into
/// `slo.e2e_violations` regardless of whether sampling is active.
void SetSloE2eTargetNs(int64_t target_ns);
int64_t SloE2eTargetNs();

/// Hot-path hook called once per record that completes the pipeline (see
/// CloudNode::Handle). Stamps ingest freshness, counts SLO burn when a
/// target is set, and feeds the quantile sketch when sampling is active.
/// The two-argument form takes the caller's already-read clock (the e2e
/// site just computed `now - born`), keeping the dormant cost to three
/// relaxed atomic ops with no clock read.
void NoteE2eSample(int64_t e2e_ns, int64_t now_ns);
void NoteE2eSample(int64_t e2e_ns);

/// Batch form for a run of records that completed together at `now_ns`:
/// `n` non-negative e2e latencies, each still one sample for the SLO
/// counters and the sketch (StreamingQuantiles::InsertMany).
void NoteE2eSamples(const uint64_t* e2e_ns, size_t n, int64_t now_ns);

/// Monotonic nanos of the most recent e2e sample, 0 if none yet. Basis
/// for the `ingest.lag_ms` freshness gauge.
int64_t LastE2eSampleNanos();

/// Test hook: resets sketch, sampling flag, SLO target, and freshness
/// stamp.
void ResetE2eStateForTest();

/// Background sampler thread (DESIGN.md §16): every `interval_ms` it
/// folds the e2e quantile sketch into `pipeline.e2e_p50/p95/p99_ns`
/// gauges and refreshes `ingest.lag_ms` and `slo.e2e_target_ms`.
/// This moves all percentile math off the scrape path: `GET /metrics`
/// just reads gauges, so scrape cost is O(metrics), not O(samples).
class ObsSampler {
 public:
  explicit ObsSampler(uint64_t interval_ms = 1000);
  ~ObsSampler();

  ObsSampler(const ObsSampler&) = delete;
  ObsSampler& operator=(const ObsSampler&) = delete;

  void Start();
  void Stop();

  /// One synchronous fold pass (also used by tests and by Stop() so the
  /// final state is always exported).
  void FoldOnce();

  uint64_t folds() const { return folds_.load(std::memory_order_relaxed); }

 private:
  void Loop();

  const uint64_t interval_ms_;
  std::atomic<uint64_t> folds_{0};

  Mutex mu_;
  CondVar cv_;
  bool stop_ FRESQUE_GUARDED_BY(mu_) = false;
  bool running_ FRESQUE_GUARDED_BY(mu_) = false;
  // fresque-lint: allow(guarded-by) written only by Start()/Stop(), serialized by the running_ handshake; joined outside mu_ because Loop needs mu_ to observe stop_
  std::thread thread_;
};

}  // namespace obs
}  // namespace fresque

#endif  // FRESQUE_OBS_SAMPLER_H_
