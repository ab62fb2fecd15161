#ifndef FRESQUE_SRC_TELEMETRY_METRICS_H_
#define FRESQUE_SRC_TELEMETRY_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace fresque {
namespace telemetry {

/// Process-wide metrics registry (DESIGN.md §11).
///
/// Hot-path writes (Counter::Add, Gauge::Set, Histogram::Record) are
/// single relaxed atomic RMWs — no locks, no allocation — so they are
/// safe to leave in the ingest path. Registration (Registry::Get*) takes
/// a mutex and allocates; call sites amortize it behind a function-local
/// static (see FRESQUE_COUNTER_ADD in telemetry/telemetry.h).
///
/// Reads are snapshot-on-demand: Registry::Snapshot() walks every metric
/// with relaxed loads. Counters read at different instants may be
/// mutually inconsistent by a few in-flight events — same convention as
/// engine::CollectorMetrics.

/// Monotonic event counter.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, high watermark...).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log2-bucketed histogram over uint64 samples (typically nanoseconds).
///
/// Bucket b holds the samples whose bit width is b, i.e. the value range
/// [2^(b-1), 2^b - 1]; bucket 0 holds only zeros. 65 buckets cover the
/// whole uint64 range, so Record() is branch-free: one bit-scan plus two
/// relaxed fetch_adds. Roughly 2x resolution per bucket — enough to
/// separate a 10 us queue wait from a 10 ms fsync stall, which is the
/// question this repo's latency histograms exist to answer.
class Histogram {
 public:
  static constexpr size_t kBucketCount = 65;

  void Record(uint64_t v) {
    buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  /// Convenience for elapsed-time deltas: clamps negatives to 0.
  void RecordNanos(int64_t ns) {
    Record(ns > 0 ? static_cast<uint64_t>(ns) : 0);
  }
  /// Same buckets and sum as `n` Record calls, with one fetch_add per
  /// touched bucket and one for the sum instead of two per sample.
  void RecordMany(const uint64_t* values, size_t n);

  static size_t BucketIndex(uint64_t v) {
    return static_cast<size_t>(std::bit_width(v));
  }
  /// Largest value stored in bucket `b` (inclusive).
  static uint64_t BucketUpperBound(size_t b) {
    return b >= 64 ? UINT64_MAX : (uint64_t{1} << b) - 1;
  }
  /// Smallest value stored in bucket `b` (bucket 0 holds only zeros,
  /// bucket 1 only ones).
  static uint64_t BucketLowerBound(size_t b) {
    return b == 0 ? 0 : uint64_t{1} << (b - 1);
  }

  uint64_t BucketValue(size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  uint64_t Count() const;
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  void ResetForTest();

 private:
  std::array<std::atomic<uint64_t>, kBucketCount> buckets_{};
  std::atomic<uint64_t> sum_{0};
};

/// Point-in-time copy of one histogram.
struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  std::array<uint64_t, Histogram::kBucketCount> buckets{};
};

/// Point-in-time copy of the whole registry. Plain values, no locking.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;
};

/// Name -> metric map. Pointers returned by Get* are stable for the
/// process lifetime; the registry never deletes a metric.
class Registry {
 public:
  /// Process-wide instance (leaked singleton, trivially destructible at
  /// exit per style rules).
  static Registry* Global();

  Counter* GetCounter(const std::string& name) FRESQUE_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name) FRESQUE_EXCLUDES(mu_);
  Histogram* GetHistogram(const std::string& name) FRESQUE_EXCLUDES(mu_);

  MetricsSnapshot Snapshot() const FRESQUE_EXCLUDES(mu_);

  /// Zeroes every registered metric (registrations and pointers survive).
  /// Test isolation only — racing writers see no torn state, but counts
  /// spanning the reset are meaningless.
  void ResetForTest() FRESQUE_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      FRESQUE_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      FRESQUE_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      FRESQUE_GUARDED_BY(mu_);
};

/// Prometheus text exposition format (one # TYPE line per metric,
/// histograms as cumulative _bucket{le=...}/_sum/_count series). Metric
/// names are sanitized ("ingest.records_in" -> fresque_ingest_records_in).
std::string ToPrometheusText(const MetricsSnapshot& snap);

/// Writes ToPrometheusText(snap), the text `/metrics` serves, to `path`
/// atomically (tmp + rename).
Status WriteMetricsFile(const MetricsSnapshot& snap, const std::string& path);

}  // namespace telemetry
}  // namespace fresque

#endif  // FRESQUE_SRC_TELEMETRY_METRICS_H_
