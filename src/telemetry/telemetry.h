#ifndef FRESQUE_SRC_TELEMETRY_TELEMETRY_H_
#define FRESQUE_SRC_TELEMETRY_TELEMETRY_H_

/// Instrumentation macros — the only telemetry API the pipeline code
/// uses directly. Each expands to a relaxed-atomic registry update.
///
///   FRESQUE_COUNTER_ADD("ingest.records_in", n);
///   FRESQUE_GAUGE_SET("node.cn0.queue_depth", depth);
///   FRESQUE_HISTOGRAM_RECORD("wal.fsync_ns", elapsed_ns);
///   FRESQUE_HISTOGRAM_RECORD_MANY("pipeline.record_e2e_ns", values, n);
///
/// Metric names must be string literals: the registry lookup is cached in
/// a function-local static, so each call site pays the mutex exactly once.

#include "telemetry/metrics.h"

#define FRESQUE_COUNTER_ADD(name, delta)                                   \
  do {                                                                     \
    static ::fresque::telemetry::Counter* fresque_counter_ =               \
        ::fresque::telemetry::Registry::Global()->GetCounter(name);        \
    fresque_counter_->Add(static_cast<uint64_t>(delta));                   \
  } while (0)

#define FRESQUE_GAUGE_SET(name, value)                                     \
  do {                                                                     \
    static ::fresque::telemetry::Gauge* fresque_gauge_ =                   \
        ::fresque::telemetry::Registry::Global()->GetGauge(name);          \
    fresque_gauge_->Set(static_cast<int64_t>(value));                      \
  } while (0)

#define FRESQUE_HISTOGRAM_RECORD(name, nanos)                              \
  do {                                                                     \
    static ::fresque::telemetry::Histogram* fresque_histogram_ =           \
        ::fresque::telemetry::Registry::Global()->GetHistogram(name);      \
    fresque_histogram_->RecordNanos(static_cast<int64_t>(nanos));          \
  } while (0)

/// `n` uint64 samples at `values` in one call (Histogram::RecordMany).
#define FRESQUE_HISTOGRAM_RECORD_MANY(name, values, n)                     \
  do {                                                                     \
    static ::fresque::telemetry::Histogram* fresque_histogram_ =           \
        ::fresque::telemetry::Registry::Global()->GetHistogram(name);      \
    fresque_histogram_->RecordMany(values, n);                             \
  } while (0)

#endif  // FRESQUE_SRC_TELEMETRY_TELEMETRY_H_
