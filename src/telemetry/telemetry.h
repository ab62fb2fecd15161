#ifndef FRESQUE_TELEMETRY_TELEMETRY_H_
#define FRESQUE_TELEMETRY_TELEMETRY_H_

/// Instrumentation macros — the only telemetry API the pipeline code
/// uses directly. With the default build (FRESQUE_TELEMETRY=ON) they
/// expand to relaxed-atomic registry updates and RAII spans; configure
/// with -DFRESQUE_TELEMETRY=OFF and every macro compiles to nothing
/// (scripts/overhead_check.sh holds the ON build to <5% overhead against
/// this baseline).
///
///   FRESQUE_COUNTER_ADD("ingest.records_in", n);
///   FRESQUE_GAUGE_SET("node.cn0.queue_depth", depth);
///   FRESQUE_HISTOGRAM_RECORD("wal.fsync_ns", elapsed_ns);
///   FRESQUE_HISTOGRAM_RECORD_MANY("pipeline.record_e2e_ns", values, n);
///   FRESQUE_TRACE_SPAN("parse");          // RAII: spans the full scope
///   int64_t t0 = FRESQUE_TELEMETRY_NOW_NS();
///
/// Metric names must be string literals: the registry lookup is cached in
/// a function-local static, so each call site pays the mutex exactly once.

#ifndef FRESQUE_TELEMETRY_DISABLED

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

#define FRESQUE_TELEMETRY_ENABLED 1

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

#define FRESQUE_TELEMETRY_CONCAT_(a, b) a##b
#define FRESQUE_TELEMETRY_CONCAT(a, b) FRESQUE_TELEMETRY_CONCAT_(a, b)

/// Spans the enclosing scope; ~1 ns when tracing is not Enable()d.
#define FRESQUE_TRACE_SPAN(name)                            \
  ::fresque::telemetry::ScopedSpan FRESQUE_TELEMETRY_CONCAT( \
      fresque_span_, __LINE__)(name)

#define FRESQUE_TELEMETRY_NOW_NS() ::fresque::telemetry::NowNanos()

#else  // FRESQUE_TELEMETRY_DISABLED

#include <cstdint>

#define FRESQUE_TELEMETRY_ENABLED 0

// sizeof keeps the operands syntactically checked (and "uses" local
// variables, silencing -Wunused under -Werror) without evaluating them.
#define FRESQUE_COUNTER_ADD(name, delta) \
  do {                                   \
    (void)sizeof(name);                  \
    (void)sizeof(delta);                 \
  } while (0)

#define FRESQUE_GAUGE_SET(name, value) \
  do {                                 \
    (void)sizeof(name);                \
    (void)sizeof(value);               \
  } while (0)

#define FRESQUE_HISTOGRAM_RECORD(name, nanos) \
  do {                                        \
    (void)sizeof(name);                       \
    (void)sizeof(nanos);                      \
  } while (0)

#define FRESQUE_HISTOGRAM_RECORD_MANY(name, values, n) \
  do {                                                 \
    (void)sizeof(name);                                \
    (void)sizeof(values);                              \
    (void)sizeof(n);                                   \
  } while (0)

#define FRESQUE_TRACE_SPAN(name) ((void)sizeof(name))

#define FRESQUE_TELEMETRY_NOW_NS() int64_t{0}

#endif  // FRESQUE_TELEMETRY_DISABLED

#endif  // FRESQUE_TELEMETRY_TELEMETRY_H_
