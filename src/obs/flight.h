#ifndef FRESQUE_OBS_FLIGHT_H_
#define FRESQUE_OBS_FLIGHT_H_

/// Flight-recorder instrumentation macro — the only obs API the pipeline
/// code uses directly (same contract as telemetry/telemetry.h). Each
/// event is one lock-free ring write.
///
///   FRESQUE_FLIGHT_EVENT(kPublication, "publish barrier", pub, lines, 0);
///
/// The message MUST be a string literal (the ring stores the pointer and
/// the crash handler may read it mid-crash); dynamic values go in the
/// three int64 args. Flight events are control-plane rate (barriers, shed
/// transitions, recovery steps) — never per-record.

#include "obs/flight_recorder.h"
#include "obs/sampler.h"

#define FRESQUE_FLIGHT_EVENT(cat, msg, a0, a1, a2)                         \
  ::fresque::obs::FlightRecorder::Global()->Record(                        \
      ::fresque::obs::FlightCategory::cat, msg, static_cast<int64_t>(a0),  \
      static_cast<int64_t>(a1), static_cast<int64_t>(a2))

/// Per-record end-of-pipeline hook: freshness stamp, SLO burn, quantile
/// sketch (see obs::NoteE2eSample). `now_ns` is the clock the caller just
/// read to compute `e2e_ns` — reusing it keeps the dormant cost (no obs
/// server, no SLO target) to three relaxed atomic ops, no clock read.
#define FRESQUE_OBS_E2E_SAMPLE(e2e_ns, now_ns)              \
  ::fresque::obs::NoteE2eSample(static_cast<int64_t>(e2e_ns), \
                                static_cast<int64_t>(now_ns))

/// Batch form: `n` uint64 e2e samples of records that completed together
/// at `now_ns` (see obs::NoteE2eSamples).
#define FRESQUE_OBS_E2E_SAMPLES(values, n, now_ns) \
  ::fresque::obs::NoteE2eSamples(values, n, static_cast<int64_t>(now_ns))

#endif  // FRESQUE_OBS_FLIGHT_H_
