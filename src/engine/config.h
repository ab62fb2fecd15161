#ifndef FRESQUE_ENGINE_CONFIG_H_
#define FRESQUE_ENGINE_CONFIG_H_

#include <cstdint>
#include <cstddef>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "durability/wal.h"
#include "record/dataset.h"

namespace fresque {
namespace engine {

/// Importance class a client attaches to an ingested record. Only
/// admission control looks at it: once admitted, every record moves
/// through the pipeline identically (reordering by priority would break
/// the per-publication conservation accounting).
enum class IngestPriority {
  /// Sheddable background traffic: first to go when queues fill.
  kLow = 0,
  /// Default for all existing callers.
  kNormal = 1,
  /// Never shed by the queue-fill watermarks (back-pressure still
  /// applies) and allowed to overdraw the token bucket.
  kHigh = 2,
};

/// Admission control at the collector's ingest boundary. Off by default —
/// all existing callers see unchanged behavior (blocking back-pressure).
/// When enabled, Ingest() sheds load *before* a record enters the
/// pipeline, returning StatusCode::kOverloaded instead of letting the
/// client's offered rate convert into unbounded queueing delay: a shed
/// request costs the client one retry; an admitted-then-queued request
/// costs every subsequent record the queue wait.
///
/// Two independent gates, either of which sheds:
///  - queue-fill watermarks over the pipeline's input mailboxes
///    (computing-node, checking-node and merger inboxes, whichever is
///    fullest — the merger inbox is where backlog pools when the
///    bottleneck sits downstream of the collector).
///    kLow records shed above `shed_low_watermark`, kNormal above
///    `shed_high_watermark`, kHigh never (it blocks on back-pressure
///    instead, preserving the lossless path for must-deliver traffic).
///  - an optional token bucket capping the sustained admitted rate at
///    `rate_records_per_sec` with burst capacity `burst_records`
///    (0 disables the bucket). kHigh may overdraw the bucket.
///
/// Shed records are counted in FresqueCollector::Metrics(), per
/// priority too (exported as `ingest.shed_records` and
/// `ingest.shed_<priority>`), but never in `ingest.records_in`, so the
/// pipeline's conservation ledger — records in + dummies == arrived +
/// rejected + removed + dropped — continues to balance over *admitted*
/// records.
struct AdmissionConfig {
  bool enabled = false;

  /// Fill fraction of the fullest pipeline input mailbox above which
  /// kLow records are shed. Must be in (0, 1] and <= shed_high_watermark.
  double shed_low_watermark = 0.50;

  /// Fill fraction above which kNormal records are shed.
  double shed_high_watermark = 0.85;

  /// Sustained admitted-records-per-second cap; 0 disables the bucket.
  double rate_records_per_sec = 0;

  /// Bucket depth: how far the admitted rate may burst above the
  /// sustained cap. Ignored when the bucket is disabled.
  double burst_records = 1024;
};

/// Shared configuration of every collector prototype (PINED-RQ,
/// PINED-RQ++, parallel PINED-RQ++, FRESQUE). Defaults mirror the paper's
/// benchmark settings (§7.1).
struct CollectorConfig {
  /// Workload: parser + indexed-attribute domain/binning.
  record::DatasetSpec dataset;

  /// Index fanout k (paper: 16).
  size_t fanout = 16;

  /// Per-publication privacy budget epsilon (paper default: 1.0).
  double epsilon = 1.0;

  /// Probability with which per-leaf noise bounds hold (paper: 99%).
  double delta = 0.99;

  /// Randomer buffer coefficient alpha >= 2 (paper default: 2); Validate
  /// rejects anything smaller (paper §5.2).
  double alpha = 2.0;

  /// Number of computing nodes at the collector (paper sweeps 2..12).
  size_t num_computing_nodes = 4;

  /// Mailbox capacity per link (bounded, for back-pressure).
  size_t mailbox_capacity = 8192;

  /// Load shedding at the ingest boundary; see AdmissionConfig.
  AdmissionConfig admission;

  /// Plaintext padding length of dummy records; pick near the dataset's
  /// typical record size so ciphertext lengths blend in.
  size_t dummy_padding_len = 64;

  /// Seed for all collector-side randomness; same seed => same noise,
  /// dummies and schedules (tests and reproducible experiments).
  uint64_t seed = 42;

  /// Rejects nonsensical knob combinations before any thread spawns,
  /// so a bad deployment fails at startup with a message naming the
  /// offending knob instead of deadlocking (zero-capacity mailbox) or
  /// misbehaving later (zero computing nodes, inverted shed watermarks).
  /// Called by FresqueCollector::Start(); standalone tools may call it
  /// directly to fail fast before touching the pipeline.
  Status Validate() const;
};

/// The randomer's buffer size S = alpha * T for `config` (paper §5.2):
/// T is the delta-probability bound on one interval's dummies, from the
/// binning's leaf count, the index levels that `fanout` gives and the
/// per-level Laplace scale. The checking node holds S records before it
/// evicts, so S is also the most records one publish barrier flushes to
/// the cloud at once. Fails on a bad binning, fanout, epsilon or alpha.
Result<size_t> RandomerBufferSize(const CollectorConfig& config);

/// Slots in each leaf's overflow array for an index of `num_levels`
/// levels: the delta-probability bound on that leaf's negative noise
/// (symmetric to the dummy bound), and at least one.
size_t OverflowSlotsPerLeaf(const CollectorConfig& config, size_t num_levels);

/// Cloud-side durability settings (WAL + snapshots). Durability is off
/// unless `data_dir` is set; with it, the cloud logs every accepted
/// mutation and a publication that completes as installed survives a
/// crash (per `fsync_policy`).
struct DurabilityConfig {
  /// Directory for WAL segments, snapshots and the MANIFEST. Empty
  /// disables durability entirely.
  std::string data_dir;

  durability::FsyncPolicy fsync_policy = durability::FsyncPolicy::kAlways;

  /// Minimum time between fsyncs under FsyncPolicy::kIntervalMs.
  uint64_t fsync_interval_ms = 50;

  /// Write a snapshot (and truncate the WAL) every N durable installs;
  /// 0 never snapshots automatically.
  size_t snapshot_every_installs = 8;

  bool enabled() const { return !data_dir.empty(); }
};

/// Live observability plane settings (src/obs, DESIGN.md §16). Off
/// unless `addr` is set; with it, the process serves /metrics, /healthz,
/// /readyz, /statusz and /flightz over embedded HTTP, runs the
/// background quantile sampler, and installs the flight-recorder crash
/// handlers. Plain data: the obs plane itself never depends on engine.
struct ObsConfig {
  /// Listen address for the introspection endpoint: "PORT",
  /// "HOST:PORT" or "HOST" (IPv4 dotted quad or "localhost"; port 0
  /// picks an ephemeral port). Empty disables the whole plane.
  std::string addr;

  /// End-to-end latency SLO target in milliseconds; every completed
  /// record above it increments `slo.e2e_violations`. 0 disables SLO
  /// accounting.
  uint64_t slo_e2e_ms = 0;

  /// Flight-recorder ring capacity in events. Must lie in the recorder's
  /// [64, 1048576] bounds: obs::FlightRecorder::ConfigureGlobalCapacity
  /// refuses anything else, and fresque_cli rejects it with exit 1.
  size_t flight_capacity = 4096;

  /// How often the sampler folds quantiles/lag into gauges.
  uint64_t sample_interval_ms = 1000;

  bool enabled() const { return !addr.empty(); }
};

}  // namespace engine
}  // namespace fresque

#endif  // FRESQUE_ENGINE_CONFIG_H_
