#ifndef FRESQUE_ENGINE_METRICS_H_
#define FRESQUE_ENGINE_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fresque {
namespace engine {

/// Per-publication timing breakdown, mirroring the components the paper
/// reports in Figures 13-17.
struct PublishReport {
  uint64_t pn = 0;

  /// Real records admitted during the interval.
  uint64_t real_records = 0;
  /// Dummy records generated for the interval's positive noise.
  uint64_t dummy_records = 0;
  /// Records diverted to overflow arrays (negative noise).
  uint64_t removed_records = 0;

  /// Time the dispatcher spent on publication work (template sampling,
  /// dummy generation, publish fan-out).
  double dispatcher_millis = 0;
  /// Time the checking node spent flushing (randomer buffer + AL send).
  double checking_millis = 0;
  /// Time the merger spent building the secure index + overflow arrays.
  double merger_millis = 0;
};

/// Instantaneous view of one pipeline node's mailbox (built on the
/// BoundedQueue lifetime counters).
struct QueueMetrics {
  size_t depth = 0;
  size_t capacity = 0;
  /// Frames accepted onto the queue over its lifetime.
  uint64_t enqueued = 0;
  /// TryPush calls that bounced off a full queue — genuine back-pressure:
  /// the consumer behind this mailbox is the bottleneck.
  uint64_t rejected_full = 0;
  /// Pushes that failed because the queue was closed — expected during
  /// shutdown, a bug if it grows mid-run.
  uint64_t rejected_closed = 0;
  /// Deepest the queue has ever been; `== capacity` means producers hit
  /// back-pressure at least once.
  size_t high_watermark = 0;

  /// Pushes that failed for any reason.
  uint64_t rejected() const { return rejected_full + rejected_closed; }
};

/// Per-node health snapshot (one per computing node, plus the checking
/// node and the merger).
struct NodeMetrics {
  std::string name;
  bool running = false;
  uint64_t frames_processed = 0;
  QueueMetrics inbox;
};

/// Whole-collector health snapshot, cheap enough to poll while ingesting.
/// Every counter is cumulative since Start().
///
/// Thread-safety: plain value structs, no internal locking. Each snapshot
/// is assembled from atomics and mutex-guarded counters at
/// FresqueCollector::Metrics() time and is immutable-by-convention
/// afterwards; counters read at different instants may be mutually
/// inconsistent by a few in-flight frames.
struct CollectorMetrics {
  std::vector<NodeMetrics> nodes;

  /// Lines dropped at the computing nodes: parse failure or value outside
  /// the indexed domain.
  uint64_t parse_errors = 0;
  /// Records lost to cryptographic failures (codec construction or
  /// encryption), as opposed to malformed input.
  uint64_t codec_failures = 0;
  /// Records the checking node dropped on arrival because their
  /// publication has no interval state (its kTemplateInit failed to
  /// decode).
  uint64_t pending_dropped = 0;
  /// Removed records that no longer fit their overflow array (realized
  /// negative noise beyond the delta-probability bound). Expected ~0;
  /// nonzero values mean delta/alpha are configured too aggressively.
  uint64_t overflow_drops = 0;

  /// Records shed at the ingest boundary by admission control
  /// (Status kOverloaded). *Not* a drop: a shed record never entered the
  /// pipeline, so it is excluded from the conservation ledger and from
  /// TotalDrops(). Split by the priority the client offered.
  uint64_t shed_records = 0;
  uint64_t shed_low = 0;
  uint64_t shed_normal = 0;
  uint64_t shed_high = 0;

  /// Publications completed as installed at the cloud (requires
  /// CloudNode::ReportPublicationsTo).
  uint64_t publications_completed = 0;
  /// Publications completed as failed (lost template, merge failure,
  /// cloud decode or install failure).
  uint64_t publications_failed = 0;

  /// Sum of every drop counter — nonzero means ingested data did not all
  /// reach the cloud.
  uint64_t TotalDrops() const {
    return parse_errors + codec_failures + pending_dropped + overflow_drops;
  }
};

}  // namespace engine
}  // namespace fresque

#endif  // FRESQUE_ENGINE_METRICS_H_
