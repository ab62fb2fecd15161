#ifndef FRESQUE_DURABILITY_METRICS_H_
#define FRESQUE_DURABILITY_METRICS_H_

#include <cstdint>

namespace fresque {
namespace durability {

/// Cumulative durability counters, assembled on demand from the WAL and
/// the snapshot manager. Plain values, no internal locking — same
/// convention as engine::CollectorMetrics.
struct DurabilityMetrics {
  /// WAL frames appended (meta + start + batch + install frames).
  uint64_t wal_frames = 0;
  /// Record-batch frames among wal_frames (each packs many e-records).
  uint64_t wal_record_batches = 0;
  /// Frame bytes handed to the OS across all segments, including deleted
  /// ones (segment headers excluded).
  uint64_t wal_bytes = 0;
  /// fsync() calls issued by the WAL (policy-dependent).
  uint64_t wal_fsyncs = 0;
  uint64_t wal_segments_created = 0;
  /// Segments dropped by snapshot-driven truncation.
  uint64_t wal_segments_deleted = 0;
  /// Torn-tail bytes discarded when reopening an existing WAL.
  uint64_t wal_torn_bytes_discarded = 0;

  /// Snapshots successfully written (tmp + rename + manifest).
  uint64_t snapshots_written = 0;
  uint64_t snapshot_failures = 0;
  double last_snapshot_millis = 0;
};

}  // namespace durability
}  // namespace fresque

#endif  // FRESQUE_DURABILITY_METRICS_H_
