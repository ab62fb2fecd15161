#include "durability/metrics.h"

#include "telemetry/metrics.h"

namespace fresque {
namespace durability {

void ExportToRegistry(const DurabilityMetrics& m) {
  auto* reg = telemetry::Registry::Global();
  auto set = [reg](const char* name, uint64_t v) {
    reg->GetGauge(name)->Set(static_cast<int64_t>(v));
  };
  set("wal.frames", m.wal_frames);
  set("wal.record_batches", m.wal_record_batches);
  set("wal.bytes", m.wal_bytes);
  set("wal.fsyncs", m.wal_fsyncs);
  set("wal.segments_created", m.wal_segments_created);
  set("wal.segments_deleted", m.wal_segments_deleted);
  set("wal.torn_bytes_discarded", m.wal_torn_bytes_discarded);
  set("snapshot.written", m.snapshots_written);
  set("snapshot.failures", m.snapshot_failures);
  set("snapshot.last_millis", static_cast<uint64_t>(m.last_snapshot_millis));
  set("recovery.frames_replayed", m.frames_replayed);
  set("recovery.millis", static_cast<uint64_t>(m.recovery_millis));
}

}  // namespace durability
}  // namespace fresque
