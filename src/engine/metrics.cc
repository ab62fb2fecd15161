#include "engine/metrics.h"

#include "telemetry/metrics.h"

namespace fresque {
namespace engine {

void ExportToRegistry(const CollectorMetrics& m) {
  auto* reg = telemetry::Registry::Global();
  auto set = [reg](const std::string& name, int64_t v) {
    reg->GetGauge(name)->Set(v);
  };
  for (const NodeMetrics& n : m.nodes) {
    const std::string p = "node." + n.name + ".";
    set(p + "running", n.running ? 1 : 0);
    set(p + "frames_processed", static_cast<int64_t>(n.frames_processed));
    set(p + "queue_depth", static_cast<int64_t>(n.inbox.depth));
    set(p + "queue_capacity", static_cast<int64_t>(n.inbox.capacity));
    set(p + "queue_enqueued", static_cast<int64_t>(n.inbox.enqueued));
    set(p + "queue_rejected_full",
        static_cast<int64_t>(n.inbox.rejected_full));
    set(p + "queue_rejected_closed",
        static_cast<int64_t>(n.inbox.rejected_closed));
    set(p + "queue_high_watermark",
        static_cast<int64_t>(n.inbox.high_watermark));
  }
  set("collector.snapshot.shed_records",
      static_cast<int64_t>(m.shed_records));
  set("collector.snapshot.shed_low", static_cast<int64_t>(m.shed_low));
  set("collector.snapshot.shed_normal", static_cast<int64_t>(m.shed_normal));
  set("collector.snapshot.shed_high", static_cast<int64_t>(m.shed_high));
  set("collector.snapshot.parse_errors",
      static_cast<int64_t>(m.parse_errors));
  set("collector.snapshot.codec_failures",
      static_cast<int64_t>(m.codec_failures));
  set("collector.snapshot.pending_dropped",
      static_cast<int64_t>(m.pending_dropped));
  set("collector.snapshot.overflow_drops",
      static_cast<int64_t>(m.overflow_drops));
  set("collector.snapshot.publications_completed",
      static_cast<int64_t>(m.publications_completed));
  set("collector.snapshot.publications_failed",
      static_cast<int64_t>(m.publications_failed));
  set("collector.snapshot.total_drops", static_cast<int64_t>(m.TotalDrops()));
}

}  // namespace engine
}  // namespace fresque
