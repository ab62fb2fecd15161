#ifndef FRESQUE_OBS_SERVER_H_
#define FRESQUE_OBS_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "obs/http.h"
#include "obs/sampler.h"
#include "telemetry/metrics.h"

namespace fresque {
namespace obs {

/// Point-in-time pipeline status rendered by `/statusz`. Filled by a
/// callback the embedding process registers (the obs plane never links
/// against engine/cloud — the dependency points the other way), so any
/// binary that can describe itself gets a status page.
struct StatusSnapshot {
  struct Node {
    std::string name;
    uint64_t queue_depth = 0;
    uint64_t queue_capacity = 0;
    uint64_t high_watermark = 0;
    uint64_t processed = 0;
  };
  /// One collector shard of a sharded deployment (DESIGN.md §17):
  /// rendered as the `/statusz` shard table. Empty when unsharded.
  struct Shard {
    uint64_t shard = 0;
    uint64_t routed = 0;           // lines the router sent this shard
    uint64_t ingress_depth = 0;    // fullest computing-node inbox, now
    uint64_t ingress_capacity = 0;
    uint64_t ingress_watermark = 0;
    uint64_t view_epoch = 0;       // this shard's installed view
    uint64_t publications = 0;
    uint64_t records = 0;          // resident in this shard's store
  };
  std::vector<Node> nodes;        // pipeline topology, dispatch order
  std::vector<Shard> shards;      // per-shard table, empty when unsharded
  uint64_t view_epoch = 0;        // installed query view epoch
  uint64_t publications = 0;      // publications installed so far
  int64_t open_publication = -1;  // pn currently open for ingest, -1 if none
  uint64_t total_records = 0;     // records resident in the cloud store
  uint64_t wal_frames = 0;        // durability positions (0s if disabled)
  uint64_t wal_bytes = 0;
  uint64_t wal_segments = 0;
  uint64_t snapshots_written = 0;
  int64_t last_snapshot_millis = -1;
};

/// Options for the observability server.
struct ObsServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral (tests)
  uint64_t sample_interval_ms = 1000;
  /// Appends the embedding process's own rows (ShardedPipelineMetrics::
  /// AppendTo in the CLI) to every `/metrics` scrape, after the registry
  /// snapshot is taken and with no obs lock held. Empty → registry only.
  std::function<void(telemetry::MetricsSnapshot*)> append_metrics;
  /// Produces the `/statusz` snapshot. Empty → topology-less status page.
  std::function<StatusSnapshot()> status_source;
  /// `/readyz` source: true once the pipeline accepts work. Empty → ready
  /// whenever the server runs.
  std::function<bool()> ready_source;
};

/// Parses an `--obs-addr` value: "PORT", "HOST:PORT", or "HOST" with
/// PORT 0 meaning ephemeral. Returns (host, port).
Result<std::pair<std::string, uint16_t>> ParseObsAddr(const std::string& addr);

/// The live observability plane (DESIGN.md §16): one HTTP endpoint
/// serving
///   /metrics  — Prometheus text of the telemetry registry plus the
///               `append_metrics` rows
///   /healthz  — liveness (the process serves requests)
///   /readyz   — readiness (the pipeline accepts work)
///   /statusz  — JSON pipeline status (topology, queues, epochs, WAL)
///   /flightz  — JSON dump of the flight-recorder ring
/// plus the background sampler that folds quantile sketches into gauges
/// so no scrape computes a percentile.
class ObsServer {
 public:
  explicit ObsServer(ObsServerOptions options);
  ~ObsServer();

  ObsServer(const ObsServer&) = delete;
  ObsServer& operator=(const ObsServer&) = delete;

  /// Binds, registers routes, starts sampler + accept loop, and switches
  /// e2e sampling on.
  Status Start();

  /// Stops accept loop and sampler, switches e2e sampling off. Idempotent.
  void Stop();

  bool running() const { return http_.running(); }
  uint16_t port() const { return http_.port(); }
  uint64_t requests() const { return http_.requests(); }

 private:
  HttpResponse ServeMetrics();
  HttpResponse ServeHealthz();
  HttpResponse ServeReadyz();
  HttpResponse ServeStatusz();
  HttpResponse ServeFlightz();

  ObsServerOptions options_;
  HttpServer http_;
  ObsSampler sampler_;
  int64_t started_ns_ = 0;
};

}  // namespace obs
}  // namespace fresque

#endif  // FRESQUE_OBS_SERVER_H_
