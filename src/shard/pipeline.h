#ifndef FRESQUE_SHARD_PIPELINE_H_
#define FRESQUE_SHARD_PIPELINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/hot.h"
#include "common/mutex.h"
#include "common/queue.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "crypto/key_manager.h"
#include "durability/metrics.h"
#include "durability/recovery.h"
#include "durability/snapshot_manager.h"
#include "durability/wal.h"
#include "engine/cloud_node.h"
#include "engine/config.h"
#include "engine/fresque_collector.h"
#include "engine/metrics.h"
#include "shard/router.h"
#include "shard/sharded_cloud.h"

namespace fresque {
namespace shard {

struct ShardedPipelineConfig {
  /// Per-shard collector template. `collector.dataset` is the full-domain
  /// workload; each shard runs a copy with its placement slice substituted
  /// (range mode), its epsilon set by the placement's composition rule,
  /// and a shard-distinct noise seed. The shared KeyManager plus
  /// barrier-aligned publication numbers keep client decryption of merged
  /// results unchanged.
  engine::CollectorConfig collector;

  ShardOptions shard;

  /// Root data dir; shard `i` persists under `<data_dir>/shard-<i>`.
  /// The directory must be fresh (or recovered read-only first): the
  /// pipeline always starts publication numbering at 0. Empty disables
  /// durability.
  engine::DurabilityConfig durability;

  /// Capacity of each shard's ingress queue (router -> shard worker).
  size_t ingress_capacity = 8192;

  /// Mailbox capacity of each shard's CloudNode.
  size_t cloud_mailbox_capacity = 8192;
};

/// Point-in-time health of one shard of the pipeline.
struct ShardMetrics {
  size_t shard = 0;
  uint64_t routed = 0;
  size_t ingress_depth = 0;
  size_t ingress_high_watermark = 0;
  size_t ingress_capacity = 0;
  uint64_t view_epoch = 0;
  size_t publications = 0;
  size_t records = 0;
  engine::CollectorMetrics collector;
  /// WAL and snapshot counters of this shard's data dir (zeros without
  /// durability).
  durability::DurabilityMetrics durability;
};

struct ShardedPipelineMetrics {
  RouterMetrics router;
  std::vector<ShardMetrics> shards;

  /// Drop, shed and publication counters summed over the shards. Nodes of
  /// the same name (every shard has a `cn0`) fold into one row:
  /// depths, capacities and frame counts add, watermarks take the max.
  engine::CollectorMetrics CollectorTotals() const;
  /// Durability counters summed over the shards.
  durability::DurabilityMetrics DurabilityTotals() const;
};

/// N FresqueCollector pipelines behind one ShardRouter.
///
/// Each shard owns a full dispatcher -> computing-nodes -> checker ->
/// merger chain, its own CloudServer slice (via ShardedCloudServer), its
/// own CloudNode, publication counter, optional WAL/snapshot directory
/// and DP budget slice. A per-shard worker thread drains a bounded
/// ingress queue and *is* that shard's dispatcher thread, satisfying the
/// collector's single-caller contract while the shards run genuinely in
/// parallel.
///
/// Thread-safety: Start/Ingest/SetIntervalProgress/Publish/Shutdown/
/// WriteFinalSnapshots must be called from one (router) thread, mirroring
/// FresqueCollector's contract. Metrics(), WaitForPublication(),
/// current_publication() and cloud() queries are safe from any thread.
///
/// Barrier alignment: Publish() enqueues a publish frame on every shard's
/// ingress queue behind all previously routed lines, so every shard's
/// publication `pn` covers the same router interval and the per-shard pn
/// sequences stay aligned (same KeyManager + same pn => the client's
/// per-publication keys work on merged results).
class ShardedPipeline {
 public:
  ShardedPipeline(ShardedPipelineConfig config, crypto::KeyManager keys);
  ~ShardedPipeline();

  ShardedPipeline(const ShardedPipeline&) = delete;
  ShardedPipeline& operator=(const ShardedPipeline&) = delete;

  /// Builds the placement, router, per-shard cloud stores, durability and
  /// collector stacks, then spawns one worker per shard and waits until
  /// every collector started. Call once.
  Status Start();

  /// Routes one raw line to its shard's ingress queue (batched; blocks
  /// only when that shard's queue is full — per-shard back-pressure).
  FRESQUE_HOT Status Ingest(
      std::string_view line,
      engine::IngestPriority priority = engine::IngestPriority::kNormal,
      int64_t intended_born_ns = 0);

  /// How far the current interval has progressed, in [0, 1]. Lines routed
  /// after this call carry the fraction to their shard's dispatcher
  /// (FresqueCollector::SetIntervalProgress), so scheduled dummies are
  /// spread over the interval instead of all flushing at the barrier.
  /// Optional; Publish() resets it to 0.
  void SetIntervalProgress(double fraction) { progress_ = fraction; }

  /// Ends the current publishing interval on every shard (asynchronous:
  /// the barrier frame queues behind routed lines; shards publish as they
  /// drain to it).
  Status Publish();

  /// Drains and stops everything: flushes router buffers, closes the
  /// ingress queues, lets every worker drain + publish its open interval
  /// (FresqueCollector::Shutdown semantics) and waits for the final
  /// publication acks, then stops the cloud nodes. Returns the first
  /// error any shard hit.
  Status Shutdown();

  /// Converges every shard's data dir after Shutdown(): snapshots the
  /// final state (including the last interval) and truncates the WAL
  /// prefix it covers, so a later recovery replays nothing. No-op without
  /// durability.
  Status WriteFinalSnapshots();

  /// Blocks until publication `pn` reaches a terminal state on *every*
  /// shard. Safe from any thread.
  Status WaitForPublication(
      uint64_t pn,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(10000));

  /// Publication the router is currently filling (== every shard's open
  /// publication once its queue drains). Safe from any thread (a relaxed
  /// read; /statusz polls it while the caller publishes).
  uint64_t current_publication() const {
    return pn_.load(std::memory_order_relaxed);
  }

  /// The sharded cloud facade (valid after Start()). Queries are safe
  /// while ingest runs.
  ShardedCloudServer* cloud() { return cloud_.get(); }
  const ShardedCloudServer* cloud() const { return cloud_.get(); }

  const ShardPlacement& placement() const { return router_->placement(); }

  /// First error any shard worker / collector / cloud node hit.
  Status first_error() const FRESQUE_EXCLUDES(mu_);

  ShardedPipelineMetrics Metrics() const;

  /// Pushes the `shard.*` gauge families (per-shard ingress watermarks,
  /// view epochs, publication/record totals) into the global telemetry
  /// registry. Counters (`shard.router.*`, `shard.<i>.records_in`) are
  /// maintained on the hot path; this fills in the scrape-time gauges.
  /// Safe from any thread.
  void ExportTelemetry() const;

  const ShardedPipelineConfig& config() const { return config_; }

 private:
  struct IngressFrame {
    enum class Kind : uint8_t { kLine, kPublish };
    Kind kind = Kind::kLine;
    /// The line, in the one heap buffer it keeps up to the cloud store
    /// (FresqueCollector::Ingest(Bytes&&)).
    Bytes line;
    engine::IngestPriority priority = engine::IngestPriority::kNormal;
    int64_t born_ns = 0;
    double progress = 0;  // interval progress when the line was routed
  };

  struct Shard;

  void WorkerLoop(Shard* s);
  void FlushShard(size_t i);
  void NoteError(const Status& st) FRESQUE_EXCLUDES(mu_);
  void StopAll();

  ShardedPipelineConfig config_;
  crypto::KeyManager keys_;

  // fresque-lint: allow(guarded-by) set once by Start() before workers spawn; read-only afterwards
  std::unique_ptr<ShardRouter> router_;
  // fresque-lint: allow(guarded-by) same set-once-in-Start contract as router_
  std::unique_ptr<ShardedCloudServer> cloud_;
  // fresque-lint: allow(guarded-by) shard vector shape fixed in Start(); workers only touch their own element
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Router-thread state: per-shard line buffers flushed as PushBatch.
  // fresque-lint: allow(guarded-by) confined to the single caller thread (the class's Start/Ingest/Publish/Shutdown contract)
  std::vector<std::vector<IngressFrame>> route_buf_;
  /// Ciphertext headroom reserved beyond each routed line, from the
  /// dataset's schema (SecureRecordCodec::CiphertextHeadroom).
  // fresque-lint: allow(guarded-by) set once by Start(); read by the caller thread
  size_t line_headroom_ = 0;

  /// Written by the caller thread only; atomic so current_publication()
  /// can be read from any thread.
  std::atomic<uint64_t> pn_{0};
  // fresque-lint: allow(guarded-by) caller-thread confined, same contract as route_buf_
  double progress_ = 0;
  // fresque-lint: allow(guarded-by) caller-thread confined, same contract as route_buf_
  bool started_ = false;
  // fresque-lint: allow(guarded-by) caller-thread confined, same contract as route_buf_
  bool shut_down_ = false;

  mutable Mutex mu_;
  Status first_error_ FRESQUE_GUARDED_BY(mu_);
};

/// Returns `<data_dir>/shard-<i>`, the durability directory of shard i.
std::string ShardDataDir(const std::string& data_dir, size_t i);

/// Per-shard outcome of RecoverShardedCloud.
struct RecoveredShardStats {
  size_t shard = 0;
  /// False when the shard's directory held no durable state (it never
  /// ingested under durability) and a fresh empty store was used.
  bool recovered = false;
  durability::RecoveryStats stats;
};

struct RecoveredShardedCloud {
  std::unique_ptr<ShardedCloudServer> cloud;
  std::vector<RecoveredShardStats> shards;
};

/// Rebuilds the sharded cloud from per-shard durability directories
/// (`<data_dir>/shard-<i>`), replaying each shard's snapshot + WAL tail
/// through RecoveryManager. Shard directories with no durable state
/// recover as empty shards; damaged ones fail the whole recovery.
Result<RecoveredShardedCloud> RecoverShardedCloud(
    const std::string& data_dir, const record::DatasetSpec& dataset,
    const ShardOptions& options);

}  // namespace shard
}  // namespace fresque

#endif  // FRESQUE_SHARD_PIPELINE_H_
