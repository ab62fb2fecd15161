#include "shard/pipeline.h"

#include <algorithm>
#include <filesystem>
#include <future>
#include <utility>

#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace fresque {
namespace shard {

std::string ShardDataDir(const std::string& data_dir, size_t i) {
  return data_dir + "/shard-" + std::to_string(i);
}

/// Everything one shard owns. Destruction order (bottom-up in the struct)
/// matters: the collector must die before the cloud node whose inbox it
/// holds, and both before the WAL/snapshot state they log into.
struct ShardedPipeline::Shard {
  size_t index = 0;
  std::unique_ptr<durability::Wal> wal;
  std::unique_ptr<durability::SnapshotManager> snapshots;
  std::unique_ptr<engine::CloudNode> cloud_node;
  std::unique_ptr<engine::FresqueCollector> collector;
  telemetry::Counter* records_in = nullptr;
  /// Lines the collector admitted since its last Publish().
  uint64_t open_lines = 0;
};

ShardedPipeline::ShardedPipeline(ShardedPipelineConfig config,
                                 crypto::KeyManager keys)
    : config_(std::move(config)), keys_(std::move(keys)) {}

ShardedPipeline::~ShardedPipeline() {
  if (started_ && !shut_down_) (void)Shutdown();
}

Status ShardedPipeline::Start() {
  if (started_) return Status::FailedPrecondition("pipeline already started");
  if (auto st = config_.collector.Validate(); !st.ok()) return st;

  auto placement =
      ShardPlacement::Create(config_.collector.dataset, config_.shard);
  if (!placement.ok()) return placement.status();
  router_ = std::make_unique<ShardRouter>(*placement,
                                          config_.collector.dataset.parser);
  cloud_ = std::make_unique<ShardedCloudServer>(*placement);

  const size_t n = placement->num_shards();
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto s = std::make_unique<Shard>();
    s->index = i;

    if (config_.durability.enabled()) {
      const std::string dir = ShardDataDir(config_.durability.data_dir, i);
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      durability::WalOptions wopts;
      wopts.dir = dir;
      wopts.fsync_policy = config_.durability.fsync_policy;
      wopts.fsync_interval_ms = config_.durability.fsync_interval_ms;
      wopts.segment_bytes = config_.durability.wal_segment_bytes;
      auto wal = durability::Wal::Open(std::move(wopts));
      if (!wal.ok()) return wal.status();
      s->wal = std::move(*wal);
      durability::SnapshotOptions sopts;
      sopts.dir = dir;
      sopts.snapshot_every_installs = config_.durability.snapshot_every_installs;
      s->snapshots = std::make_unique<durability::SnapshotManager>(
          sopts, cloud_->shard(i), s->wal.get());
    }

    s->cloud_node = std::make_unique<engine::CloudNode>(
        cloud_->shard(i), config_.cloud_mailbox_capacity);
    if (s->wal != nullptr) {
      if (auto st =
              s->cloud_node->AttachDurability(s->wal.get(), s->snapshots.get());
          !st.ok()) {
        return st;
      }
    }

    engine::CollectorConfig sub = config_.collector;
    sub.dataset = placement->ShardSpec(i);
    sub.epsilon = placement->ShardEpsilon(config_.collector.epsilon);
    // Shard-distinct noise/dummy streams; the record keys come from the
    // shared KeyManager, so merged results still decrypt.
    sub.seed = config_.collector.seed + 0x9e3779b97f4a7c15ULL * (i + 1);
    s->collector = std::make_unique<engine::FresqueCollector>(
        sub, keys_, s->cloud_node->inbox());
    s->cloud_node->RouteAcksTo(s->collector->publication_acks());
    s->cloud_node->Start();

    s->records_in = telemetry::Registry::Global()->GetCounter(
        "shard." + std::to_string(i) + ".records_in");
    shards_.push_back(std::move(s));
  }

  // Shard 0 starts on the caller's thread while the others start alongside
  // it; get() joins each starter thread, so every later call on a
  // collector happens after its Start().
  std::vector<std::future<Status>> starts;
  for (size_t i = 1; i < n; ++i) {
    starts.push_back(std::async(std::launch::async,
                                &engine::FresqueCollector::Start,
                                shards_[i]->collector.get()));
  }
  Status first = shards_[0]->collector->Start();
  for (auto& f : starts) {
    Status st = f.get();
    if (!st.ok() && first.ok()) first = st;
  }
  if (!first.ok()) {
    for (auto& s : shards_) (void)s->collector->Shutdown();
    StopCloudNodes();
    return first;
  }
  started_ = true;
  FRESQUE_GAUGE_SET("shard.count", static_cast<int64_t>(n));
  return Status::OK();
}

Status ShardedPipeline::Ingest(std::string_view line,
                               engine::IngestPriority priority,
                               int64_t intended_born_ns) {
  if (!started_ || shut_down_) {
    return Status::FailedPrecondition("pipeline is not running");
  }
  const ShardRouter::Decision d = router_->Route(line);
  Shard& s = *shards_[d.shard];
  s.records_in->Add(1);
  FRESQUE_COUNTER_ADD("shard.router.records", 1);
  if (!d.extracted) FRESQUE_COUNTER_ADD("shard.router.extract_fallbacks", 1);
  s.collector->SetIntervalProgress(progress_);
  Status st = s.collector->Ingest(line, priority, intended_born_ns);
  if (st.ok()) {
    ++s.open_lines;
    return st;
  }
  // Sheds are normal under admission control (the collector counts
  // them); anything else is a real failure.
  if (st.IsOverloaded()) return Status::OK();
  NoteError(st);
  return st;
}

Status ShardedPipeline::Publish() {
  if (!started_ || shut_down_) {
    return Status::FailedPrecondition("pipeline is not running");
  }
  // Every shard publishes, even past a failed one, so the pn sequences
  // stay aligned.
  Status first;
  for (auto& s : shards_) {
    if (Status st = s->collector->Publish(); !st.ok()) {
      NoteError(st);
      if (first.ok()) first = st;
    }
    s->open_lines = 0;
  }
  pn_.fetch_add(1, std::memory_order_relaxed);
  progress_ = 0;
  return first;
}

Status ShardedPipeline::Shutdown() {
  if (!started_) return Status::FailedPrecondition("pipeline never started");
  if (shut_down_) return first_error();
  shut_down_ = true;
  for (auto& s : shards_) {
    if (Status st = s->collector->Shutdown(); !st.ok()) NoteError(st);
  }
  for (auto& s : shards_) {
    if (s->open_lines == 0) continue;
    // Shutdown() published the open interval; wait for the cloud ack so
    // callers returning from here can query (or snapshot) a complete
    // store.
    Status acked = s->collector->WaitForPublication(
        s->collector->current_publication(), std::chrono::seconds(30));
    if (!acked.ok()) NoteError(acked);
  }
  StopCloudNodes();
  ExportTelemetry();
  return first_error();
}

Status ShardedPipeline::WriteFinalSnapshots() {
  if (!shut_down_) {
    return Status::FailedPrecondition("WriteFinalSnapshots needs Shutdown()");
  }
  for (auto& s : shards_) {
    if (s->snapshots == nullptr) continue;
    if (Status st = s->snapshots->WriteSnapshot(); !st.ok()) {
      return Status::Internal("shard " + std::to_string(s->index) +
                              " final snapshot: " + st.ToString());
    }
  }
  return Status::OK();
}

void ShardedPipeline::StopCloudNodes() {
  for (auto& s : shards_) {
    s->cloud_node->Shutdown();
    if (!s->cloud_node->first_error().ok()) {
      NoteError(s->cloud_node->first_error());
    }
  }
}

Status ShardedPipeline::WaitForPublication(uint64_t pn,
                                           std::chrono::milliseconds timeout) {
  for (auto& s : shards_) {
    if (Status st = s->collector->WaitForPublication(pn, timeout); !st.ok()) {
      return st;
    }
  }
  return Status::OK();
}

void ShardedPipeline::NoteError(const Status& st) {
  MutexLock lock(mu_);
  if (first_error_.ok()) first_error_ = st;
}

Status ShardedPipeline::first_error() const {
  MutexLock lock(mu_);
  return first_error_;
}

ShardedPipelineMetrics ShardedPipeline::Metrics() const {
  ShardedPipelineMetrics m;
  m.router = router_->Metrics();
  m.shards.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    const auto& s = shards_[i];
    ShardMetrics sm;
    sm.shard = i;
    sm.routed = i < m.router.per_shard.size() ? m.router.per_shard[i] : 0;
    sm.view_epoch = cloud_->shard(i)->view_epoch();
    sm.publications = cloud_->shard(i)->num_publications();
    sm.records = cloud_->shard(i)->total_records();
    sm.collector = s->collector->Metrics();
    for (const auto& node : sm.collector.nodes) {
      if (node.name.rfind("cn", 0) != 0) continue;  // computing nodes only
      sm.ingress_depth = std::max(sm.ingress_depth, node.inbox.depth);
      sm.ingress_high_watermark =
          std::max(sm.ingress_high_watermark, node.inbox.high_watermark);
      sm.ingress_capacity = node.inbox.capacity;
    }
    sm.durability = s->cloud_node->durability_metrics();
    m.shards.push_back(std::move(sm));
  }
  return m;
}

engine::CollectorMetrics ShardedPipelineMetrics::CollectorTotals() const {
  engine::CollectorMetrics t;
  for (const auto& s : shards) {
    const engine::CollectorMetrics& c = s.collector;
    for (const auto& n : c.nodes) {
      auto it = std::find_if(t.nodes.begin(), t.nodes.end(),
                             [&n](const auto& x) { return x.name == n.name; });
      if (it == t.nodes.end()) {
        t.nodes.push_back(n);
        continue;
      }
      it->running = it->running || n.running;
      it->frames_processed += n.frames_processed;
      it->inbox.depth += n.inbox.depth;
      it->inbox.capacity += n.inbox.capacity;
      it->inbox.enqueued += n.inbox.enqueued;
      it->inbox.rejected_full += n.inbox.rejected_full;
      it->inbox.rejected_closed += n.inbox.rejected_closed;
      it->inbox.high_watermark =
          std::max(it->inbox.high_watermark, n.inbox.high_watermark);
    }
    t.parse_errors += c.parse_errors;
    t.codec_failures += c.codec_failures;
    t.pending_dropped += c.pending_dropped;
    t.overflow_drops += c.overflow_drops;
    t.shed_records += c.shed_records;
    t.shed_low += c.shed_low;
    t.shed_normal += c.shed_normal;
    t.shed_high += c.shed_high;
    t.publications_completed += c.publications_completed;
    t.publications_failed += c.publications_failed;
  }
  return t;
}

durability::DurabilityMetrics ShardedPipelineMetrics::DurabilityTotals() const {
  durability::DurabilityMetrics t;
  for (const auto& s : shards) {
    const durability::DurabilityMetrics& d = s.durability;
    t.wal_frames += d.wal_frames;
    t.wal_record_batches += d.wal_record_batches;
    t.wal_bytes += d.wal_bytes;
    t.wal_fsyncs += d.wal_fsyncs;
    t.wal_segments_created += d.wal_segments_created;
    t.wal_segments_deleted += d.wal_segments_deleted;
    t.wal_torn_bytes_discarded += d.wal_torn_bytes_discarded;
    t.snapshots_written += d.snapshots_written;
    t.snapshot_failures += d.snapshot_failures;
    t.last_snapshot_millis =
        std::max(t.last_snapshot_millis, d.last_snapshot_millis);
    t.frames_replayed += d.frames_replayed;
    t.recovery_millis = std::max(t.recovery_millis, d.recovery_millis);
  }
  return t;
}

void ShardedPipeline::ExportTelemetry() const {
  auto* reg = telemetry::Registry::Global();
  const ShardedPipelineMetrics m = Metrics();
  reg->GetGauge("shard.count")->Set(static_cast<int64_t>(m.shards.size()));
  for (const ShardMetrics& s : m.shards) {
    const std::string prefix = "shard." + std::to_string(s.shard) + ".";
    reg->GetGauge(prefix + "ingress_depth")
        ->Set(static_cast<int64_t>(s.ingress_depth));
    reg->GetGauge(prefix + "ingress_high_watermark")
        ->Set(static_cast<int64_t>(s.ingress_high_watermark));
    reg->GetGauge(prefix + "view_epoch")
        ->Set(static_cast<int64_t>(s.view_epoch));
    reg->GetGauge(prefix + "publications")
        ->Set(static_cast<int64_t>(s.publications));
    reg->GetGauge(prefix + "records")->Set(static_cast<int64_t>(s.records));
  }
}

Result<RecoveredShardedCloud> RecoverShardedCloud(
    const std::string& data_dir, const record::DatasetSpec& dataset,
    const ShardOptions& options) {
  // An unsharded (pre-shard) data dir keeps its MANIFEST and WAL at the
  // top level. Recovering it as shards would silently yield empty stores.
  if (durability::RecoveryManager::HasState(data_dir)) {
    return Status::FailedPrecondition(
        data_dir + " holds an unsharded durability layout (MANIFEST or wal-*"
                   " at the top level); move those files into " +
        ShardDataDir(data_dir, 0) + "/ and recover with --shards=1");
  }
  auto placement = ShardPlacement::Create(dataset, options);
  if (!placement.ok()) return placement.status();
  RecoveredShardedCloud out;
  out.cloud = std::make_unique<ShardedCloudServer>(*placement);
  for (size_t i = 0; i < placement->num_shards(); ++i) {
    RecoveredShardStats rs;
    rs.shard = i;
    // A shard directory that was never created (the deployment never ran
    // durable, or ran with fewer shards) is "no durable state", not an
    // I/O error: the shard comes back empty, like an empty directory.
    std::error_code ec;
    if (!std::filesystem::exists(ShardDataDir(data_dir, i), ec)) {
      out.shards.push_back(rs);
      continue;
    }
    auto rec = durability::RecoveryManager::Recover(ShardDataDir(data_dir, i));
    if (rec.ok()) {
      rs.recovered = true;
      rs.stats = rec->stats;
      if (Status st = out.cloud->AdoptShard(i, std::move(rec->server));
          !st.ok()) {
        return st;
      }
    } else if (rec.status().code() != StatusCode::kNotFound) {
      return rec.status();
    }
    out.shards.push_back(rs);
  }
  return out;
}

}  // namespace shard
}  // namespace fresque
