#include "shard/pipeline.h"

#include <algorithm>
#include <filesystem>
#include <future>
#include <utility>

#include "net/message.h"
#include "record/secure_codec.h"
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
  std::unique_ptr<BoundedQueue<IngressFrame>> ingress;
  std::unique_ptr<durability::Wal> wal;
  std::unique_ptr<durability::SnapshotManager> snapshots;
  std::unique_ptr<engine::CloudNode> cloud_node;
  std::unique_ptr<engine::FresqueCollector> collector;
  std::promise<Status> start_result;
  std::future<Status> start_future;
  std::thread worker;
  telemetry::Counter* records_in = nullptr;
};

ShardedPipeline::ShardedPipeline(ShardedPipelineConfig config,
                                 crypto::KeyManager keys)
    : config_(std::move(config)), keys_(std::move(keys)) {}

ShardedPipeline::~ShardedPipeline() {
  if (started_ && !shut_down_) (void)Shutdown();
}

Status ShardedPipeline::Start() {
  if (started_) return Status::FailedPrecondition("pipeline already started");
  if (config_.ingress_capacity == 0) {
    return Status::InvalidArgument("ingress_capacity must be >= 1");
  }
  if (auto st = config_.collector.Validate(); !st.ok()) return st;

  auto placement =
      ShardPlacement::Create(config_.collector.dataset, config_.shard);
  if (!placement.ok()) return placement.status();
  router_ = std::make_unique<ShardRouter>(*placement,
                                          config_.collector.dataset.parser);
  cloud_ = std::make_unique<ShardedCloudServer>(*placement);

  const size_t n = placement->num_shards();
  line_headroom_ = record::SecureRecordCodec::CiphertextHeadroom(
      config_.collector.dataset.parser->schema());
  route_buf_.clear();
  route_buf_.resize(n);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto s = std::make_unique<Shard>();
    s->index = i;
    s->ingress =
        std::make_unique<BoundedQueue<IngressFrame>>(config_.ingress_capacity);

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

  for (auto& s : shards_) {
    s->start_future = s->start_result.get_future();
    s->worker = std::thread(&ShardedPipeline::WorkerLoop, this, s.get());
  }
  Status first;
  for (auto& s : shards_) {
    Status st = s->start_future.get();
    if (!st.ok() && first.ok()) first = st;
  }
  if (!first.ok()) {
    StopAll();
    return first;
  }
  started_ = true;
  FRESQUE_GAUGE_SET("shard.count", static_cast<int64_t>(n));
  return Status::OK();
}

void ShardedPipeline::WorkerLoop(Shard* s) {
  Status st = s->collector->Start();
  s->start_result.set_value(st);
  if (!st.ok()) {
    // Drain-and-drop so a failed shard never wedges the router's
    // back-pressure; Start() tears everything down.
    s->ingress->Close();
    std::vector<IngressFrame> sink;
    while (s->ingress->PopBatch(&sink, net::kMaxBatch) > 0) sink.clear();
    return;
  }
  std::vector<IngressFrame> batch;
  batch.reserve(net::kMaxBatch);
  uint64_t open_lines = 0;
  for (;;) {
    batch.clear();
    const size_t got = s->ingress->PopBatch(&batch, net::kMaxBatch);
    if (got == 0) break;  // closed and drained
    for (auto& f : batch) {
      if (f.kind == IngressFrame::Kind::kPublish) {
        if (Status ps = s->collector->Publish(); !ps.ok()) NoteError(ps);
        open_lines = 0;
      } else {
        s->collector->SetIntervalProgress(f.progress);
        Status is =
            s->collector->Ingest(std::move(f.line), f.priority, f.born_ns);
        if (is.ok()) {
          ++open_lines;
        } else if (!is.IsOverloaded()) {
          // Sheds are normal under admission control (the collector
          // counts them); anything else is a real failure.
          NoteError(is);
        }
      }
    }
  }
  const uint64_t last_pn = s->collector->current_publication();
  if (Status ss = s->collector->Shutdown(); !ss.ok()) {
    NoteError(ss);
    return;
  }
  if (open_lines > 0) {
    // Shutdown() published the open interval; wait for the cloud ack so
    // callers returning from ShardedPipeline::Shutdown can query (or
    // snapshot) a complete store.
    Status acked = s->collector->WaitForPublication(last_pn,
                                                    std::chrono::seconds(30));
    if (!acked.ok()) NoteError(acked);
  }
}

Status ShardedPipeline::Ingest(std::string_view line,
                               engine::IngestPriority priority,
                               int64_t intended_born_ns) {
  if (!started_ || shut_down_) {
    return Status::FailedPrecondition("pipeline is not running");
  }
  const ShardRouter::Decision d = router_->Route(line);
  auto& buf = route_buf_[d.shard];
  IngressFrame f;
  f.kind = IngressFrame::Kind::kLine;
  // The line's one copy: this buffer becomes the record's frame payload
  // and, at the computing node, its ciphertext.
  f.line.reserve(line.size() + line_headroom_);
  f.line.assign(line.begin(), line.end());
  f.priority = priority;
  f.born_ns = intended_born_ns;
  f.progress = progress_;
  buf.push_back(std::move(f));
  shards_[d.shard]->records_in->Add(1);
  FRESQUE_COUNTER_ADD("shard.router.records", 1);
  if (!d.extracted) FRESQUE_COUNTER_ADD("shard.router.extract_fallbacks", 1);
  if (buf.size() >= net::kMaxBatch) FlushShard(d.shard);
  return Status::OK();
}

void ShardedPipeline::FlushShard(size_t i) {
  auto& buf = route_buf_[i];
  if (buf.empty()) return;
  // Blocks while the shard's queue is full: per-shard back-pressure, the
  // sharded analogue of the collector's blocking mailbox pushes. A closed
  // queue (failed shard mid-run) accepts fewer; the rejection is counted
  // by the queue and the shard's error is already noted.
  (void)shards_[i]->ingress->PushBatch(buf.data(), buf.size());
  buf.clear();
}

Status ShardedPipeline::Publish() {
  if (!started_ || shut_down_) {
    return Status::FailedPrecondition("pipeline is not running");
  }
  for (size_t i = 0; i < shards_.size(); ++i) FlushShard(i);
  IngressFrame barrier;
  barrier.kind = IngressFrame::Kind::kPublish;
  for (auto& s : shards_) {
    if (!s->ingress->Push(barrier)) {
      return Status::Internal("shard " + std::to_string(s->index) +
                              " ingress closed before publish barrier");
    }
  }
  pn_.fetch_add(1, std::memory_order_relaxed);
  progress_ = 0;
  return Status::OK();
}

Status ShardedPipeline::Shutdown() {
  if (!started_) return Status::FailedPrecondition("pipeline never started");
  if (shut_down_) return first_error();
  shut_down_ = true;
  for (size_t i = 0; i < shards_.size(); ++i) FlushShard(i);
  StopAll();
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

void ShardedPipeline::StopAll() {
  for (auto& s : shards_) s->ingress->Close();
  for (auto& s : shards_) {
    if (s->worker.joinable()) s->worker.join();
  }
  for (auto& s : shards_) {
    if (s->cloud_node != nullptr) {
      s->cloud_node->Shutdown();
      if (!s->cloud_node->first_error().ok()) {
        NoteError(s->cloud_node->first_error());
      }
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
    sm.ingress_depth = s->ingress->size();
    sm.ingress_high_watermark = s->ingress->high_watermark();
    sm.ingress_capacity = s->ingress->capacity();
    sm.view_epoch = cloud_->shard(i)->view_epoch();
    sm.publications = cloud_->shard(i)->num_publications();
    sm.records = cloud_->shard(i)->total_records();
    sm.collector = s->collector->Metrics();
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
  reg->GetGauge("shard.count")->Set(static_cast<int64_t>(shards_.size()));
  for (size_t i = 0; i < shards_.size(); ++i) {
    const std::string prefix = "shard." + std::to_string(i) + ".";
    reg->GetGauge(prefix + "ingress_depth")
        ->Set(static_cast<int64_t>(shards_[i]->ingress->size()));
    reg->GetGauge(prefix + "ingress_high_watermark")
        ->Set(static_cast<int64_t>(shards_[i]->ingress->high_watermark()));
    reg->GetGauge(prefix + "view_epoch")
        ->Set(static_cast<int64_t>(cloud_->shard(i)->view_epoch()));
    reg->GetGauge(prefix + "publications")
        ->Set(static_cast<int64_t>(cloud_->shard(i)->num_publications()));
    reg->GetGauge(prefix + "records")
        ->Set(static_cast<int64_t>(cloud_->shard(i)->total_records()));
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
