#include "engine/pined_rqpp_parallel.h"

#include "common/clock.h"
#include "common/logging.h"
#include "engine/publication.h"
#include "net/payloads.h"

namespace fresque {
namespace engine {

/// Updater + encrypter on one worker node. Receives either a parsed
/// record (payload = RecordCodec bytes, leaf in the envelope) or a dummy
/// directive; updates the shared template/table, encrypts, streams the
/// `<tag, e-record>` pair to the cloud.
class ParallelPinedRqPpCollector::Worker {
 public:
  Worker(size_t id, const CollectorConfig& config,
         const index::DomainBinning& binning, SharedState* shared,
         const crypto::KeyManager* keys, net::MailboxPtr cloud,
         BoundedQueue<int>* acks)
      : id_(id),
        config_(config),
        shared_(shared),
        keys_(keys),
        cloud_(std::move(cloud)),
        acks_(acks),
        rng_(config.seed ^ (0xABCD1234u + id)),
        local_counts_(MakeZeroTree(binning, config.fanout)),
        node_("pp-worker" + std::to_string(id),
              net::MakeMailbox(config.mailbox_capacity),
              [this](std::vector<net::Message>& batch) {
                for (auto& m : batch) {
                  if (!Handle(std::move(m))) return false;
                }
                return true;
              }) {}

  static index::HistogramIndex MakeZeroTree(
      const index::DomainBinning& binning, size_t fanout) {
    auto layout = index::IndexLayout::Create(binning.num_bins(), fanout);
    return index::HistogramIndex(std::move(layout).ValueOrDie(), binning);
  }

  void Start() { node_.Start(); }
  void Join() { node_.Join(); }
  const net::MailboxPtr& inbox() const { return node_.inbox(); }

 private:
  bool Handle(net::Message&& m) {
    switch (m.type) {
      case net::MessageType::kTaggedRecord:
        HandleRecord(std::move(m));
        return true;
      case net::MessageType::kPublish:
        FlushPartition();
        acks_->Push(1);
        return true;
      case net::MessageType::kShutdown:
        acks_->Push(1);
        return false;
      default:
        FRESQUE_LOG(Warn) << "pp worker: unexpected "
                          << net::MessageTypeToString(m.type);
        return true;
    }
  }

  /// Hands this interval's partial counts/table to the dispatcher and
  /// resets for the next interval. Runs once per publish (cold path).
  void FlushPartition() {
    index::HistogramIndex fresh =
        MakeZeroTree(local_counts_.binning(), config_.fanout);
    MutexLock lock(shared_->mu);
    if (id_ < shared_->worker_tables.size()) {
      shared_->worker_tables[id_] = std::move(local_table_);
      shared_->worker_counts[id_] = std::move(local_counts_);
    }
    local_table_ = index::MatchingTable();
    local_counts_ = std::move(fresh);
  }

  void HandleRecord(net::Message&& m) {
    auto* codec = CodecFor(m.pn);
    if (codec == nullptr) return;
    uint64_t tag = rng_.NextU64();

    // Updater: each worker maintains its own partition of the template
    // counts and matching table (distributed updater, Figure 5); the
    // partitions merge at publish.
    if (!m.dummy) {
      local_counts_.AddAlongPath(static_cast<size_t>(m.leaf), 1);
    }
    Status st = local_table_.Add(tag, static_cast<uint32_t>(m.leaf));
    if (!st.ok()) {
      FRESQUE_LOG(Warn) << "pp worker tag collision: " << st.ToString();
      return;
    }

    // Encrypter.
    auto ct = m.dummy ? codec->EncryptDummy(config_.dummy_padding_len)
                      : codec->EncryptSerializedRecord(m.payload);
    if (!ct.ok()) {
      FRESQUE_LOG(Warn) << "pp worker encrypt: " << ct.status().ToString();
      return;
    }
    net::Message out;
    out.type = net::MessageType::kCloudTaggedRecord;
    out.pn = m.pn;
    out.leaf = tag;
    out.payload = std::move(*ct);
    cloud_->Push(std::move(out));
  }

  record::SecureRecordCodec* CodecFor(uint64_t pn) {
    if (!codec_ || codec_pn_ != pn) {
      auto c = record::SecureRecordCodec::Create(
          keys_->RecordKey(pn), &config_.dataset.parser->schema(), &rng_);
      if (!c.ok()) {
        FRESQUE_LOG(Error) << "pp worker codec: " << c.status().ToString();
        return nullptr;
      }
      codec_.emplace(std::move(c).ValueOrDie());
      codec_pn_ = pn;
    }
    return &*codec_;
  }

  size_t id_;
  const CollectorConfig& config_;
  SharedState* shared_;
  const crypto::KeyManager* keys_;
  net::MailboxPtr cloud_;
  BoundedQueue<int>* acks_;
  crypto::SecureRandom rng_;
  index::MatchingTable local_table_;
  index::HistogramIndex local_counts_;
  std::optional<record::SecureRecordCodec> codec_;
  uint64_t codec_pn_ = ~0ULL;
  net::Node node_;
};

ParallelPinedRqPpCollector::ParallelPinedRqPpCollector(
    CollectorConfig config, crypto::KeyManager key_manager,
    net::MailboxPtr cloud_inbox)
    : config_(std::move(config)),
      key_manager_(std::move(key_manager)),
      cloud_inbox_(std::move(cloud_inbox)),
      rng_(config_.seed ^ 0x9B1EAA) {}

ParallelPinedRqPpCollector::~ParallelPinedRqPpCollector() {
  if (started_ && !shut_down_) {
    Status st = Shutdown();
    if (!st.ok()) {
      FRESQUE_LOG(Warn) << "pp shutdown in destructor: " << st.ToString();
    }
  }
}

Status ParallelPinedRqPpCollector::Start() {
  if (started_) return Status::FailedPrecondition("already started");
  auto binning = index::DomainBinning::Create(config_.dataset.domain_min,
                                              config_.dataset.domain_max,
                                              config_.dataset.bin_width);
  if (!binning.ok()) return binning.status();
  binning_.emplace(std::move(binning).ValueOrDie());
  if (config_.num_computing_nodes == 0) {
    return Status::InvalidArgument("need at least one worker");
  }
  for (size_t i = 0; i < config_.num_computing_nodes; ++i) {
    workers_.push_back(std::make_unique<Worker>(i, config_, *binning_,
                                                &shared_, &key_manager_,
                                                cloud_inbox_,
                                                &publish_acks_));
  }
  for (auto& w : workers_) w->Start();
  started_ = true;
  return OpenInterval();
}

Status ParallelPinedRqPpCollector::OpenInterval() {
  Stopwatch watch;
  auto tmpl = index::IndexTemplate::Create(*binning_, config_.fanout,
                                           config_.epsilon, &rng_);
  if (!tmpl.ok()) return tmpl.status();
  {
    MutexLock lock(shared_.mu);
    shared_.tmpl.emplace(tmpl->noise_index());
    shared_.worker_tables.assign(config_.num_computing_nodes,
                                 index::MatchingTable());
    shared_.worker_counts.assign(
        config_.num_computing_nodes,
        Worker::MakeZeroTree(*binning_, config_.fanout));
  }
  schedule_.emplace(tmpl->leaf_noise(), &rng_);
  removed_.clear();
  progress_ = 0;
  real_count_ = 0;
  dummy_count_ = 0;

  auto codec = record::SecureRecordCodec::Create(
      key_manager_.RecordKey(pn_), &config_.dataset.parser->schema(), &rng_);
  if (!codec.ok()) return codec.status();
  codec_.emplace(std::move(codec).ValueOrDie());

  net::Message start;
  start.type = net::MessageType::kPublicationStart;
  start.pn = pn_;
  cloud_inbox_->Push(std::move(start));

  init_millis_ = watch.ElapsedMillis();
  return Status::OK();
}

Status ParallelPinedRqPpCollector::ReleaseDueDummies(double progress) {
  for (uint32_t leaf : schedule_->Due(progress)) {
    net::Message d;
    d.type = net::MessageType::kTaggedRecord;
    d.pn = pn_;
    d.leaf = leaf;
    d.dummy = true;
    workers_[rr_++ % workers_.size()]->inbox()->Push(std::move(d));
    ++dummy_count_;
  }
  return Status::OK();
}

Status ParallelPinedRqPpCollector::Ingest(std::string_view line) {
  if (!started_ || shut_down_) {
    return Status::FailedPrecondition("collector not running");
  }
  FRESQUE_RETURN_NOT_OK(ReleaseDueDummies(progress_));

  // Parser — sequential at the dispatcher (the paper's key bottleneck).
  auto rec = config_.dataset.parser->Parse(line);
  if (!rec.ok()) {
    ++parse_errors_;
    return Status::OK();
  }
  auto v = rec->IndexedValue(config_.dataset.parser->schema());
  if (!v.ok() || *v < binning_->domain_min() || *v >= binning_->domain_max()) {
    ++parse_errors_;
    return Status::OK();
  }

  // Checker — also sequential: reads the shared template.
  size_t leaf;
  bool remove;
  {
    MutexLock lock(shared_.mu);
    leaf = shared_.tmpl->WalkToLeaf(*v);
    remove = shared_.tmpl->leaf_count(leaf) < 0;
    if (remove) shared_.tmpl->AddAlongPath(leaf, 1);
  }
  ++real_count_;
  if (remove) {
    removed_.emplace_back(leaf, std::move(*rec));
    return Status::OK();
  }

  // Hand the parsed record to a worker for update + encryption.
  record::RecordCodec rc(&config_.dataset.parser->schema());
  auto body = rc.Serialize(*rec);
  if (!body.ok()) return body.status();
  net::Message m;
  m.type = net::MessageType::kTaggedRecord;
  m.pn = pn_;
  m.leaf = leaf;
  m.payload = std::move(*body);
  workers_[rr_++ % workers_.size()]->inbox()->Push(std::move(m));
  return Status::OK();
}

Status ParallelPinedRqPpCollector::Publish() {
  if (!started_ || shut_down_) {
    return Status::FailedPrecondition("collector not running");
  }
  FRESQUE_RETURN_NOT_OK(ReleaseDueDummies(1.0));

  Stopwatch watch;
  PublishReport report;
  report.pn = pn_;
  report.dummy_records = dummy_count_;
  report.removed_records = removed_.size();
  report.real_records = real_count_;

  // Synchronous barrier: wait for every worker to drain this interval.
  for (auto& w : workers_) {
    net::Message p;
    p.type = net::MessageType::kPublish;
    p.pn = pn_;
    w->inbox()->Push(std::move(p));
  }
  for (size_t i = 0; i < workers_.size(); ++i) publish_acks_.Pop();

  // Sequentially encrypt the removed records.
  std::vector<RemovedRecord> removed;
  removed.reserve(removed_.size());
  for (auto& [leaf, rec] : removed_) {
    auto ct = codec_->EncryptRecord(rec);
    if (!ct.ok()) return ct.status();
    removed.push_back({leaf, std::move(*ct)});
  }

  // Merge the worker partitions: every partial count tree adds onto the
  // checker's template (noise + removed-record counts); the matching
  // tables concatenate (tags are 64-bit random, collisions negligible).
  index::HistogramIndex final_index = [&] {
    MutexLock lock(shared_.mu);
    index::HistogramIndex merged = *shared_.tmpl;
    for (const auto& partial : shared_.worker_counts) {
      auto sum = merged.Plus(partial);
      if (sum.ok()) merged = std::move(*sum);
    }
    return merged;
  }();
  index::MatchingTable final_table = [&] {
    MutexLock lock(shared_.mu);
    index::MatchingTable merged;
    for (const auto& partial : shared_.worker_tables) {
      for (const auto& [tag, leaf] : partial.entries()) {
        Status st = merged.Add(tag, leaf);
        if (!st.ok()) {
          FRESQUE_LOG(Warn) << "matching merge: " << st.ToString();
        }
      }
    }
    return merged;
  }();

  auto encoded =
      EncodePublication(config_, key_manager_, pn_, std::move(final_index),
                        std::move(removed), &*codec_, &rng_);
  if (!encoded.ok()) return encoded.status();

  net::Message table_msg;
  table_msg.type = net::MessageType::kMatchingTable;
  table_msg.pn = pn_;
  table_msg.payload = net::EncodeMatchingTable(final_table);
  cloud_inbox_->Push(std::move(table_msg));

  net::Message pub;
  pub.type = net::MessageType::kIndexPublication;
  pub.pn = pn_;
  pub.payload = std::move(encoded->payload);
  cloud_inbox_->Push(std::move(pub));

  report.dispatcher_millis = init_millis_ + watch.ElapsedMillis();
  reports_.push_back(report);
  ++pn_;
  return OpenInterval();
}

Status ParallelPinedRqPpCollector::Shutdown() {
  if (!started_) return Status::FailedPrecondition("never started");
  if (shut_down_) return Status::OK();
  shut_down_ = true;
  for (auto& w : workers_) {
    net::Message s;
    s.type = net::MessageType::kShutdown;
    w->inbox()->Push(std::move(s));
  }
  for (auto& w : workers_) w->Join();
  net::Message s;
  s.type = net::MessageType::kShutdown;
  cloud_inbox_->Push(std::move(s));
  return Status::OK();
}

}  // namespace engine
}  // namespace fresque
