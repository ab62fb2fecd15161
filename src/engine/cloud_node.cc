#include "engine/cloud_node.h"

#include "common/logging.h"
#include "obs/flight.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace fresque {
namespace engine {

CloudNode::CloudNode(cloud::CloudServer* server, size_t mailbox_capacity)
    : server_(server),
      node_("cloud", net::MakeMailbox(mailbox_capacity),
            [this](std::vector<net::Message>& batch) {
              return HandleBatch(batch);
            }) {}

bool CloudNode::HandleBatch(std::vector<net::Message>& batch) {
  for (size_t i = 0; i < batch.size();) {
    if (batch[i].type != net::MessageType::kCloudRecord) {
      if (!Handle(std::move(batch[i]))) return false;
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < batch.size() &&
           batch[j].type == net::MessageType::kCloudRecord &&
           batch[j].pn == batch[i].pn) {
      ++j;
    }
    HandleRecordRun(&batch[i], j - i);
    i = j;
  }
  return true;
}

void CloudNode::HandleRecordRun(net::Message* run, size_t n) {
  const uint64_t pn = run[0].pn;
  run_.clear();
  for (size_t i = 0; i < n; ++i) {
    run_.push_back({static_cast<uint32_t>(run[i].leaf), run[i].payload});
  }
  Status st = server_->IngestRecords(pn, run_);
  // Log after apply: only accepted mutations reach the WAL, so replay
  // through the same API is deterministic.
  if (st.ok() && wal_ != nullptr) st = wal_->AppendRecords(pn, run_);
  if (!st.ok()) {
    FRESQUE_COUNTER_ADD("cloud.records_rejected", n);
    NoteError(st);
    return;
  }
  FRESQUE_COUNTER_ADD("cloud.records_in", n);
  // End of each record's pipeline: dispatcher stamp -> parse ->
  // check/randomer -> cloud ingest (+ WAL stage). One clock read covers
  // the run; every stamped record is still one e2e sample.
  const int64_t now_ns = telemetry::NowNanos();
  e2e_ns_.clear();
  for (size_t i = 0; i < n; ++i) {
    if (run[i].born_ns == 0) continue;
    const int64_t e2e = now_ns - run[i].born_ns;
    e2e_ns_.push_back(e2e > 0 ? static_cast<uint64_t>(e2e) : 0);
  }
  if (!e2e_ns_.empty()) {
    FRESQUE_HISTOGRAM_RECORD_MANY("pipeline.record_e2e_ns", e2e_ns_.data(),
                                  e2e_ns_.size());
    FRESQUE_OBS_E2E_SAMPLES(e2e_ns_.data(), e2e_ns_.size(), now_ns);
  }
  if (spares_ == nullptr) return;
  // The store and the WAL have copied every record; run_'s spans into the
  // payloads die here, before the buffers go back to the dispatcher.
  run_.clear();
  for (size_t i = 0; i < n; ++i) spares_->Give(std::move(run[i].payload));
}

void CloudNode::Shutdown() {
  node_.Stop();
  node_.Join();
  // Open publications have record frames staged in the WAL; make them
  // durable so a stop-start cycle (not just a crash) loses nothing.
  if (wal_ != nullptr) NoteError(wal_->Commit());
  // Recovery and final snapshots read the data dir once this returns, so
  // the background snapshot write must be done with it.
  if (snapshots_ != nullptr) NoteError(snapshots_->Drain());
}

Status CloudNode::AttachDurability(durability::Wal* wal,
                                   durability::SnapshotManager* snapshots) {
  wal_ = wal;
  snapshots_ = snapshots;
  const index::DomainBinning& b = server_->binning();
  Status st = wal_->AppendMeta(b.domain_min(), b.domain_max(), b.bin_width());
  if (st.ok()) st = wal_->Commit();
  return st;
}

durability::DurabilityMetrics CloudNode::durability_metrics() const {
  durability::DurabilityMetrics m;
  if (wal_ != nullptr) wal_->FillMetrics(&m);
  if (snapshots_ != nullptr) snapshots_->FillMetrics(&m);
  return m;
}

Status CloudNode::LogInstall(uint64_t pn,
                             const std::shared_ptr<const Bytes>& publication,
                             const Bytes& table, bool tagged) {
  if (wal_ == nullptr) return Status::OK();
  Status st = tagged ? wal_->AppendInstallTagged(pn, *publication, table)
                     : wal_->AppendInstall(pn, *publication);
  if (st.ok()) st = wal_->Commit();
  return st;
}

void CloudNode::NoteDurableInstall() {
  if (snapshots_ == nullptr) return;
  // A snapshot failure is not an ack failure: the WAL already made the
  // install durable. Record it and keep serving.
  NoteError(snapshots_->NoteInstall());
}

void CloudNode::RouteAcksTo(net::MailboxPtr acks) {
  MutexLock lock(mu_);
  ack_outbox_ = std::move(acks);
}

void CloudNode::Ack(uint64_t pn, const Status& st) {
  net::MailboxPtr out;
  {
    MutexLock lock(mu_);
    out = ack_outbox_;
  }
  if (!out) return;
  net::Message ack;
  ack.type = net::MessageType::kPublicationAck;
  ack.pn = pn;
  ack.leaf = st.ok() ? 0 : 1;
  if (!st.ok()) {
    // fresque-lint: allow(hot-alloc) nack detail built only for failed publications
    std::string reason = st.ToString();
    ack.payload.assign(reason.begin(), reason.end());
  }
  out->Push(std::move(ack));
}

Status CloudNode::first_error() const {
  MutexLock lock(mu_);
  return first_error_;
}

std::vector<cloud::MatchingStats> CloudNode::matching_stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void CloudNode::NoteError(const Status& st) {
  if (st.ok()) return;
  MutexLock lock(mu_);
  if (first_error_.ok()) {
    first_error_ = st;
    FRESQUE_LOG(Warn) << "cloud node error: " << st.ToString();
  }
}

std::optional<Status> CloudNode::TryFinishTagged(
    uint64_t pn, std::shared_ptr<const Bytes>* wal_publication,
    Bytes* wal_table) {
  auto idx_it = pending_index_.find(pn);
  auto tab_it = pending_table_.find(pn);
  if (idx_it == pending_index_.end() || tab_it == pending_table_.end()) {
    return std::nullopt;
  }
  std::shared_ptr<const Bytes> payload;
  if (auto pit = pending_payload_.find(pn); pit != pending_payload_.end()) {
    payload = std::move(pit->second);
    pending_payload_.erase(pit);
  }
  if (wal_ != nullptr) *wal_publication = payload;  // logged after install
  auto stats = server_->PublishWithMatchingTable(
      pn, std::move(idx_it->second), tab_it->second, std::move(payload));
  pending_index_.erase(idx_it);
  pending_table_.erase(tab_it);
  tagged_pns_.erase(pn);
  if (auto tp = pending_table_payload_.find(pn);
      tp != pending_table_payload_.end()) {
    if (wal_ != nullptr) *wal_table = std::move(tp->second);
    pending_table_payload_.erase(tp);
  }
  if (!stats.ok()) {
    if (first_error_.ok()) first_error_ = stats.status();
    return stats.status();
  }
  stats_.push_back(*stats);
  return Status::OK();
}

bool CloudNode::Handle(net::Message&& m) {
  switch (m.type) {
    case net::MessageType::kPublicationStart: {
      Status st = server_->StartPublication(m.pn);
      if (st.ok() && wal_ != nullptr) st = wal_->AppendStart(m.pn);
      FRESQUE_FLIGHT_EVENT(kPublication, "cloud publication started", m.pn,
                           st.ok() ? 0 : 1, 0);
      NoteError(st);
      return true;
    }
    case net::MessageType::kCloudTaggedRecord: {
      {
        MutexLock lock(mu_);
        tagged_pns_.insert(m.pn);
      }
      Status st = server_->IngestTagged(m.pn, m.leaf, m.payload);
      if (st.ok() && wal_ != nullptr) {
        st = wal_->AppendTagged(m.pn, m.leaf, m.payload);
      }
      if (st.ok()) {
        FRESQUE_COUNTER_ADD("cloud.records_in", 1);
        if (m.born_ns != 0) {
          const int64_t now_ns = telemetry::NowNanos();
          const int64_t e2e_ns = now_ns - m.born_ns;
          FRESQUE_HISTOGRAM_RECORD("pipeline.record_e2e_ns", e2e_ns);
          FRESQUE_OBS_E2E_SAMPLE(e2e_ns, now_ns);
        }
      } else {
        FRESQUE_COUNTER_ADD("cloud.records_rejected", 1);
      }
      NoteError(st);
      return true;
    }
    case net::MessageType::kIndexPublication: {
      // The payload becomes the publication's one buffer: the installed
      // overflow arrays read from it, it is the evidence, and it is what
      // the WAL logs (DESIGN.md §12.5).
      // fresque-lint: allow(hot-alloc) one buffer per publication install, not per record
      auto payload = std::make_shared<const Bytes>(std::move(m.payload));
      auto pub = net::DecodeSharedIndexPublication(payload);
      if (!pub.ok()) {
        NoteError(pub.status());
        Ack(m.pn, pub.status());
        return true;
      }
      std::optional<Status> outcome;
      std::shared_ptr<const Bytes> wal_publication;
      Bytes wal_table;
      bool tagged = false;
      {
        MutexLock lock(mu_);
        if (tagged_pns_.count(m.pn)) {
          tagged = true;
          pending_index_.emplace(m.pn, std::move(*pub));
          pending_payload_[m.pn] = std::move(payload);
          outcome = TryFinishTagged(m.pn, &wal_publication, &wal_table);
        } else {
          if (wal_ != nullptr) wal_publication = payload;
          auto stats = server_->PublishIndexed(m.pn, std::move(*pub),
                                               std::move(payload));
          if (!stats.ok()) {
            if (first_error_.ok()) first_error_ = stats.status();
            outcome = stats.status();
          } else {
            stats_.push_back(*stats);
            outcome = Status::OK();
          }
        }
      }
      // Durability point, outside mu_ (fsync can stall): the success ack
      // is sent only after the install frame is committed.
      if (outcome.has_value() && outcome->ok()) {
        Status logged = LogInstall(m.pn, wal_publication, wal_table, tagged);
        if (!logged.ok()) {
          NoteError(logged);
          outcome = logged;
        }
      }
      // Ack outside mu_: the push may block on a full ack mailbox.
      if (outcome.has_value()) {
        if (outcome->ok()) {
          FRESQUE_COUNTER_ADD("cloud.publications_installed", 1);
          // The install published a new query-view epoch; surface it so
          // operators can correlate query snapshots with installs.
          FRESQUE_GAUGE_SET("cloud.view_epoch", server_->view_epoch());
          // Publish-barrier stamp -> flush -> merge -> install + WAL
          // commit: the paper's "publication latency".
          if (m.born_ns != 0) {
            FRESQUE_HISTOGRAM_RECORD(
                "pipeline.publish_e2e_ns",
                telemetry::NowNanos() - m.born_ns);
          }
          FRESQUE_FLIGHT_EVENT(kPublication, "cloud publication installed",
                               m.pn, server_->view_epoch(), 0);
        } else {
          FRESQUE_COUNTER_ADD("cloud.publications_failed", 1);
          FRESQUE_FLIGHT_EVENT(kPublication, "cloud publication failed", m.pn,
                               0, 0);
        }
        Ack(m.pn, *outcome);
        if (outcome->ok()) NoteDurableInstall();
      }
      return true;
    }
    case net::MessageType::kMatchingTable: {
      auto table = net::DecodeMatchingTable(m.payload);
      if (!table.ok()) {
        NoteError(table.status());
        Ack(m.pn, table.status());
        return true;
      }
      std::optional<Status> outcome;
      std::shared_ptr<const Bytes> wal_publication;
      Bytes wal_table;
      {
        MutexLock lock(mu_);
        pending_table_.emplace(m.pn, std::move(*table));
        if (wal_ != nullptr) pending_table_payload_[m.pn] = std::move(m.payload);
        outcome = TryFinishTagged(m.pn, &wal_publication, &wal_table);
      }
      if (outcome.has_value() && outcome->ok()) {
        Status logged =
            LogInstall(m.pn, wal_publication, wal_table, /*tagged=*/true);
        if (!logged.ok()) {
          NoteError(logged);
          outcome = logged;
        }
      }
      if (outcome.has_value()) {
        if (outcome->ok()) {
          FRESQUE_COUNTER_ADD("cloud.publications_installed", 1);
          FRESQUE_GAUGE_SET("cloud.view_epoch", server_->view_epoch());
          FRESQUE_FLIGHT_EVENT(kPublication, "cloud publication installed",
                               m.pn, server_->view_epoch(), 0);
        } else {
          FRESQUE_COUNTER_ADD("cloud.publications_failed", 1);
          FRESQUE_FLIGHT_EVENT(kPublication, "cloud publication failed", m.pn,
                               0, 0);
        }
        Ack(m.pn, *outcome);
        if (outcome->ok()) NoteDurableInstall();
      }
      return true;
    }
    case net::MessageType::kShutdown:
      return false;
    default:
      NoteError(Status::Internal(
          std::string("cloud node got unexpected frame ") +
          net::MessageTypeToString(m.type)));
      return true;
  }
}

}  // namespace engine
}  // namespace fresque
