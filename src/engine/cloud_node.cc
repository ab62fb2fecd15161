#include "engine/cloud_node.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "obs/flight.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace fresque {
namespace engine {

namespace {

// The WAL's grammar has no tagged frames (durability/wal.cc).
constexpr char kTaggedNotLogged[] =
    "a durable cloud node logs only <leaf, e-record> streams; "
    "PINED-RQ++ tagged frames are refused";

}  // namespace

CloudNode::CloudNode(cloud::CloudServer* server, size_t mailbox_capacity)
    : server_(server),
      records_in_(
          telemetry::Registry::Global()->GetCounter("cloud.records_in")),
      records_rejected_(telemetry::Registry::Global()->GetCounter(
          "cloud.records_rejected")),
      publications_installed_(telemetry::Registry::Global()->GetCounter(
          "cloud.publications_installed")),
      publications_failed_(telemetry::Registry::Global()->GetCounter(
          "cloud.publications_failed")),
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
    records_rejected_->Add(n);
    NoteError(st);
    return;
  }
  records_in_->Add(n);
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

Result<cloud::MatchingStats> CloudNode::Install(
    uint64_t pn, std::shared_ptr<const Bytes> payload) {
  auto table = tables_.extract(pn);
  const bool had_records = tagged_pns_.erase(pn) > 0;
  if (table.empty() && !had_records) {
    return server_->PublishIndexed(pn, std::move(payload));
  }
  if (wal_ != nullptr) return Status::FailedPrecondition(kTaggedNotLogged);
  if (table.empty()) {
    return Status::FailedPrecondition(
        "tagged publication " + std::to_string(pn) +
        ": index arrived without its matching table");
  }
  if (!table.mapped().ok()) return table.mapped().status();
  return server_->PublishWithMatchingTable(pn, std::move(payload),
                                           *table.mapped());
}

void CloudNode::EndPublication(uint64_t pn, int64_t born_ns, Status outcome,
                               const Bytes& publication) {
  // Durability point: a publication completes as installed only after its
  // install frame is committed.
  if (outcome.ok() && wal_ != nullptr) {
    outcome = wal_->AppendInstall(pn, publication);
    if (outcome.ok()) outcome = wal_->Commit();
  }
  if (outcome.ok()) {
    publications_installed_->Add(1);
    // Publish-barrier stamp -> flush -> merge -> install + WAL commit: the
    // paper's "publication latency".
    if (born_ns != 0) {
      FRESQUE_HISTOGRAM_RECORD("pipeline.publish_e2e_ns",
                               telemetry::NowNanos() - born_ns);
    }
    FRESQUE_FLIGHT_EVENT(kPublication, "cloud publication installed", pn,
                         server_->view_epoch(), 0);
  } else {
    NoteError(outcome);
    publications_failed_->Add(1);
    FRESQUE_FLIGHT_EVENT(kPublication, "cloud publication failed", pn, 0, 0);
  }
  const bool installed = outcome.ok();
  if (publications_ != nullptr) publications_->Complete(pn, std::move(outcome));
  // A snapshot failure is not a publication failure: the WAL already made
  // the install durable. Record it and keep serving.
  if (installed && snapshots_ != nullptr) NoteError(snapshots_->NoteInstall());
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
      tagged_pns_.insert(m.pn);
      // A durable node refuses it: the WAL has no frame for it.
      Status st = wal_ != nullptr
                      ? Status::FailedPrecondition(kTaggedNotLogged)
                      : server_->IngestTagged(m.pn, m.leaf, m.payload);
      if (st.ok()) {
        records_in_->Add(1);
        if (m.born_ns != 0) {
          const int64_t now_ns = telemetry::NowNanos();
          const int64_t e2e_ns = now_ns - m.born_ns;
          FRESQUE_HISTOGRAM_RECORD("pipeline.record_e2e_ns", e2e_ns);
          FRESQUE_OBS_E2E_SAMPLE(e2e_ns, now_ns);
        }
      } else {
        records_rejected_->Add(1);
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
      ended_through_ = std::max(ended_through_, m.pn + 1);
      auto stats = Install(m.pn, payload);
      if (stats.ok()) {
        MutexLock lock(mu_);
        stats_.push_back(*stats);
      }
      EndPublication(m.pn, m.born_ns, stats.status(), *payload);
      return true;
    }
    case net::MessageType::kMatchingTable:
      // Kept, decoded or not, for the index that follows it on the link.
      // Tagged publications end in pn order, so a table below
      // `ended_through_` arrived after its index and has nothing to pair
      // with (docs/PROTOCOL.md, ordering guarantee 7).
      if (m.pn < ended_through_) {
        NoteError(Status::FailedPrecondition(
            "matching table for publication " + std::to_string(m.pn) +
            " arrived after its index"));
        return true;
      }
      tables_.insert_or_assign(m.pn, net::DecodeMatchingTable(m.payload));
      return true;
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
