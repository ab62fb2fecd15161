#ifndef FRESQUE_ENGINE_CLOUD_NODE_H_
#define FRESQUE_ENGINE_CLOUD_NODE_H_

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "cloud/server.h"
#include "common/hot.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "durability/metrics.h"
#include "durability/snapshot_manager.h"
#include "durability/wal.h"
#include "engine/publication_tracker.h"
#include "index/matching.h"
#include "net/message.h"
#include "net/node.h"
#include "net/payloads.h"
#include "net/spare_buffers.h"

namespace fresque {
namespace telemetry {
class Counter;
}  // namespace telemetry

namespace engine {

/// Cloud front-end: a Node that applies incoming collector frames to a
/// CloudServer.
///
/// Handles both ingestion styles: `<leaf, e-record>` streams publish as
/// soon as the index arrives, while `<tag, e-record>` streams (PINED-RQ++)
/// install at their index with the matching table that precedes it on the
/// link (docs/PROTOCOL.md, ordering guarantee 7). A publication ends
/// exactly once, at its kIndexPublication frame.
///
/// Consecutive kCloudRecord frames of one publication in a popped batch
/// form a run that is stored, logged and counted with one call each
/// (CloudServer::IngestRecords, Wal::AppendRecords); any other frame, or
/// a publication change, ends the run, so per-link order is kept.
///
/// Once a run is stored and logged, the store holds its own copy of every
/// record, so a node paired with its collector's pool (ReturnBuffersTo)
/// gives each payload buffer back to the dispatcher that allocated it,
/// instead of freeing it on this thread. Nothing reads a payload after
/// that. A rejected run's buffers, and every buffer of an unpaired node,
/// are freed as before.
///
/// A node paired with its collector's PublicationTracker
/// (ReportPublicationsTo) completes each publication there by a direct
/// call once it installed (after its WAL install frame committed) or
/// failed to install or decode.
class CloudNode {
 public:
  /// `server` must outlive the node. Like every pipeline node it pops up
  /// to net::kMaxBatch frames at a time: record floods drain in full
  /// batches, a lone frame is handled the moment it arrives. A collector's
  /// barrier flushes up to RandomerBufferSize records at once, so
  /// ShardedPipeline sizes the inbox to hold one flush plus one mailbox.
  explicit CloudNode(cloud::CloudServer* server,
                     size_t mailbox_capacity = 8192);

  void Start() { node_.Start(); }
  /// Stops accepting frames, drains the inbox and joins the thread, then
  /// commits any WAL tail so open-publication records survive a restart,
  /// and waits for the snapshot write in flight.
  void Shutdown();

  /// Attaches a write-ahead log (and optionally a snapshot manager): every
  /// mutation the server accepts is then logged, and a publication
  /// completes as installed only after its install frame is durable per
  /// the WAL's fsync policy — completion means "will survive a crash".
  /// The WAL logs `<leaf, e-record>` streams only, so a durable node
  /// rejects every kCloudTaggedRecord and fails every tagged publication
  /// at its index, with FailedPrecondition, and stores nothing of them.
  /// Appends (and commits) a meta frame describing the server's binning so
  /// a log with no snapshot still recovers. Must be called before Start();
  /// `wal` and `snapshots` must outlive the node.
  Status AttachDurability(durability::Wal* wal,
                          durability::SnapshotManager* snapshots = nullptr);

  /// Counters of the attached WAL / snapshot manager (zeros when no
  /// durability is attached).
  durability::DurabilityMetrics durability_metrics() const;

  const net::MailboxPtr& inbox() const { return node_.inbox(); }

  /// Pairs the node with a collector's buffer pool
  /// (FresqueCollector::spare_buffers()): stored records' payload buffers
  /// go back there. Must be called before Start().
  void ReturnBuffersTo(net::SpareBuffersPtr spares) {
    spares_ = std::move(spares);
  }

  /// Pairs the node with a collector's publication tracker
  /// (FresqueCollector::publications()): every publication that installs,
  /// or fails to, completes there. Must be called before Start().
  void ReportPublicationsTo(std::shared_ptr<PublicationTracker> publications) {
    publications_ = std::move(publications);
  }

  /// First error the handler hit, if any (frames after an error are still
  /// processed; the first failure is sticky for post-run inspection).
  Status first_error() const FRESQUE_EXCLUDES(mu_);

  /// Matching stats of completed publications, by pn.
  std::vector<cloud::MatchingStats> matching_stats() const
      FRESQUE_EXCLUDES(mu_);

 private:
  /// Applies one popped batch, records in runs (see the class comment).
  FRESQUE_HOT bool HandleBatch(std::vector<net::Message>& batch)
      FRESQUE_EXCLUDES(mu_);
  /// Stores, logs and accounts the kCloudRecord frames run[0..n), all of
  /// one publication, as one run, then gives their payload buffers back
  /// when paired.
  FRESQUE_HOT void HandleRecordRun(net::Message* run, size_t n)
      FRESQUE_EXCLUDES(mu_);
  FRESQUE_HOT bool Handle(net::Message&& m) FRESQUE_EXCLUDES(mu_);
  void NoteError(const Status& st) FRESQUE_EXCLUDES(mu_);
  /// Decodes publication `pn` from `payload` and installs it: indexed, or
  /// with the matching table kept for it when the publication is tagged
  /// (it received tagged records or a table), which a durable node
  /// refuses. Clears `pn`'s pairing state.
  Result<cloud::MatchingStats> Install(uint64_t pn,
                                       std::shared_ptr<const Bytes> payload);
  /// Ends publication `pn` at its kIndexPublication frame with `outcome`
  /// (a decode failure is one too). On success, appends `publication` as
  /// the install frame and commits the WAL, the publication's durability
  /// point. Then counts the install or failure, emits its flight event,
  /// completes the paired tracker and, for a durable install, tells the
  /// snapshot manager. Runs outside mu_ (the fsync can stall).
  void EndPublication(uint64_t pn, int64_t born_ns, Status outcome,
                      const Bytes& publication) FRESQUE_EXCLUDES(mu_);

  cloud::CloudServer* server_;
  // Set once by AttachDurability before Start(); read by the handler
  // thread afterwards (the Start() thread creation orders the write).
  // fresque-lint: allow(guarded-by) set once by AttachDurability before Start()
  durability::Wal* wal_ = nullptr;
  // fresque-lint: allow(guarded-by) same set-once contract as wal_
  durability::SnapshotManager* snapshots_ = nullptr;
  // fresque-lint: allow(guarded-by) set once by ReturnBuffersTo before Start()
  net::SpareBuffersPtr spares_;
  // fresque-lint: allow(guarded-by) set once before Start(), like spares_
  std::shared_ptr<PublicationTracker> publications_;
  // Registered when the node is built, so a dump holds their zeros.
  telemetry::Counter* records_in_;
  telemetry::Counter* records_rejected_;
  telemetry::Counter* publications_installed_;
  telemetry::Counter* publications_failed_;
  mutable Mutex mu_;
  Status first_error_ FRESQUE_GUARDED_BY(mu_);
  std::vector<cloud::MatchingStats> stats_ FRESQUE_GUARDED_BY(mu_);
  // PINED-RQ++ pairing state: publications that received tagged records,
  // and each kMatchingTable (decoded, or its decode failure) until the
  // index that follows it.
  // fresque-lint: allow(guarded-by) confined to the node thread
  std::set<uint64_t> tagged_pns_;
  // fresque-lint: allow(guarded-by) confined to the node thread
  std::map<uint64_t, Result<index::MatchingTable>> tables_;
  /// Scratch of HandleRecordRun, reused across runs.
  // fresque-lint: allow(guarded-by) confined to the node thread
  std::vector<cloud::LeafRecord> run_;
  // fresque-lint: allow(guarded-by) confined to the node thread
  std::vector<uint64_t> e2e_ns_;
  net::Node node_;
};

}  // namespace engine
}  // namespace fresque

#endif  // FRESQUE_ENGINE_CLOUD_NODE_H_
