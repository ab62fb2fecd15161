#ifndef FRESQUE_ENGINE_CLOUD_NODE_H_
#define FRESQUE_ENGINE_CLOUD_NODE_H_

#include <map>
#include <memory>
#include <optional>
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
#include "index/matching.h"
#include "net/message.h"
#include "net/node.h"
#include "net/payloads.h"
#include "net/spare_buffers.h"

namespace fresque {
namespace engine {

/// Cloud front-end: a Node that applies incoming collector frames to a
/// CloudServer.
///
/// Handles both ingestion styles: `<leaf, e-record>` streams publish as
/// soon as the index arrives, while `<tag, e-record>` streams (PINED-RQ++)
/// wait until *both* the index publication and the matching table are
/// here, pairing them by publication number.
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
  /// commits any WAL tail so open-publication records survive a restart.
  void Shutdown();

  /// Attaches a write-ahead log (and optionally a snapshot manager): every
  /// mutation the server accepts is then logged, and a publication's
  /// success ack is sent only after its install frame is durable per the
  /// WAL's fsync policy — kPublicationAck means "will survive a crash".
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

  /// Routes a kPublicationAck back to `acks` whenever a publication
  /// finishes installing (or fails to): `leaf == 0` on success, nonzero
  /// with the reason in `payload` on failure. Pass a collector's
  /// publication_acks() mailbox to close the publish -> ack loop.
  /// Thread-safe; may be called before or after Start().
  void RouteAcksTo(net::MailboxPtr acks) FRESQUE_EXCLUDES(mu_);

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
  /// Attempts the deferred PINED-RQ++ publish; returns its outcome once
  /// both halves (index + table) are present. On success, when a WAL is
  /// attached, copies the verbatim publication / table payloads into the
  /// out-params so the caller can log the install outside mu_.
  std::optional<Status> TryFinishTagged(uint64_t pn, Bytes* wal_publication,
                                        Bytes* wal_table)
      FRESQUE_REQUIRES(mu_);
  /// Appends the install frame and commits the WAL (durability point of a
  /// publication). No-op without an attached WAL.
  Status LogInstall(uint64_t pn, const Bytes& publication, const Bytes& table,
                    bool tagged) FRESQUE_EXCLUDES(mu_);
  /// Counts a durable install with the snapshot manager (which may decide
  /// to write a snapshot now). No-op without one.
  void NoteDurableInstall() FRESQUE_EXCLUDES(mu_);
  /// Pushes a kPublicationAck for `pn` if ack routing is configured.
  /// Takes mu_ only to snapshot the outbox: the (possibly blocking) push
  /// happens with no lock held.
  void Ack(uint64_t pn, const Status& st) FRESQUE_EXCLUDES(mu_);

  cloud::CloudServer* server_;
  // Set once by AttachDurability before Start(); read by the handler
  // thread afterwards (the Start() thread creation orders the write).
  // fresque-lint: allow(guarded-by) set once by AttachDurability before Start()
  durability::Wal* wal_ = nullptr;
  // fresque-lint: allow(guarded-by) same set-once contract as wal_
  durability::SnapshotManager* snapshots_ = nullptr;
  // fresque-lint: allow(guarded-by) set once by ReturnBuffersTo before Start()
  net::SpareBuffersPtr spares_;
  mutable Mutex mu_;
  net::MailboxPtr ack_outbox_ FRESQUE_GUARDED_BY(mu_);
  Status first_error_ FRESQUE_GUARDED_BY(mu_);
  std::vector<cloud::MatchingStats> stats_ FRESQUE_GUARDED_BY(mu_);
  // PINED-RQ++ pairing state.
  std::set<uint64_t> tagged_pns_ FRESQUE_GUARDED_BY(mu_);
  std::map<uint64_t, net::IndexPublication> pending_index_
      FRESQUE_GUARDED_BY(mu_);
  std::map<uint64_t, index::MatchingTable> pending_table_
      FRESQUE_GUARDED_BY(mu_);
  std::map<uint64_t, Bytes> pending_payload_ FRESQUE_GUARDED_BY(mu_);
  /// Verbatim kMatchingTable payloads, kept until the paired install is
  /// logged (the WAL's kInstallTagged frame carries both halves).
  std::map<uint64_t, Bytes> pending_table_payload_ FRESQUE_GUARDED_BY(mu_);
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
