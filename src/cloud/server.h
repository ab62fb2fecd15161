#ifndef FRESQUE_CLOUD_SERVER_H_
#define FRESQUE_CLOUD_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cloud/storage.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/result.h"
#include "index/binning.h"
#include "index/index.h"
#include "index/matching.h"
#include "index/overflow.h"
#include "net/payloads.h"
#include "query/context.h"
#include "query/leaf_cache.h"
#include "query/result.h"
#include "query/view.h"

namespace fresque {
namespace cloud {

/// Result types live in query/result.h so the scan/executor layers can
/// produce them without a server dependency; aliased here for the many
/// existing cloud::QueryResult call sites.
using ResultRecord = query::ResultRecord;
using QueryResult = query::QueryResult;

/// Per-publication matching cost, reported for Fig. 13/15.
struct MatchingStats {
  uint64_t pn = 0;
  size_t records_matched = 0;
  double matching_millis = 0;
  /// Tag-filter outcomes of the PINED-RQ++ join (zero in FRESQUE mode):
  /// probes answered "definitely absent" skip the hash-table lookup.
  size_t filter_negatives = 0;
};

/// The untrusted cloud server (paper §5.3 "Cloud").
///
/// Streaming ingestion writes each e-record to segment storage and caches
/// `<leaf offset, physical location>` metadata in memory; publication then
/// only reshuffles addresses (FRESQUE), or — in PINED-RQ++ mode — re-reads
/// every record and joins it against the matching table, which is the
/// expensive path Fig. 15 contrasts.
///
/// Query serving is snapshot-consistent and concurrent (DESIGN.md §15):
/// installing a publication freezes it into an immutable
/// query::InstalledPublication and publishes a new epoch of the
/// query::QueryView RCU-style. ExecuteQuery pins one view and scans it
/// with *no server lock held*; mu_ is only taken briefly to copy out the
/// open publication's cached pairs, so ingest and publication install
/// proceed while arbitrarily large range scans run.
class CloudServer {
 public:
  /// `binning` describes how leaf offsets map to value intervals (public
  /// configuration shared by collector and cloud). `leaf_cache_capacity`
  /// bounds the hot-leaf descriptor cache (DESIGN.md §15).
  explicit CloudServer(index::DomainBinning binning,
                       const Clock* clock = SystemClock::Global(),
                       size_t leaf_cache_capacity = 4096);

  /// Opens a new publication (kPublicationStart).
  Status StartPublication(uint64_t pn) FRESQUE_EXCLUDES(mu_);

  /// Streams a run of `<leaf offset, e-record>` pairs of publication `pn`
  /// (FRESQUE / PINED-RQ++): one lock and one publication lookup for the
  /// whole run. An unknown or already-published `pn` rejects the whole run
  /// with the status a single record would get, storing nothing.
  Status IngestRecords(uint64_t pn, std::span<const LeafRecord> run)
      FRESQUE_EXCLUDES(mu_);

  /// One-record IngestRecords.
  Status IngestRecord(uint64_t pn, uint32_t leaf, const Bytes& e_record)
      FRESQUE_EXCLUDES(mu_) {
    const LeafRecord rec{leaf, e_record};
    return IngestRecords(pn, {&rec, 1});
  }

  /// Streams one `<random tag, e-record>` pair (PINED-RQ++ with matching
  /// table; the leaf is unknown until the table arrives).
  Status IngestTagged(uint64_t pn, uint64_t tag, const Bytes& e_record)
      FRESQUE_EXCLUDES(mu_);

  /// FRESQUE publication: associates cached metadata with the index
  /// leaves, installs index + overflow arrays, destroys the metadata.
  /// `raw_payload`, when provided, is the verbatim payload `publication`
  /// was decoded from (net::DecodeIndexPublication). It is moved into one
  /// shared, immutable buffer that is both the integrity evidence clients
  /// verify and the store the installed overflow arrays read from; the
  /// decoded copy is released. InvalidArgument when `publication` was
  /// not decoded from those bytes.
  Result<MatchingStats> PublishIndexed(uint64_t pn,
                                       net::IndexPublication publication,
                                       Bytes raw_payload = {})
      FRESQUE_EXCLUDES(mu_);

  /// PublishIndexed for a publication decoded in place from `payload`
  /// (net::DecodeSharedIndexPublication): the payload becomes the
  /// publication's one buffer with no copy. Null `payload` installs
  /// without evidence.
  Result<MatchingStats> PublishIndexed(uint64_t pn,
                                       net::IndexPublication publication,
                                       std::shared_ptr<const Bytes> payload)
      FRESQUE_EXCLUDES(mu_);

  /// PINED-RQ++ publication: re-reads every stored record of the
  /// publication from storage and joins its tag against the matching
  /// table to rebuild leaf pointers. `payload` is kept as in the shared
  /// PublishIndexed.
  Result<MatchingStats> PublishWithMatchingTable(
      uint64_t pn, net::IndexPublication publication,
      const index::MatchingTable& table,
      std::shared_ptr<const Bytes> payload = nullptr) FRESQUE_EXCLUDES(mu_);

  /// The verbatim publication payload as received from the collector
  /// (index + overflow + tag); what an auditor would fetch to verify the
  /// publication was not tampered with. NotFound if `pn` was never
  /// published or carried no payload.
  Result<Bytes> PublicationEvidence(uint64_t pn) const FRESQUE_EXCLUDES(mu_);

  /// Visits every stored e-record of publication `pn` in ingest order
  /// without the per-record copy Read performs; used by merger-side
  /// verification and recovery equivalence checks. `fn` sees a pointer
  /// into live segment memory that is invalid once it returns. For open
  /// publications the server's mutex is held for the whole iteration —
  /// `fn` must not call back into this server; installed publications are
  /// iterated against their immutable snapshot.
  Status ForEachStoredRecord(
      uint64_t pn,
      const std::function<Status(const PhysicalAddress&, const uint8_t* data,
                                 size_t size)>& fn) const
      FRESQUE_EXCLUDES(mu_);

  /// Batch publication (PINED-RQ): stores `records` as `<leaf, e-record>`
  /// pairs and installs the index in one shot.
  Result<MatchingStats> PublishBatch(
      uint64_t pn, net::IndexPublication publication,
      const std::vector<std::pair<uint32_t, Bytes>>& records)
      FRESQUE_EXCLUDES(mu_);

  /// Evaluates a range query over every publication (published indexes +
  /// open metadata).
  Result<QueryResult> ExecuteQuery(const index::RangeQuery& q) const
      FRESQUE_EXCLUDES(mu_);

  /// Deadline/cancellation-aware evaluation: pins the current QueryView,
  /// copies the open publications' overlapping pairs under a short lock,
  /// then scans the view lock-free in batches, honoring `ctx` between
  /// batches. This is the entry point query::QueryExecutor workers bind.
  Result<QueryResult> ExecuteQuery(const index::RangeQuery& q,
                                   const query::QueryContext& ctx) const
      FRESQUE_EXCLUDES(mu_);

  /// Differentially-private approximate COUNT(*) for `q`, answered from
  /// the published indexes alone — no records touched, no keys needed
  /// (the noisy counts are public by design). Served entirely from the
  /// current view, lock-free. Open publications are not included: they
  /// have no DP index yet, and counting their cached pairs would leak
  /// un-noised cardinalities.
  int64_t ApproximateCount(const index::RangeQuery& q) const
      FRESQUE_EXCLUDES(mu_);

  /// The current immutable publication snapshot (never null). Pinning it
  /// keeps every contained publication's storage alive regardless of
  /// later installs or retirement.
  std::shared_ptr<const query::QueryView> CurrentView() const;

  /// Epoch of the current view (increments per install/retire).
  uint64_t view_epoch() const;

  /// Hot-leaf descriptor cache shared by every query (DESIGN.md §15).
  const query::LeafCache& leaf_cache() const { return leaf_cache_; }

  /// Picks the publications a snapshot holds: called once per
  /// publication, in pn order and under the server lock, with its pn and
  /// whether it is installed. It must not call back into this server.
  using PublicationFilter = std::function<bool(uint64_t pn, bool installed)>;

  /// One publication of a snapshot cut. An installed publication is
  /// shared, not copied: it is immutable since its install. An open one
  /// is held as its snapshot-file entry, encoded when the cut was taken.
  struct SnapshotEntry {
    uint64_t pn = 0;
    std::shared_ptr<const query::InstalledPublication> installed;
    /// The open publication's encoded entry; empty when installed.
    Bytes open;
  };

  /// A snapshot's cut: the publications `which` picks (all when unset),
  /// in pn order, as they stand at one instant under the server lock.
  /// Only the open publications are encoded here; at a publication
  /// install they hold no more than the next interval's first records.
  std::vector<SnapshotEntry> CutSnapshot(
      const PublicationFilter& which = {}) const FRESQUE_EXCLUDES(mu_);

  /// Encodes `entries` as one snapshot file (the format in snapshot.cc).
  /// Takes no lock: a cut owns or shares everything it holds, so this
  /// runs on any thread while the server goes on ingesting.
  Bytes EncodeSnapshot(std::span<const SnapshotEntry> entries) const;

  /// Persists server state (ciphertext segments, postings, indexes,
  /// overflow arrays, metadata of open publications) to one snapshot file,
  /// so the cloud survives restarts. Writes every publication, or only
  /// those `which` picks when it is set. Holds the server lock only for
  /// the cut, not while it encodes and writes the file.
  Status SaveSnapshot(const std::string& path,
                      const PublicationFilter& which = {}) const
      FRESQUE_EXCLUDES(mu_);

  /// Restores one server from SaveSnapshot files that hold disjoint
  /// publications, such as a snapshot MANIFEST's list. (Heap-allocated:
  /// the server holds a mutex and is not movable.) The query view is
  /// rebuilt, so restored stores serve lock-free queries immediately.
  /// Corruption when a pn appears twice or the files' binnings differ.
  static Result<std::unique_ptr<CloudServer>> LoadSnapshots(
      const std::vector<std::string>& paths);

  /// One-file LoadSnapshots.
  static Result<std::unique_ptr<CloudServer>> LoadSnapshot(
      const std::string& path) {
    return LoadSnapshots({path});
  }

  /// Number of publications the server knows about.
  size_t num_publications() const FRESQUE_EXCLUDES(mu_);
  /// Stored record count across all publications.
  size_t total_records() const FRESQUE_EXCLUDES(mu_);
  /// Stored bytes across all publications (ciphertext + index + overflow).
  size_t total_bytes() const FRESQUE_EXCLUDES(mu_);

  const index::DomainBinning& binning() const { return binning_; }

 private:
  struct Publication {
    /// Open-phase storage; moved into `installed` at publish time.
    SegmentStorage storage;
    // Streaming metadata: leaf -> addresses (FRESQUE mode).
    std::unordered_map<uint32_t, std::vector<PhysicalAddress>> metadata;
    // Streaming metadata: tag -> address (PINED-RQ++ mode).
    std::vector<std::pair<uint64_t, PhysicalAddress>> tagged;
    /// Set exactly once, at install; immutable afterwards. Shared with
    /// every QueryView epoch that contains this publication.
    std::shared_ptr<const query::InstalledPublication> installed;

    bool published() const { return installed != nullptr; }
  };

  Result<Publication*> Find(uint64_t pn) FRESQUE_REQUIRES(mu_);

  /// Parses one snapshot file into `*into`, creating the server from the
  /// file's binning when `*into` is null (LoadSnapshots' loop body).
  static Status LoadSnapshotFile(const std::string& path,
                                 std::unique_ptr<CloudServer>* into);

  /// Shared by the publish calls once `publication`'s overflow arrays
  /// read from `payload` (or it has none).
  Result<MatchingStats> Publish(uint64_t pn,
                                net::IndexPublication publication,
                                const index::MatchingTable* table,
                                std::shared_ptr<const Bytes> payload)
      FRESQUE_EXCLUDES(mu_);

  Result<MatchingStats> InstallPublication(
      uint64_t pn, Publication* pub, net::IndexPublication publication,
      const index::MatchingTable* table, std::shared_ptr<const Bytes> payload)
      FRESQUE_REQUIRES(mu_);

  index::DomainBinning binning_;
  const Clock* clock_;
  mutable Mutex mu_;
  std::map<uint64_t, Publication> publications_ FRESQUE_GUARDED_BY(mu_);
  /// Internally synchronized; written under mu_ (install path), read
  /// lock-free by queries.
  query::ViewManager views_;
  mutable query::LeafCache leaf_cache_;
};

}  // namespace cloud
}  // namespace fresque

#endif  // FRESQUE_CLOUD_SERVER_H_
