#ifndef FRESQUE_DURABILITY_WAL_H_
#define FRESQUE_DURABILITY_WAL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cloud/storage.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "durability/metrics.h"

namespace fresque {
namespace durability {

/// When the WAL fsync()s relative to Commit():
///   kAlways     — every Commit() fsyncs; a completed publication survives a
///                 power cut. The durable default.
///   kIntervalMs — Commit() fsyncs only if `fsync_interval_ms` elapsed
///                 since the last fsync; bounds data-at-risk by time.
///   kNever      — flush to the OS page cache only; survives a process
///                 kill but not a kernel crash. Fastest.
enum class FsyncPolicy : uint8_t { kAlways = 0, kIntervalMs = 1, kNever = 2 };

const char* FsyncPolicyToString(FsyncPolicy p);
/// Parses "always", "never", "interval" or "interval:<ms>" (the latter
/// also returns the interval through `interval_ms` if non-null).
Result<FsyncPolicy> ParseFsyncPolicy(const std::string& s,
                                     uint64_t* interval_ms = nullptr);

struct WalOptions {
  /// Directory holding `wal-<base lsn>.log` segments. Created if missing.
  std::string dir;
  FsyncPolicy fsync_policy = FsyncPolicy::kAlways;
  /// Minimum time between fsyncs under kIntervalMs.
  uint64_t fsync_interval_ms = 50;
  /// Rotate to a new segment once the current one exceeds this.
  size_t segment_bytes = 16u << 20;
  /// Per-publication e-record batch cap: buffered records are packed into
  /// one kRecordBatch frame once this many accumulate (or earlier, when
  /// the publication installs or Commit() runs).
  size_t batch_records = 256;
  /// Time source for the interval fsync policy.
  const Clock* clock = SystemClock::Global();
};

/// Logical operation carried by one WAL frame.
enum class WalOp : uint8_t {
  /// Domain binning of the cloud store; first frame of a fresh log so
  /// recovery can rebuild a CloudServer without a snapshot.
  kMeta = 1,
  /// StartPublication(pn).
  kStart = 2,
  /// A batch of `<leaf, e-record>` ingests for one publication.
  kRecordBatch = 3,
  /// A batch of `<tag, e-record>` ingests for one publication.
  kTaggedBatch = 4,
  /// PublishIndexed(pn, payload): payload is the verbatim encoded
  /// IndexPublication (also the integrity evidence).
  kInstall = 5,
  /// PublishWithMatchingTable(pn, payload, table payload).
  kInstallTagged = 6,
};

const char* WalOpToString(WalOp op);

/// Decoded frame bodies (see the frame grammar in wal.cc / DESIGN.md §10).
struct WalMeta {
  double domain_min = 0;
  double domain_max = 0;
  double bin_width = 0;
};
/// Decoded kRecordBatch. The e-record views point into the frame body
/// passed to DecodeWalRecordBatch, which must outlive the batch.
struct WalRecordBatch {
  uint64_t pn = 0;
  std::vector<cloud::LeafRecord> records;
};
struct WalTaggedBatch {
  uint64_t pn = 0;
  std::vector<std::pair<uint64_t, Bytes>> records;  // <tag, e-record>
};
struct WalInstall {
  uint64_t pn = 0;
  Bytes publication;  // encoded net::IndexPublication, verbatim
  Bytes table;        // encoded matching table; empty for kInstall
};

Result<WalMeta> DecodeWalMeta(const Bytes& body);
Result<uint64_t> DecodeWalStart(const Bytes& body);
Result<WalRecordBatch> DecodeWalRecordBatch(const Bytes& body);
Result<WalTaggedBatch> DecodeWalTaggedBatch(const Bytes& body);
/// Handles both kInstall and kInstallTagged bodies.
Result<WalInstall> DecodeWalInstall(WalOp op, const Bytes& body);

/// Append-only, CRC32-framed, segment-rotating write-ahead log.
///
/// Frame on disk: `u32 crc, u32 len, body[len]` where the body starts with
/// `u8 op, u64 lsn` and the CRC covers `len || body`. Segments are
/// `wal-<base lsn>.log` files starting with an 8-byte magic and the u64
/// base LSN; LSNs are assigned densely in append order, so file order ==
/// replay order.
///
/// Contract: after Commit() returns OK, every previously appended frame
/// survives a crash according to the fsync policy. Appends stage records
/// into per-publication batches and a write buffer; nothing is promised
/// until Commit().
///
/// Thread-safe; typically driven by the single CloudNode handler thread
/// while metrics are polled from elsewhere.
class Wal {
 public:
  /// Opens (or creates) the log in `opts.dir`. If the last segment ends in
  /// a torn frame — the previous process died mid-write — the tail is
  /// truncated away (counted in metrics) so new appends start clean.
  static Result<std::unique_ptr<Wal>> Open(WalOptions opts);

  /// Flushes staged frames to the OS (best effort, no fsync) and closes.
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  Status AppendMeta(double domain_min, double domain_max, double bin_width)
      FRESQUE_EXCLUDES(mu_);
  Status AppendStart(uint64_t pn) FRESQUE_EXCLUDES(mu_);
  /// Serializes a run of records of publication `pn` straight into its
  /// open batch frame, under one lock. A frame is sealed each time it
  /// holds `batch_records` records, so the bytes on disk do not depend on
  /// how the records were grouped into calls.
  Status AppendRecords(uint64_t pn, std::span<const cloud::LeafRecord> run)
      FRESQUE_EXCLUDES(mu_);
  /// One-record AppendRecords.
  Status AppendRecord(uint64_t pn, uint32_t leaf, const Bytes& e_record)
      FRESQUE_EXCLUDES(mu_) {
    const cloud::LeafRecord rec{leaf, e_record};
    return AppendRecords(pn, {&rec, 1});
  }
  Status AppendTagged(uint64_t pn, uint64_t tag, const Bytes& e_record)
      FRESQUE_EXCLUDES(mu_);
  /// Seals the publication's record batch, then appends the install frame
  /// (so replay sees every record before the install).
  Status AppendInstall(uint64_t pn, const Bytes& publication)
      FRESQUE_EXCLUDES(mu_);
  Status AppendInstallTagged(uint64_t pn, const Bytes& publication,
                             const Bytes& table) FRESQUE_EXCLUDES(mu_);

  /// Makes everything appended so far durable per the fsync policy:
  /// seals all open batches, writes the stage to the segment file, and
  /// fsyncs (always / when the interval elapsed / never). Call before
  /// acking a publication.
  Status Commit() FRESQUE_EXCLUDES(mu_);

  /// Like Commit() but never fsyncs (flush to OS only).
  Status Flush() FRESQUE_EXCLUDES(mu_);

  /// Rotates to a fresh segment and deletes sealed segments whose every
  /// frame has LSN <= `through_lsn` (they are covered by a snapshot).
  /// Returns the number of segments deleted. Waits for no disk under the
  /// WAL's lock, so appends and commits on other threads go on meanwhile:
  /// the unlinks and the directory fsync run outside it, and a segment
  /// that is not yet durable through its last byte rotates at its next
  /// fsync instead of now.
  Result<size_t> TruncateObsolete(uint64_t through_lsn) FRESQUE_EXCLUDES(mu_);

  /// LSN of the last frame appended (0 if none). Staged batches have no
  /// LSN yet; Commit()/install seals them first.
  uint64_t last_lsn() const FRESQUE_EXCLUDES(mu_);
  /// Frame bytes written to the OS so far (the durable prefix length
  /// under FsyncPolicy::kAlways after a Commit()).
  uint64_t flushed_bytes() const FRESQUE_EXCLUDES(mu_);

  void FillMetrics(DurabilityMetrics* m) const FRESQUE_EXCLUDES(mu_);

  const WalOptions& options() const { return opts_; }

  /// One decoded frame during replay.
  struct Frame {
    uint64_t lsn = 0;
    WalOp op = WalOp::kMeta;
    Bytes body;  // op-specific body, without the op/lsn prefix
  };

  struct ReplayStats {
    uint64_t frames = 0;          // frames delivered to the callback
    uint64_t frames_skipped = 0;  // lsn <= after_lsn (snapshot-covered)
    uint64_t last_lsn = 0;
    bool torn_tail = false;
    uint64_t torn_bytes = 0;
  };

  /// Replays every frame with lsn > `after_lsn` in LSN order. A torn or
  /// truncated frame at the very tail of the last segment ends the replay
  /// cleanly (reported in stats); anything inconsistent earlier is
  /// Corruption. The callback's first error aborts the replay.
  static Result<ReplayStats> Replay(
      const std::string& dir, uint64_t after_lsn,
      const std::function<Status(const Frame&)>& fn);

 private:
  explicit Wal(WalOptions opts);

  /// Body of a kRecordBatch / kTaggedBatch frame being filled: u64 pn, a
  /// u32 count patched at seal time, then the records as they arrive.
  struct PendingBatch {
    Bytes body;
    uint32_t count = 0;
  };

  Status AppendFrameLocked(WalOp op, const Bytes& body)
      FRESQUE_REQUIRES(mu_);
  /// The open batch of `pn` in `batches`, created (reusing the capacity
  /// of the last sealed body) if there is none.
  PendingBatch& OpenBatchLocked(std::map<uint64_t, PendingBatch>* batches,
                                uint64_t pn) FRESQUE_REQUIRES(mu_);
  /// Appends the batch as one frame of `op` and erases it.
  Status SealLocked(std::map<uint64_t, PendingBatch>* batches,
                    std::map<uint64_t, PendingBatch>::iterator it, WalOp op)
      FRESQUE_REQUIRES(mu_);
  Status SealBatchLocked(uint64_t pn) FRESQUE_REQUIRES(mu_);
  Status SealAllBatchesLocked() FRESQUE_REQUIRES(mu_);
  Status WriteStageLocked() FRESQUE_REQUIRES(mu_);
  /// Seals the active segment, fsyncing it first unless the last fsync
  /// covers it, and opens the next one: a segment is created only once
  /// every older one is durable through its last byte.
  Status RotateLocked() FRESQUE_REQUIRES(mu_);
  /// Creates the segment; its directory entry is fsynced before the next
  /// fsync of the segment (FsyncLocked) or by a truncation.
  Status OpenSegmentLocked(uint64_t base_lsn) FRESQUE_REQUIRES(mu_);
  Status FsyncLocked(bool force) FRESQUE_REQUIRES(mu_);

  const WalOptions opts_;

  mutable Mutex mu_;
  int fd_ FRESQUE_GUARDED_BY(mu_) = -1;
  uint64_t next_lsn_ FRESQUE_GUARDED_BY(mu_) = 1;
  size_t segment_written_ FRESQUE_GUARDED_BY(mu_) = 0;
  Bytes stage_ FRESQUE_GUARDED_BY(mu_);
  std::map<uint64_t, PendingBatch> record_batches_ FRESQUE_GUARDED_BY(mu_);
  std::map<uint64_t, PendingBatch> tagged_batches_ FRESQUE_GUARDED_BY(mu_);
  /// Cleared body of the last sealed batch, kept for its capacity.
  Bytes spare_body_ FRESQUE_GUARDED_BY(mu_);
  struct Segment {
    std::string path;
    uint64_t base_lsn = 0;
  };
  std::vector<Segment> segments_ FRESQUE_GUARDED_BY(mu_);
  /// Bytes of the active segment its last fsync covers.
  size_t synced_bytes_ FRESQUE_GUARDED_BY(mu_) = 0;
  /// A truncation asked for a rotation; the next fsync rotates.
  bool rotate_when_synced_ FRESQUE_GUARDED_BY(mu_) = false;
  /// A segment was created since the directory's last fsync; every
  /// creation bumps dir_changes_, so a sync outside mu_ knows what it
  /// covered.
  bool dir_unsynced_ FRESQUE_GUARDED_BY(mu_) = false;
  uint64_t dir_changes_ FRESQUE_GUARDED_BY(mu_) = 0;
  int64_t last_fsync_nanos_ FRESQUE_GUARDED_BY(mu_) = 0;

  // Metrics.
  uint64_t frames_ FRESQUE_GUARDED_BY(mu_) = 0;
  uint64_t record_batch_frames_ FRESQUE_GUARDED_BY(mu_) = 0;
  uint64_t flushed_bytes_ FRESQUE_GUARDED_BY(mu_) = 0;
  uint64_t fsyncs_ FRESQUE_GUARDED_BY(mu_) = 0;
  uint64_t segments_created_ FRESQUE_GUARDED_BY(mu_) = 0;
  uint64_t segments_deleted_ FRESQUE_GUARDED_BY(mu_) = 0;
  uint64_t torn_bytes_discarded_ FRESQUE_GUARDED_BY(mu_) = 0;
};

}  // namespace durability
}  // namespace fresque

#endif  // FRESQUE_DURABILITY_WAL_H_
