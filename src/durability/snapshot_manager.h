#ifndef FRESQUE_DURABILITY_SNAPSHOT_MANAGER_H_
#define FRESQUE_DURABILITY_SNAPSHOT_MANAGER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "cloud/server.h"
#include "common/clock.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "durability/metrics.h"
#include "durability/wal.h"

namespace fresque {
namespace durability {

/// What the MANIFEST file points at: the snapshot files that together hold
/// the state (none on a log-only data dir) and the last WAL LSN they cover.
struct Manifest {
  /// Names relative to the data dir, in load order: the sealed files
  /// oldest first, then the open file. They hold disjoint publications.
  std::vector<std::string> snapshot_files;
  uint64_t wal_lsn = 0;
};

/// Reads `dir`/MANIFEST (the FQMANIFEST2 format). NotFound when the data
/// dir has no manifest yet; Corruption for any other format.
Result<Manifest> ReadManifest(const std::string& dir);

/// Atomically replaces `dir`/MANIFEST (tmp + rename + dir fsync).
Status WriteManifest(const std::string& dir, const Manifest& m);

struct SnapshotOptions {
  /// Data directory (shared with the WAL).
  std::string dir;
  /// Take a snapshot automatically every N successful publication
  /// installs, or later while the previous snapshot is still being
  /// written (sealing them and truncating the WAL); 0 disables automatic
  /// snapshots (WriteSnapshot() only).
  uint64_t snapshot_every_installs = 8;
  const Clock* clock = SystemClock::Global();
};

/// Periodically writes an incremental snapshot through the CloudServer's
/// snapshot codec, then truncates WAL segments the snapshot made obsolete.
/// An installed publication never changes, so each one is written once:
/// a snapshot at LSN `lsn` writes `sealed-<lsn>.bin` with the installed
/// publications no earlier sealed file holds, and `open-<lsn>.bin` with
/// the open publications (either is skipped when it would be empty, but
/// the MANIFEST always names at least one file, which carries the
/// binning). The MANIFEST lists every sealed file, oldest first, then the
/// open file.
///
/// A snapshot has two halves. The cut runs on the caller's thread: it
/// flushes the WAL, reads its last LSN and takes the server's cut
/// (CloudServer::CutSnapshot), which shares the installed publications
/// and encodes only the open ones. The write runs the files, the MANIFEST
/// flip, the WAL truncation and the cleanup. NoteInstall() hands its
/// cuts to a writer thread, started by the first one, so the cloud node
/// goes on storing records during the write; WriteSnapshot() writes
/// inline. At most one write is in flight: a cut taken while a write
/// runs would not know whether that write sealed its publications.
///
/// Crash-safety argument: the new files become visible only via the
/// MANIFEST rename; before it, the old MANIFEST names only older files,
/// which are untouched. WAL segments and files the MANIFEST no longer
/// names are deleted only after the MANIFEST (and the files it names) are
/// fsynced — at every instant, MANIFEST + remaining WAL tail reconstruct
/// the full completed state. Frames appended during a background write have
/// LSNs above the cut's, so its truncation never drops them and recovery
/// replays them after the MANIFEST's LSN. A failed snapshot marks
/// nothing sealed, so the next one writes those publications again.
///
/// A manager starts with nothing sealed: its first snapshot over a reused
/// directory seals every installed publication, and the older files go.
/// It never renames onto an existing file, so that first snapshot fails
/// (changing nothing) if the directory already holds a file of the same
/// LSN; one more WAL frame moves the LSN on.
///
/// Cuts run on the CloudNode handler thread, which is also the only WAL
/// appender, or while it is stopped, so `wal->last_lsn()` exactly bounds
/// the state the cut holds.
class SnapshotManager {
 public:
  /// `server` and `wal` must outlive the manager.
  SnapshotManager(SnapshotOptions opts, const cloud::CloudServer* server,
                  Wal* wal);
  /// Finishes the write in flight, if any, and joins the writer.
  ~SnapshotManager();

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  /// Counts one successful install; when the configured cadence is
  /// reached and no write is in flight, takes a cut and hands it to the
  /// writer. Returns a failed background write that nothing reported yet,
  /// or a failed cut. Failures are counted but leave the previous
  /// snapshot + WAL intact — durability never regresses.
  Status NoteInstall() FRESQUE_EXCLUDES(mu_);

  /// Waits for the write in flight, then writes a snapshot now, inline,
  /// and truncates obsolete WAL segments. When nothing was logged since
  /// this manager's last snapshot, the files its MANIFEST names already
  /// hold the state and nothing is written.
  Status WriteSnapshot() FRESQUE_EXCLUDES(mu_);

  /// Waits for the write in flight, if any. Returns a failed background
  /// write that no NoteInstall() reported yet.
  Status Drain() FRESQUE_EXCLUDES(mu_);

  void FillMetrics(DurabilityMetrics* m) const FRESQUE_EXCLUDES(mu_);

 private:
  /// What a write needs: the cut and this manager's state at the cut.
  struct Cut {
    uint64_t lsn = 0;
    /// Installed publications no sealed file holds yet, and the open ones.
    std::vector<cloud::CloudServer::SnapshotEntry> sealed;
    std::vector<cloud::CloudServer::SnapshotEntry> open;
    /// Sealed files of the current MANIFEST.
    std::vector<std::string> sealed_files;
    /// Nothing was logged since the last MANIFEST: nothing to write.
    bool unchanged = false;
    /// Start of the cut, on the telemetry clock.
    int64_t start_ns = 0;
  };

  /// Flushes the WAL and takes the cut at its last LSN.
  Status CutLocked(Cut* cut) FRESQUE_REQUIRES(mu_);
  /// Writes the cut's files, flips the MANIFEST, then truncates the WAL
  /// and deletes the files it no longer names. Takes mu_ only to record
  /// what the new files sealed.
  Status WriteCut(const Cut& cut) FRESQUE_EXCLUDES(mu_);
  /// Writes the cut, counts the outcome and ends the write in flight. A
  /// failed `background` write is kept for NoteInstall() or Drain().
  /// Times the write on opts_.clock, on the writing thread.
  Status RunWrite(const Cut& cut, bool background) FRESQUE_EXCLUDES(mu_);
  /// Counts a cut with nothing to write as a snapshot.
  void CountUnchangedLocked(const Cut& cut) FRESQUE_REQUIRES(mu_);
  /// The background writer: writes each cut NoteInstall() hands over.
  void WriterLoop() FRESQUE_EXCLUDES(mu_);

  const SnapshotOptions opts_;
  const cloud::CloudServer* server_;
  Wal* wal_;

  mutable Mutex mu_;
  CondVar cv_;
  /// Sealed files of this manager's last MANIFEST, oldest first.
  std::vector<std::string> sealed_files_ FRESQUE_GUARDED_BY(mu_);
  /// Installed publications those files hold.
  std::unordered_set<uint64_t> sealed_pns_ FRESQUE_GUARDED_BY(mu_);
  /// WAL LSN of this manager's last MANIFEST; unset before its first.
  std::optional<uint64_t> manifest_lsn_ FRESQUE_GUARDED_BY(mu_);
  uint64_t installs_since_snapshot_ FRESQUE_GUARDED_BY(mu_) = 0;
  uint64_t snapshots_written_ FRESQUE_GUARDED_BY(mu_) = 0;
  uint64_t snapshot_failures_ FRESQUE_GUARDED_BY(mu_) = 0;
  double last_snapshot_millis_ FRESQUE_GUARDED_BY(mu_) = 0;
  /// A write runs (inline or on the writer) or waits for the writer.
  bool in_flight_ FRESQUE_GUARDED_BY(mu_) = false;
  /// The cut handed to the writer, until it starts writing it.
  std::optional<Cut> queued_ FRESQUE_GUARDED_BY(mu_);
  /// The first background write failure not reported yet.
  Status failed_write_ FRESQUE_GUARDED_BY(mu_);
  bool stop_ FRESQUE_GUARDED_BY(mu_) = false;
  bool writer_started_ FRESQUE_GUARDED_BY(mu_) = false;
  // fresque-lint: allow(guarded-by) started by NoteInstall() outside mu_, on the one thread that calls it; joined by the destructor
  std::thread writer_;
};

}  // namespace durability
}  // namespace fresque

#endif  // FRESQUE_DURABILITY_SNAPSHOT_MANAGER_H_
