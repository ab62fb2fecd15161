#ifndef FRESQUE_DURABILITY_SNAPSHOT_MANAGER_H_
#define FRESQUE_DURABILITY_SNAPSHOT_MANAGER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
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

/// Reads `dir`/MANIFEST. NotFound when the data dir has no manifest yet.
/// Reads both the current FQMANIFEST2 format and FQMANIFEST1, whose single
/// whole-store snapshot becomes a one-file list.
Result<Manifest> ReadManifest(const std::string& dir);

/// Atomically replaces `dir`/MANIFEST (tmp + rename + dir fsync).
Status WriteManifest(const std::string& dir, const Manifest& m);

struct SnapshotOptions {
  /// Data directory (shared with the WAL).
  std::string dir;
  /// Write a snapshot automatically every N successful publication
  /// installs (sealing them and truncating the WAL); 0 disables automatic
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
/// Crash-safety argument: the new files become visible only via the
/// MANIFEST rename; before it, the old MANIFEST names only older files,
/// which are untouched. WAL segments and files the MANIFEST no longer
/// names are deleted only after the MANIFEST (and the files it names) are
/// fsynced — at every instant, MANIFEST + remaining WAL tail reconstruct
/// the full acked state. A failed snapshot marks nothing sealed, so the
/// next one writes those publications again.
///
/// A manager starts with nothing sealed: its first snapshot over a reused
/// directory seals every installed publication, and the older files go.
/// It never renames onto an existing file, so that first snapshot fails
/// (changing nothing) if the directory already holds a file of the same
/// LSN; one more WAL frame moves the LSN on.
///
/// Call sites run on the CloudNode handler thread, which is also the only
/// WAL appender, so `server` is quiescent during serialization and
/// `wal->last_lsn()` exactly bounds the state being snapshotted.
class SnapshotManager {
 public:
  /// `server` and `wal` must outlive the manager.
  SnapshotManager(SnapshotOptions opts, const cloud::CloudServer* server,
                  Wal* wal);

  /// Counts one successful install; snapshots when the configured cadence
  /// is reached. Failures are reported (and counted) but leave the
  /// previous snapshot + WAL intact — durability never regresses.
  Status NoteInstall() FRESQUE_EXCLUDES(mu_);

  /// Writes a snapshot now and truncates obsolete WAL segments. When
  /// nothing was logged since this manager's last snapshot, the files its
  /// MANIFEST names already hold the state and nothing is written.
  Status WriteSnapshot() FRESQUE_EXCLUDES(mu_);

  void FillMetrics(DurabilityMetrics* m) const FRESQUE_EXCLUDES(mu_);

 private:
  Status WriteSnapshotLocked() FRESQUE_REQUIRES(mu_);
  /// Writes the sealed and open files for `lsn`, flips the MANIFEST, then
  /// truncates the WAL and deletes the files it no longer names.
  Status InstallSnapshotLocked(uint64_t lsn) FRESQUE_REQUIRES(mu_);

  const SnapshotOptions opts_;
  const cloud::CloudServer* server_;
  Wal* wal_;

  mutable Mutex mu_;
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
};

}  // namespace durability
}  // namespace fresque

#endif  // FRESQUE_DURABILITY_SNAPSHOT_MANAGER_H_
