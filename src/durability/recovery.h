#ifndef FRESQUE_DURABILITY_RECOVERY_H_
#define FRESQUE_DURABILITY_RECOVERY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "cloud/server.h"
#include "common/clock.h"
#include "common/result.h"
#include "durability/wal.h"

namespace fresque {
namespace durability {

struct RecoveryStats {
  bool snapshot_loaded = false;
  uint64_t snapshot_lsn = 0;
  uint64_t frames_replayed = 0;
  uint64_t records_replayed = 0;
  uint64_t installs_replayed = 0;
  uint64_t last_lsn = 0;
  /// The final WAL frame was torn (in-flight at crash time) and was
  /// discarded — expected after a crash, never data loss for completed
  /// publications.
  bool torn_tail = false;
  uint64_t torn_bytes = 0;
  double recovery_millis = 0;
};

struct RecoveredCloud {
  std::unique_ptr<cloud::CloudServer> server;
  RecoveryStats stats;
};

/// Rebuilds a CloudServer from a durability data directory: loads the
/// snapshot files the MANIFEST lists (if any) into one server, then
/// replays the WAL tail (frames past the MANIFEST's LSN) through the
/// server's normal mutation API, so the recovered state is byte-identical
/// to what was completed before the crash. Files the MANIFEST does not name
/// are never read.
///
/// Errors: NotFound when the directory holds neither a snapshot nor any
/// WAL frame; Corruption when the log or snapshot is damaged anywhere
/// other than a torn final frame.
class RecoveryManager {
 public:
  static Result<RecoveredCloud> Recover(
      const std::string& dir, const Clock* clock = SystemClock::Global());

  /// True when `dir` itself holds a MANIFEST or a WAL segment (files in
  /// subdirectories do not count).
  static bool HasState(const std::string& dir);
};

}  // namespace durability
}  // namespace fresque

#endif  // FRESQUE_DURABILITY_RECOVERY_H_
