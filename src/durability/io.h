#ifndef FRESQUE_DURABILITY_IO_H_
#define FRESQUE_DURABILITY_IO_H_

#include <string>

#include "common/bytes.h"
#include "common/result.h"
#include "common/status.h"

namespace fresque {
namespace durability {

/// Small POSIX file helpers shared by the WAL and the snapshot manager.
/// Everything here reports failures as Status (IOError) — durability code
/// never throws and never ignores a failed write or fsync.

/// Reads the whole file into memory.
Result<Bytes> ReadFile(const std::string& path);

/// fsync()s a directory so renames/creates/unlinks inside it are durable.
Status SyncDir(const std::string& dir);

/// Atomically replaces `path` with `data`: writes `path + ".tmp"`, fsyncs
/// it, renames over `path`, then fsyncs the parent directory. A crash at
/// any point leaves either the old file or the new file, never a torn mix.
Status WriteFileAtomic(const std::string& path, const Bytes& data);

/// Atomically installs an already-written-and-synced `tmp_path` as `path`
/// (rename + parent directory fsync).
Status RenameAtomic(const std::string& tmp_path, const std::string& path);

}  // namespace durability
}  // namespace fresque

#endif  // FRESQUE_DURABILITY_IO_H_
