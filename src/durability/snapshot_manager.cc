#include "durability/snapshot_manager.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "durability/io.h"
#include "obs/flight.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace fresque {
namespace durability {

namespace {

constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kManifestMagic = "FQMANIFEST1";

std::string SnapshotName(uint64_t wal_lsn) {
  char name[48];
  std::snprintf(name, sizeof(name), "snapshot-%010llu.bin",
                static_cast<unsigned long long>(wal_lsn));
  return name;
}

}  // namespace

Result<Manifest> ReadManifest(const std::string& dir) {
  const std::string path = dir + "/" + kManifestName;
  if (!std::filesystem::exists(path)) {
    return Status::NotFound("no MANIFEST in " + dir);
  }
  auto data = ReadFile(path);
  if (!data.ok()) return data.status();
  std::string text(data->begin(), data->end());

  Manifest m;
  bool magic_ok = false;
  bool lsn_ok = false;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line == kManifestMagic) {
      magic_ok = true;
    } else if (line.rfind("snapshot=", 0) == 0) {
      m.snapshot_file = line.substr(9);
    } else if (line.rfind("wal_lsn=", 0) == 0) {
      char* end = nullptr;
      m.wal_lsn = std::strtoull(line.c_str() + 8, &end, 10);
      lsn_ok = end != nullptr && *end == '\0';
    }
  }
  if (!magic_ok || !lsn_ok) {
    return Status::Corruption("malformed MANIFEST in " + dir);
  }
  if (!m.snapshot_file.empty() &&
      m.snapshot_file.find('/') != std::string::npos) {
    return Status::Corruption("MANIFEST snapshot path escapes data dir");
  }
  return m;
}

Status WriteManifest(const std::string& dir, const Manifest& m) {
  // fresque-lint: allow(hot-alloc) manifest writes run at snapshot cadence, not per record
  std::string text = std::string(kManifestMagic) + "\n" +
                     "snapshot=" + m.snapshot_file + "\n" +
                     "wal_lsn=" + std::to_string(m.wal_lsn) +  // fresque-lint: allow(hot-alloc) snapshot cadence
                     "\n";
  // fresque-lint: allow(hot-alloc) same snapshot-cadence path as above
  Bytes data(text.begin(), text.end());
  return WriteFileAtomic(dir + "/" + kManifestName, data);
}

SnapshotManager::SnapshotManager(SnapshotOptions opts,
                                 const cloud::CloudServer* server, Wal* wal)
    : opts_(std::move(opts)), server_(server), wal_(wal) {}

Status SnapshotManager::NoteInstall() {
  MutexLock lock(mu_);
  ++installs_since_snapshot_;
  if (opts_.snapshot_every_installs == 0 ||
      installs_since_snapshot_ < opts_.snapshot_every_installs) {
    return Status::OK();
  }
  return WriteSnapshotLocked();
}

Status SnapshotManager::WriteSnapshot() {
  MutexLock lock(mu_);
  return WriteSnapshotLocked();
}

Status SnapshotManager::WriteSnapshotLocked() {
  const int64_t write_start = telemetry::NowNanos();
  Stopwatch watch(opts_.clock);
  // Everything appended so far is applied (appender == snapshotter
  // thread); flush it so the manifest's LSN is never ahead of the log.
  Status st = wal_->Flush();
  const uint64_t lsn = wal_->last_lsn();
  const std::string file = SnapshotName(lsn);
  const std::string tmp = opts_.dir + "/" + file + ".tmp";

  if (st.ok()) st = server_->SaveSnapshot(tmp);
  if (st.ok()) st = SyncFile(tmp);
  if (st.ok()) st = RenameAtomic(tmp, opts_.dir + "/" + file);
  if (st.ok()) st = WriteManifest(opts_.dir, {file, lsn});
  if (!st.ok()) {
    ++snapshot_failures_;
    std::error_code ec;
    std::filesystem::remove(tmp, ec);  // best-effort cleanup
    return st;
  }

  // The snapshot is durable and visible; the log prefix and any older
  // snapshot files are now garbage.
  auto dropped = wal_->TruncateObsolete(lsn);
  if (!dropped.ok()) {
    ++snapshot_failures_;
    return dropped.status();
  }
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(opts_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snapshot-", 0) == 0 && name != file) {
      std::error_code rm_ec;
      std::filesystem::remove(entry.path(), rm_ec);
    }
  }

  installs_since_snapshot_ = 0;
  ++snapshots_written_;
  last_snapshot_millis_ = watch.ElapsedMillis();
  FRESQUE_HISTOGRAM_RECORD("snapshot.write_ns",
                           telemetry::NowNanos() - write_start);
  FRESQUE_FLIGHT_EVENT(kDurability, "snapshot written", lsn,
                       snapshots_written_, 0);
  return Status::OK();
}

void SnapshotManager::FillMetrics(DurabilityMetrics* m) const {
  MutexLock lock(mu_);
  m->snapshots_written = snapshots_written_;
  m->snapshot_failures = snapshot_failures_;
  m->last_snapshot_millis = last_snapshot_millis_;
}

}  // namespace durability
}  // namespace fresque
