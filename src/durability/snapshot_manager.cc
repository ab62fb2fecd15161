#include "durability/snapshot_manager.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <unordered_set>
#include <vector>

#include "durability/io.h"
#include "obs/flight.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace fresque {
namespace durability {

namespace {

constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kManifestMagic = "FQMANIFEST2";
// Still read: names at most one whole-store snapshot-<lsn>.bin.
constexpr const char* kManifestMagicV1 = "FQMANIFEST1";

std::string SnapshotFileName(const char* kind, uint64_t wal_lsn) {
  char name[48];
  std::snprintf(name, sizeof(name), "%s-%010llu.bin", kind,
                static_cast<unsigned long long>(wal_lsn));
  return name;
}

/// Sealed, open and (version-1) whole-store snapshot files, and their
/// leftover `.tmp` files.
bool IsSnapshotFile(const std::string& name) {
  return name.rfind("sealed-", 0) == 0 || name.rfind("open-", 0) == 0 ||
         name.rfind("snapshot-", 0) == 0;
}

/// Installs `dir`/`name` holding the publications `which` picks (tmp +
/// fsync + rename). When it picks none it leaves no file, unless
/// `even_empty`; `*written` says whether the file was installed. Never
/// replaces an existing file, which a MANIFEST may name.
Status WriteSnapshotFile(const cloud::CloudServer& server,
                         const std::string& dir, const std::string& name,
                         const cloud::CloudServer::PublicationFilter& which,
                         bool even_empty, bool* written) {
  *written = false;
  const std::string path = dir + "/" + name;
  const std::string tmp = path + ".tmp";
  if (std::filesystem::exists(path)) {
    return Status::FailedPrecondition(
        path + " already exists; append to the WAL before snapshotting");
  }
  size_t picked = 0;
  Status st = server.SaveSnapshot(tmp, [&](uint64_t pn, bool installed) {
    const bool take = which(pn, installed);
    picked += take ? 1 : 0;
    return take;
  });
  const bool keep = picked > 0 || even_empty;
  if (st.ok() && keep) st = SyncFile(tmp);
  if (st.ok() && keep) st = RenameAtomic(tmp, path);
  if (!st.ok() || !keep) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);  // best-effort cleanup
    return st;
  }
  *written = true;
  return Status::OK();
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
  int version = 0;
  bool lsn_ok = false;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line == kManifestMagic) {
      version = 2;
    } else if (line == kManifestMagicV1) {
      version = 1;
    } else if (line.rfind("snapshot=", 0) == 0) {
      m.snapshot_files.push_back(line.substr(9));
    } else if (line.rfind("wal_lsn=", 0) == 0) {
      char* end = nullptr;
      m.wal_lsn = std::strtoull(line.c_str() + 8, &end, 10);
      lsn_ok = end != nullptr && *end == '\0';
    }
  }
  if (version == 0 || !lsn_ok) {
    return Status::Corruption("malformed MANIFEST in " + dir);
  }
  if (version == 1) {
    if (m.snapshot_files.size() > 1) {
      return Status::Corruption("version-1 MANIFEST names several snapshots");
    }
    if (!m.snapshot_files.empty() && m.snapshot_files[0].empty()) {
      m.snapshot_files.clear();
    }
  }
  for (const std::string& file : m.snapshot_files) {
    if (file.empty() || file.find('/') != std::string::npos) {
      return Status::Corruption("MANIFEST snapshot path escapes data dir");
    }
  }
  return m;
}

Status WriteManifest(const std::string& dir, const Manifest& m) {
  // fresque-lint: allow(hot-alloc) manifest writes run at snapshot cadence, not per record
  std::string text = std::string(kManifestMagic) + "\n";
  for (const std::string& file : m.snapshot_files) {
    text += "snapshot=" + file + "\n";  // fresque-lint: allow(hot-alloc) snapshot cadence
  }
  text += "wal_lsn=" + std::to_string(m.wal_lsn) + "\n";  // fresque-lint: allow(hot-alloc) snapshot cadence
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
  // Nothing logged since the last MANIFEST means nothing changed: the
  // files it names already hold this state.
  if (st.ok() && manifest_lsn_ != lsn) st = InstallSnapshotLocked(lsn);
  if (!st.ok()) {
    ++snapshot_failures_;
    return st;
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

Status SnapshotManager::InstallSnapshotLocked(uint64_t lsn) {
  Manifest next{sealed_files_, lsn};
  const std::unordered_set<uint64_t>& sealed = sealed_pns_;
  std::vector<uint64_t> newly_sealed;
  const std::string sealed_name = SnapshotFileName("sealed", lsn);
  bool wrote_sealed = false;
  Status st = WriteSnapshotFile(
      *server_, opts_.dir, sealed_name,
      [&](uint64_t pn, bool installed) {
        if (!installed || sealed.count(pn) != 0) return false;
        newly_sealed.push_back(pn);
        return true;
      },
      /*even_empty=*/false, &wrote_sealed);
  if (wrote_sealed) next.snapshot_files.push_back(sealed_name);

  // The truncation below drops the WAL's meta frame, so the MANIFEST must
  // name at least one file to carry the binning, even an empty one.
  const std::string open_name = SnapshotFileName("open", lsn);
  bool wrote_open = false;
  if (st.ok()) {
    st = WriteSnapshotFile(
        *server_, opts_.dir, open_name,
        [](uint64_t, bool installed) { return !installed; },
        /*even_empty=*/next.snapshot_files.empty(), &wrote_open);
  }
  if (wrote_open) next.snapshot_files.push_back(open_name);
  // On failure the old MANIFEST stays current and nothing is marked
  // sealed; files this attempt installed are unnamed, so the next
  // successful snapshot deletes them.
  if (st.ok()) st = WriteManifest(opts_.dir, next);
  if (!st.ok()) return st;

  // The MANIFEST names the new files: record what they sealed, then drop
  // the log prefix and every snapshot file it no longer names.
  if (wrote_sealed) {
    sealed_files_.push_back(sealed_name);
    sealed_pns_.insert(newly_sealed.begin(), newly_sealed.end());
  }
  manifest_lsn_ = lsn;
  auto dropped = wal_->TruncateObsolete(lsn);
  if (!dropped.ok()) return dropped.status();
  const std::unordered_set<std::string> named(next.snapshot_files.begin(),
                                              next.snapshot_files.end());
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(opts_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (IsSnapshotFile(name) && named.count(name) == 0) {
      std::error_code rm_ec;
      std::filesystem::remove(entry.path(), rm_ec);
    }
  }
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
