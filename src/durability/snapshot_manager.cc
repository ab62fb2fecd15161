#include "durability/snapshot_manager.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <unordered_set>
#include <utility>
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

std::string SnapshotFileName(const char* kind, uint64_t wal_lsn) {
  char name[48];
  std::snprintf(name, sizeof(name), "%s-%010llu.bin", kind,
                static_cast<unsigned long long>(wal_lsn));
  return name;
}

/// Sealed and open snapshot files, and their leftover `.tmp` files.
bool IsSnapshotFile(const std::string& name) {
  return name.rfind("sealed-", 0) == 0 || name.rfind("open-", 0) == 0;
}

/// Installs `dir`/`name` holding `entries` (tmp + fsync + rename). When
/// there are none it leaves no file, unless `even_empty`; `*written` says
/// whether the file was installed. Never replaces an existing file, which
/// a MANIFEST may name.
Status InstallSnapshotFile(
    const cloud::CloudServer& server, const std::string& dir,
    const std::string& name,
    const std::vector<cloud::CloudServer::SnapshotEntry>& entries,
    bool even_empty, bool* written) {
  *written = false;
  const std::string path = dir + "/" + name;
  if (std::filesystem::exists(path)) {
    return Status::FailedPrecondition(
        path + " already exists; append to the WAL before snapshotting");
  }
  if (entries.empty() && !even_empty) return Status::OK();
  Status st = WriteFileAtomic(path, server.EncodeSnapshot(entries));
  if (!st.ok()) {
    std::error_code ec;
    std::filesystem::remove(path + ".tmp", ec);  // best-effort cleanup
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
      m.snapshot_files.push_back(line.substr(9));
    } else if (line.rfind("wal_lsn=", 0) == 0) {
      char* end = nullptr;
      m.wal_lsn = std::strtoull(line.c_str() + 8, &end, 10);
      lsn_ok = end != nullptr && *end == '\0';
    }
  }
  if (!magic_ok || !lsn_ok) {
    return Status::Corruption("malformed MANIFEST in " + dir);
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

SnapshotManager::~SnapshotManager() {
  {
    MutexLock lock(mu_);
    stop_ = true;
    cv_.NotifyAll();
  }
  if (writer_.joinable()) writer_.join();
}

Status SnapshotManager::NoteInstall() {
  Status reported;
  {
    MutexLock lock(mu_);
    reported = std::exchange(failed_write_, Status::OK());
    ++installs_since_snapshot_;
    // Due while a write runs: the first install after it takes the cut.
    if (opts_.snapshot_every_installs == 0 ||
        installs_since_snapshot_ < opts_.snapshot_every_installs ||
        in_flight_) {
      return reported;
    }
    Cut cut;
    if (Status st = CutLocked(&cut); !st.ok()) {
      ++snapshot_failures_;
      return reported.ok() ? st : reported;
    }
    if (cut.unchanged) {
      CountUnchangedLocked(cut);
      return reported;
    }
    queued_ = std::move(cut);
    in_flight_ = true;
    cv_.NotifyAll();
    if (writer_started_) return reported;
    writer_started_ = true;
  }
  // Outside mu_: the writer takes mu_ as soon as it runs.
  writer_ = std::thread(&SnapshotManager::WriterLoop, this);
  return reported;
}

Status SnapshotManager::WriteSnapshot() {
  Cut cut;
  {
    MutexLock lock(mu_);
    while (in_flight_) cv_.Wait(mu_);
    if (Status st = CutLocked(&cut); !st.ok()) {
      ++snapshot_failures_;
      return st;
    }
    if (cut.unchanged) {
      CountUnchangedLocked(cut);
      return Status::OK();
    }
    in_flight_ = true;
  }
  return RunWrite(cut, /*background=*/false);
}

Status SnapshotManager::Drain() {
  MutexLock lock(mu_);
  while (in_flight_) cv_.Wait(mu_);
  return std::exchange(failed_write_, Status::OK());
}

void SnapshotManager::WriterLoop() {
  for (;;) {
    Cut cut;
    {
      MutexLock lock(mu_);
      while (!queued_.has_value() && !stop_) cv_.Wait(mu_);
      if (!queued_.has_value()) return;
      cut = std::move(*queued_);
      queued_.reset();
    }
    (void)RunWrite(cut, /*background=*/true);  // kept in failed_write_
  }
}

Status SnapshotManager::RunWrite(const Cut& cut, bool background) {
  const Stopwatch watch(opts_.clock);
  const Status st = WriteCut(cut);
  const double millis = watch.ElapsedMillis();
  MutexLock lock(mu_);
  if (st.ok()) {
    ++snapshots_written_;
    last_snapshot_millis_ = millis;
    FRESQUE_HISTOGRAM_RECORD("snapshot.write_ns",
                             telemetry::NowNanos() - cut.start_ns);
    FRESQUE_FLIGHT_EVENT(kDurability, "snapshot written", cut.lsn,
                         snapshots_written_, 0);
  } else {
    ++snapshot_failures_;
    if (background && failed_write_.ok()) failed_write_ = st;
  }
  in_flight_ = false;
  cv_.NotifyAll();
  return st;
}

void SnapshotManager::CountUnchangedLocked(const Cut& cut) {
  ++snapshots_written_;
  last_snapshot_millis_ = 0;
  FRESQUE_HISTOGRAM_RECORD("snapshot.write_ns",
                           telemetry::NowNanos() - cut.start_ns);
}

Status SnapshotManager::CutLocked(Cut* cut) {
  cut->start_ns = telemetry::NowNanos();
  // Everything appended so far is applied (the appender takes the cut);
  // flush it so the batches get LSNs and the manifest's LSN is never
  // ahead of the log.
  FRESQUE_RETURN_NOT_OK(wal_->Flush());
  cut->lsn = wal_->last_lsn();
  installs_since_snapshot_ = 0;
  // Nothing logged since the last MANIFEST means nothing changed: the
  // files it names already hold this state.
  if (manifest_lsn_ == cut->lsn) {
    cut->unchanged = true;
    return Status::OK();
  }
  const std::unordered_set<uint64_t>& sealed = sealed_pns_;
  auto entries = server_->CutSnapshot([&sealed](uint64_t pn, bool installed) {
    return !installed || sealed.count(pn) == 0;
  });
  if (!entries.ok()) return entries.status();
  for (auto& entry : *entries) {
    (entry.installed != nullptr ? cut->sealed : cut->open)
        .push_back(std::move(entry));
  }
  cut->sealed_files = sealed_files_;
  FRESQUE_HISTOGRAM_RECORD("snapshot.cut_ns",
                           telemetry::NowNanos() - cut->start_ns);
  return Status::OK();
}

Status SnapshotManager::WriteCut(const Cut& cut) {
  Manifest next{cut.sealed_files, cut.lsn};
  const std::string sealed_name = SnapshotFileName("sealed", cut.lsn);
  bool wrote_sealed = false;
  Status st = InstallSnapshotFile(*server_, opts_.dir, sealed_name, cut.sealed,
                                  /*even_empty=*/false, &wrote_sealed);
  if (wrote_sealed) next.snapshot_files.push_back(sealed_name);

  // The truncation below drops the WAL's meta frame, so the MANIFEST must
  // name at least one file to carry the binning, even an empty one.
  const std::string open_name = SnapshotFileName("open", cut.lsn);
  bool wrote_open = false;
  if (st.ok()) {
    st = InstallSnapshotFile(*server_, opts_.dir, open_name, cut.open,
                             /*even_empty=*/next.snapshot_files.empty(),
                             &wrote_open);
  }
  if (wrote_open) next.snapshot_files.push_back(open_name);
  // On failure the old MANIFEST stays current and nothing is marked
  // sealed; files this attempt installed are unnamed, so the next
  // successful snapshot deletes them.
  if (st.ok()) st = WriteManifest(opts_.dir, next);
  if (!st.ok()) return st;

  // The MANIFEST names the new files: record what they sealed, then drop
  // the log prefix and every snapshot file it no longer names.
  {
    MutexLock lock(mu_);
    if (wrote_sealed) {
      sealed_files_.push_back(sealed_name);
      for (const auto& entry : cut.sealed) sealed_pns_.insert(entry.pn);
    }
    manifest_lsn_ = cut.lsn;
  }
  auto dropped = wal_->TruncateObsolete(cut.lsn);
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
