#include "durability/recovery.h"

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "durability/snapshot_manager.h"
#include "index/binning.h"
#include "net/payloads.h"
#include "obs/flight.h"

namespace fresque {
namespace durability {

Result<RecoveredCloud> RecoveryManager::Recover(const std::string& dir,
                                                const Clock* clock) {
  Stopwatch watch(clock);
  RecoveredCloud out;

  uint64_t after_lsn = 0;
  auto manifest = ReadManifest(dir);
  if (manifest.ok()) {
    if (!manifest->snapshot_files.empty()) {
      std::vector<std::string> paths;
      for (const std::string& file : manifest->snapshot_files) {
        paths.push_back(dir + "/" + file);
      }
      auto server = cloud::CloudServer::LoadSnapshots(paths);
      if (!server.ok()) return server.status();
      out.server = std::move(*server);
      out.stats.snapshot_loaded = true;
      FRESQUE_FLIGHT_EVENT(kRecovery, "snapshot loaded", manifest->wal_lsn, 0,
                           0);
    }
    after_lsn = manifest->wal_lsn;
    out.stats.snapshot_lsn = manifest->wal_lsn;
  } else if (!manifest.status().IsNotFound()) {
    return manifest.status();
  }

  auto apply = [&out](const Wal::Frame& frame) -> Status {
    cloud::CloudServer* server = out.server.get();
    if (frame.op != WalOp::kMeta && server == nullptr) {
      return Status::Corruption(
          "WAL frame before any meta frame and no snapshot");
    }
    switch (frame.op) {
      case WalOp::kMeta: {
        auto meta = DecodeWalMeta(frame.body);
        if (!meta.ok()) return meta.status();
        if (server != nullptr) return Status::OK();  // re-attach marker
        auto binning = index::DomainBinning::Create(
            meta->domain_min, meta->domain_max, meta->bin_width);
        if (!binning.ok()) return binning.status();
        out.server = std::make_unique<cloud::CloudServer>(
            std::move(binning).ValueOrDie());
        return Status::OK();
      }
      case WalOp::kStart: {
        auto pn = DecodeWalStart(frame.body);
        if (!pn.ok()) return pn.status();
        return server->StartPublication(*pn);
      }
      case WalOp::kRecordBatch: {
        // One store call per frame, the same call the live cloud node
        // made for its runs; the records are views into the frame body.
        auto batch = DecodeWalRecordBatch(frame.body);
        if (!batch.ok()) return batch.status();
        FRESQUE_RETURN_NOT_OK(server->IngestRecords(batch->pn, batch->records));
        out.stats.records_replayed += batch->records.size();
        return Status::OK();
      }
      case WalOp::kInstall: {
        auto ins = DecodeWalInstall(frame.body);
        if (!ins.ok()) return ins.status();
        // The frame's publication becomes the installed publication's one
        // buffer, as the live cloud node's payload does.
        auto payload =
            std::make_shared<const Bytes>(std::move(ins->publication));
        auto pub = net::DecodeSharedIndexPublication(payload);
        if (!pub.ok()) return pub.status();
        auto stats = server->PublishIndexed(ins->pn, std::move(*pub),
                                            std::move(payload));
        if (!stats.ok()) return stats.status();
        ++out.stats.installs_replayed;
        return Status::OK();
      }
    }
    return Status::Corruption("unhandled WAL op");
  };

  auto replay = Wal::Replay(dir, after_lsn, apply);
  if (!replay.ok()) return replay.status();
  out.stats.frames_replayed = replay->frames;
  out.stats.last_lsn = replay->last_lsn;
  out.stats.torn_tail = replay->torn_tail;
  out.stats.torn_bytes = replay->torn_bytes;

  if (out.server == nullptr) {
    return Status::NotFound("nothing to recover in " + dir +
                            " (no snapshot, no WAL frames)");
  }
  out.stats.recovery_millis = watch.ElapsedMillis();
  FRESQUE_FLIGHT_EVENT(kRecovery, "wal replay complete", out.stats.frames_replayed,
                       out.stats.last_lsn, out.stats.torn_tail ? 1 : 0);
  return out;
}

bool RecoveryManager::HasState(const std::string& dir) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name == "MANIFEST" || name.rfind("wal-", 0) == 0) return true;
  }
  return false;
}

}  // namespace durability
}  // namespace fresque
