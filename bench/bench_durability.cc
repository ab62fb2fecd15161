// Durability microbenchmarks (not a paper figure — the FRESQUE paper
// assumes a durable cloud store without costing it): WAL append
// throughput under each fsync policy, recovery time as a function of log
// size, and the time of each snapshot while the store grows. Emits
// durability.json in the working directory so the numbers land next to
// the figure CSVs in results/.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cloud/server.h"
#include "durability/recovery.h"
#include "durability/snapshot_manager.h"
#include "durability/wal.h"
#include "index/index.h"
#include "index/overflow.h"
#include "net/payloads.h"

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string FreshDir(const std::string& name) {
  std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A signed publication payload with one empty overflow slot per leaf.
fresque::Bytes PublicationPayload(size_t num_leaves) {
  auto layout = fresque::index::IndexLayout::Create(num_leaves, 4);
  auto binning = fresque::index::DomainBinning::Create(
      0, static_cast<double>(num_leaves), 1);
  std::vector<int64_t> counts(num_leaves, 3);
  auto idx = fresque::index::HistogramIndex::FromLeafCounts(
      std::move(layout).ValueOrDie(), std::move(binning).ValueOrDie(),
      counts);
  fresque::index::OverflowArrays ovf(num_leaves, 1);
  return fresque::net::EncodeSignedIndexPublication(
             fresque::net::IndexPublication(std::move(idx).ValueOrDie(),
                                            std::move(ovf)),
             fresque::Bytes(32, 0x4B), 0,
             [](uint8_t*, std::span<const size_t>) {
               return fresque::Status::OK();
             })
      .ValueOrDie();
}

struct AppendResult {
  std::string policy;
  uint64_t records;
  uint64_t bytes;
  uint64_t fsyncs;
  double seconds;
};

/// Appends `n` record frames of `record_bytes` each, committing after
/// every `commit_every` records (the ack boundary in the real pipeline).
AppendResult BenchAppend(fresque::durability::FsyncPolicy policy,
                         const std::string& name, uint64_t n,
                         size_t record_bytes, uint64_t commit_every) {
  std::string dir = FreshDir("bench_wal_" + name);
  fresque::durability::WalOptions opts;
  opts.dir = dir;
  opts.fsync_policy = policy;
  opts.fsync_interval_ms = 10;
  auto wal = fresque::durability::Wal::Open(std::move(opts));
  if (!wal.ok()) {
    std::cerr << "wal open failed: " << wal.status().ToString() << "\n";
    std::exit(1);
  }
  fresque::Bytes record(record_bytes, 0xAB);

  auto t0 = Clock::now();
  for (uint64_t i = 0; i < n; ++i) {
    (void)(*wal)->AppendRecord(0, static_cast<uint32_t>(i % 64), record);
    if ((i + 1) % commit_every == 0) (void)(*wal)->Commit();
  }
  (void)(*wal)->Commit();
  AppendResult r;
  r.policy = name;
  r.records = n;
  r.seconds = SecondsSince(t0);
  fresque::durability::DurabilityMetrics m;
  (*wal)->FillMetrics(&m);
  r.bytes = m.wal_bytes;
  r.fsyncs = m.wal_fsyncs;
  wal->reset();
  fs::remove_all(dir);
  return r;
}

struct RecoverResult {
  uint64_t records;
  uint64_t log_bytes;
  double seconds;
};

/// Builds a log holding `n` records split over `pubs` installed
/// publications, then times a cold RecoveryManager::Recover of it.
RecoverResult BenchRecover(uint64_t n, size_t record_bytes, uint64_t pubs) {
  std::string dir = FreshDir("bench_recover_" + std::to_string(n));
  constexpr size_t kLeaves = 64;
  {
    fresque::durability::WalOptions opts;
    opts.dir = dir;
    opts.fsync_policy = fresque::durability::FsyncPolicy::kNever;
    auto wal = fresque::durability::Wal::Open(std::move(opts));
    if (!wal.ok()) std::exit(1);
    (void)(*wal)->AppendMeta(0, static_cast<double>(kLeaves), 1);
    fresque::Bytes record(record_bytes, 0xCD);
    fresque::Bytes payload = PublicationPayload(kLeaves);
    for (uint64_t pn = 0; pn < pubs; ++pn) {
      (void)(*wal)->AppendStart(pn);
      for (uint64_t i = 0; i < n / pubs; ++i) {
        (void)(*wal)->AppendRecord(pn, static_cast<uint32_t>(i % kLeaves),
                                   record);
      }
      (void)(*wal)->AppendInstall(pn, payload);
    }
    (void)(*wal)->Commit();
  }
  RecoverResult r;
  r.records = n;
  r.log_bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    r.log_bytes += fs::file_size(entry.path());
  }
  auto t0 = Clock::now();
  auto recovered = fresque::durability::RecoveryManager::Recover(dir);
  r.seconds = SecondsSince(t0);
  if (!recovered.ok()) {
    std::cerr << "recover failed: " << recovered.status().ToString() << "\n";
    std::exit(1);
  }
  fs::remove_all(dir);
  return r;
}

struct SnapshotResult {
  int snapshot;
  uint64_t publications;  // installed publications in the store
  uint64_t records;       // records in the store
  double seconds;
};

/// Times `snapshots` SnapshotManager::WriteSnapshot calls over one store,
/// installing `pubs_per_snapshot` publications of `records_per_pub`
/// records before each, every mutation logged as the cloud node logs it
/// (WAL fsync never; snapshot files are fsynced as always).
std::vector<SnapshotResult> BenchSnapshots(int snapshots,
                                           uint64_t pubs_per_snapshot,
                                           uint64_t records_per_pub,
                                           size_t record_bytes) {
  std::string dir = FreshDir("bench_snapshots");
  constexpr size_t kLeaves = 64;
  fresque::cloud::CloudServer server(
      fresque::index::DomainBinning::Create(0, static_cast<double>(kLeaves), 1)
          .ValueOrDie());
  fresque::durability::WalOptions opts;
  opts.dir = dir;
  opts.fsync_policy = fresque::durability::FsyncPolicy::kNever;
  auto wal = fresque::durability::Wal::Open(std::move(opts));
  if (!wal.ok()) std::exit(1);
  (void)(*wal)->AppendMeta(0, static_cast<double>(kLeaves), 1);
  fresque::durability::SnapshotOptions sopts;
  sopts.dir = dir;
  sopts.snapshot_every_installs = 0;
  fresque::durability::SnapshotManager manager(sopts, &server, wal->get());

  const fresque::Bytes record(record_bytes, 0xEF);
  const fresque::Bytes payload = PublicationPayload(kLeaves);
  std::vector<SnapshotResult> out;
  uint64_t pn = 0;
  for (int s = 1; s <= snapshots; ++s) {
    for (uint64_t p = 0; p < pubs_per_snapshot; ++p, ++pn) {
      (void)server.StartPublication(pn);
      (void)(*wal)->AppendStart(pn);
      for (uint64_t i = 0; i < records_per_pub; ++i) {
        const auto leaf = static_cast<uint32_t>(i % kLeaves);
        (void)server.IngestRecord(pn, leaf, record);
        (void)(*wal)->AppendRecord(pn, leaf, record);
      }
      if (!server
               .PublishIndexed(pn,
                               std::make_shared<const fresque::Bytes>(payload))
               .ok()) {
        std::exit(1);
      }
      (void)(*wal)->AppendInstall(pn, payload);
      (void)(*wal)->Commit();
    }
    auto t0 = Clock::now();
    fresque::Status st = manager.WriteSnapshot();
    const double seconds = SecondsSince(t0);
    if (!st.ok()) {
      std::cerr << "snapshot failed: " << st.ToString() << "\n";
      std::exit(1);
    }
    out.push_back({s, pn, server.total_records(), seconds});
  }
  wal->reset();
  fs::remove_all(dir);
  return out;
}

}  // namespace

int main() {
  std::cout << "# Durability microbenchmarks: real file I/O on this\n"
            << "# machine's filesystem (no simulation), tmpfs/SSD\n"
            << "# characteristics apply to the fsync numbers.\n";
  constexpr size_t kRecordBytes = 128;  // typical padded ciphertext size

  fresque::bench::TableWriter append_table(
      "WAL append throughput vs fsync policy (128 B records, commit "
      "per 256)",
      {"policy", "records", "rec_per_s", "mb_per_s", "fsyncs"});
  std::vector<AppendResult> appends;
  appends.push_back(BenchAppend(fresque::durability::FsyncPolicy::kAlways,
                                "always", 20000, kRecordBytes, 256));
  appends.push_back(BenchAppend(fresque::durability::FsyncPolicy::kIntervalMs,
                                "interval_10ms", 200000, kRecordBytes, 256));
  appends.push_back(BenchAppend(fresque::durability::FsyncPolicy::kNever,
                                "never", 200000, kRecordBytes, 256));
  for (const auto& a : appends) {
    append_table.Row({a.policy, std::to_string(a.records),
                      fresque::bench::Fmt(a.records / a.seconds, "%.0f"),
                      fresque::bench::Fmt(a.bytes / a.seconds / 1e6, "%.1f"),
                      std::to_string(a.fsyncs)});
  }

  fresque::bench::TableWriter recover_table(
      "Recovery time vs log size (8 publications, 128 B records)",
      {"records", "log_mb", "recover_ms", "rec_per_s"});
  std::vector<RecoverResult> recovers;
  for (uint64_t n : {10000, 40000, 160000, 640000}) {
    recovers.push_back(BenchRecover(n, kRecordBytes, 8));
  }
  for (const auto& r : recovers) {
    recover_table.Row(
        {std::to_string(r.records),
         fresque::bench::Fmt(r.log_bytes / 1e6, "%.1f"),
         fresque::bench::Fmt(r.seconds * 1e3, "%.1f"),
         fresque::bench::Fmt(r.records / r.seconds, "%.0f")});
  }

  fresque::bench::TableWriter snapshot_table(
      "Time of each snapshot while the store grows (8 installs of 5000 "
      "128 B records between snapshots)",
      {"snapshot", "publications", "store_records", "snapshot_ms"});
  const std::vector<SnapshotResult> snaps =
      BenchSnapshots(8, 8, 5000, kRecordBytes);
  for (const auto& r : snaps) {
    snapshot_table.Row({std::to_string(r.snapshot),
                        std::to_string(r.publications),
                        std::to_string(r.records),
                        fresque::bench::Fmt(r.seconds * 1e3, "%.2f")});
  }

  std::ofstream json("durability.json");
  json << "{\n  \"record_bytes\": " << kRecordBytes
       << ",\n  \"append_throughput\": [\n";
  for (size_t i = 0; i < appends.size(); ++i) {
    const auto& a = appends[i];
    json << "    {\"policy\": \"" << a.policy
         << "\", \"records\": " << a.records
         << ", \"seconds\": " << a.seconds
         << ", \"records_per_second\": " << (a.records / a.seconds)
         << ", \"bytes_per_second\": " << (a.bytes / a.seconds)
         << ", \"fsyncs\": " << a.fsyncs << "}"
         << (i + 1 < appends.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"recovery_time\": [\n";
  for (size_t i = 0; i < recovers.size(); ++i) {
    const auto& r = recovers[i];
    json << "    {\"records\": " << r.records
         << ", \"log_bytes\": " << r.log_bytes
         << ", \"seconds\": " << r.seconds
         << ", \"records_per_second\": " << (r.records / r.seconds) << "}"
         << (i + 1 < recovers.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"snapshot_time\": [\n";
  for (size_t i = 0; i < snaps.size(); ++i) {
    const auto& r = snaps[i];
    json << "    {\"snapshot\": " << r.snapshot
         << ", \"installed_publications\": " << r.publications
         << ", \"store_records\": " << r.records
         << ", \"seconds\": " << r.seconds << "}"
         << (i + 1 < snaps.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "[json] durability.json\n";
  return 0;
}
