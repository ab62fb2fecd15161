// Crash-injection harness: ingest publications with fsync=always through
// the durable CloudNode, record the WAL's durable byte offset at each
// publication ack, then simulate SIGKILL by truncating a copy of the log
// at randomized offsets. Recovery from every cut must restore all
// publications whose ack preceded the cut byte-for-byte, and a cut inside
// the final frame must be treated as a torn tail, never as data loss or a
// crash. A second harness crashes inside incremental snapshots: from
// copies of the data dir taken just before and just after each snapshot
// it rebuilds the directory a crash would leave between its steps. A
// third does the same for snapshots written in the background while
// records go on being appended and committed.
// Randomized but reproducible: FRESQUE_CRASH_SEED selects the cut
// sequence and the workload (CI runs many seeds under ASan+UBSan).

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "cloud/server.h"
#include "durability/recovery.h"
#include "durability/snapshot_manager.h"
#include "durability/wal.h"
#include "engine/cloud_node.h"
#include "gate_clock.h"
#include "index/index.h"
#include "index/overflow.h"
#include "net/payloads.h"

namespace fresque {
namespace {

namespace fs = std::filesystem;

constexpr size_t kSegHeaderBytes = 16;  // magic + base LSN (wal.cc grammar)

uint64_t CrashSeed() {
  if (const char* env = std::getenv("FRESQUE_CRASH_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260807;
}

std::string FreshDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

Bytes ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in) << path;
  std::streamsize size = in.tellg();
  in.seekg(0);
  Bytes data(static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(data.data()), size);
  return data;
}

void WriteAll(const std::string& path, const Bytes& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

/// Copies the files of `src` that `keep` accepts into a fresh dir.
template <typename Keep>
std::string CopyDir(const std::string& src, const std::string& name,
                    Keep keep) {
  std::string dst = FreshDir(name);
  for (const auto& entry : fs::directory_iterator(src)) {
    const std::string fname = entry.path().filename().string();
    if (keep(fname)) WriteAll(dst + "/" + fname, ReadAll(entry.path().string()));
  }
  return dst;
}

std::set<std::string> FileNames(const std::string& dir) {
  std::set<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.insert(entry.path().filename().string());
  }
  return names;
}

bool HasPrefix(const std::string& name, const char* prefix) {
  return name.rfind(prefix, 0) == 0;
}

struct PubTruth {
  std::vector<Bytes> records;   // ingest order, plaintext-of-the-test bytes
  Bytes evidence;               // verbatim publication payload
  uint64_t durable_offset = 0;  // wal file length covering this pub's ack
};

net::Message Msg(net::MessageType type, uint64_t pn, uint64_t leaf = 0,
                 Bytes payload = {}) {
  net::Message m;
  m.type = type;
  m.pn = pn;
  m.leaf = leaf;
  m.payload = std::move(payload);
  return m;
}

Bytes PublicationPayload(size_t num_leaves, const std::vector<int64_t>& counts) {
  auto layout = index::IndexLayout::Create(num_leaves, 4);
  auto binning = index::DomainBinning::Create(
      0, static_cast<double>(num_leaves), 1);
  auto idx = index::HistogramIndex::FromLeafCounts(
      std::move(layout).ValueOrDie(), std::move(binning).ValueOrDie(),
      counts);
  index::OverflowArrays ovf(num_leaves, 1);
  return net::EncodeIndexPublication(net::IndexPublication(
      std::move(idx).ValueOrDie(), std::move(ovf)));
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  static constexpr size_t kLeaves = 16;
  static constexpr size_t kPublications = 6;

  /// Runs one durable ingest session and fills `truth_`: per publication,
  /// its record bytes, evidence payload, and the WAL offset at which its
  /// ack became durable (fsync=always => file bytes on disk at ack time).
  void RunIngestSession(const std::string& dir, uint64_t seed) {
    auto binning = index::DomainBinning::Create(0, kLeaves, 1);
    cloud::CloudServer server(std::move(binning).ValueOrDie());
    engine::CloudNode node(&server);

    durability::WalOptions wopts;
    wopts.dir = dir;
    wopts.fsync_policy = durability::FsyncPolicy::kAlways;
    wopts.segment_bytes = 256u << 20;  // one segment: offsets == file bytes
    auto wal = durability::Wal::Open(std::move(wopts));
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    durability::Wal* wal_ptr = wal->get();
    ASSERT_TRUE(node.AttachDurability(wal_ptr).ok());

    auto acks = net::MakeMailbox(64);
    node.RouteAcksTo(acks);
    node.Start();

    std::mt19937_64 rng(seed);
    for (uint64_t pn = 0; pn < kPublications; ++pn) {
      PubTruth truth;
      node.inbox()->Push(Msg(net::MessageType::kPublicationStart, pn));
      std::vector<int64_t> counts(kLeaves, 0);
      size_t n_records = 20 + rng() % 60;
      for (size_t i = 0; i < n_records; ++i) {
        uint32_t leaf = static_cast<uint32_t>(rng() % kLeaves);
        Bytes rec(8 + rng() % 48);
        for (auto& b : rec) b = static_cast<uint8_t>(rng());
        truth.records.push_back(rec);
        counts[leaf] += 1;
        node.inbox()->Push(
            Msg(net::MessageType::kCloudRecord, pn, leaf, std::move(rec)));
      }
      truth.evidence = PublicationPayload(kLeaves, counts);
      node.inbox()->Push(Msg(net::MessageType::kIndexPublication, pn, 0,
                             truth.evidence));
      // Wait for the durable ack; only then is the offset meaningful.
      auto ack = acks->Pop();
      ASSERT_TRUE(ack.has_value());
      ASSERT_EQ(ack->type, net::MessageType::kPublicationAck);
      ASSERT_EQ(ack->pn, pn);
      ASSERT_EQ(ack->leaf, 0u)
          << std::string(ack->payload.begin(), ack->payload.end());
      // Nothing else is in flight (we push strictly after popping the
      // ack), so flushed_bytes() is exactly the durable prefix.
      truth.durable_offset = kSegHeaderBytes + wal_ptr->flushed_bytes();
      truth_[pn] = std::move(truth);
    }
    node.inbox()->Push(Msg(net::MessageType::kShutdown, 0));
    node.Shutdown();
    ASSERT_TRUE(node.first_error().ok()) << node.first_error().ToString();
  }

  /// Copies `src_dir`'s WAL cut to `cut` bytes into a fresh dir.
  std::string MakeCutCopy(const std::string& src_dir, uint64_t cut,
                          const std::string& name) {
    std::string dst = FreshDir(name);
    for (const auto& entry : fs::directory_iterator(src_dir)) {
      std::string fname = entry.path().filename().string();
      Bytes data = ReadAll(entry.path().string());
      if (fname.rfind("wal-", 0) == 0 && data.size() > cut) {
        data.resize(cut);
      }
      WriteAll(dst + "/" + fname, data);
    }
    return dst;
  }

  /// Asserts that every publication acked at or before `cut` recovered
  /// byte-identically.
  void CheckCut(const std::string& src_dir, uint64_t cut, int trial) {
    std::string dst =
        MakeCutCopy(src_dir, cut, "crash_cut_" + std::to_string(trial));
    auto recovered = durability::RecoveryManager::Recover(dst);

    std::vector<uint64_t> must_survive;
    for (const auto& [pn, truth] : truth_) {
      if (truth.durable_offset <= cut) must_survive.push_back(pn);
    }
    if (!recovered.ok()) {
      // Only acceptable failure: the cut is so early that neither the
      // meta frame nor any whole frame survived — and then no
      // publication had been acked below the cut either.
      ASSERT_TRUE(recovered.status().IsNotFound())
          << "cut " << cut << ": " << recovered.status().ToString();
      EXPECT_TRUE(must_survive.empty())
          << "cut " << cut << " lost " << must_survive.size()
          << " acked publication(s)";
      fs::remove_all(dst);
      return;
    }

    for (uint64_t pn : must_survive) {
      const PubTruth& truth = truth_.at(pn);
      auto evidence = recovered->server->PublicationEvidence(pn);
      ASSERT_TRUE(evidence.ok())
          << "cut " << cut << ": acked publication " << pn
          << " lost its evidence: " << evidence.status().ToString();
      EXPECT_EQ(*evidence, truth.evidence) << "cut " << cut << " pn " << pn;

      std::vector<Bytes> stored;
      ASSERT_TRUE(recovered->server
                      ->ForEachStoredRecord(
                          pn,
                          [&stored](const cloud::PhysicalAddress&,
                                    const uint8_t* d, size_t n) {
                            stored.emplace_back(d, d + n);
                            return Status::OK();
                          })
                      .ok());
      EXPECT_EQ(stored, truth.records)
          << "cut " << cut << ": publication " << pn
          << " records not byte-identical";
    }
    fs::remove_all(dst);
  }

  std::map<uint64_t, PubTruth> truth_;
};

TEST_F(CrashRecoveryTest, AckedPublicationsSurviveRandomizedCuts) {
  uint64_t seed = CrashSeed();
  std::string dir = FreshDir("crash_src");
  RunIngestSession(dir, seed);
  if (HasFatalFailure()) return;

  // The durable offsets are strictly increasing with pn.
  uint64_t prev = 0;
  uint64_t end = 0;
  for (const auto& [pn, truth] : truth_) {
    EXPECT_GT(truth.durable_offset, prev);
    prev = truth.durable_offset;
    end = truth.durable_offset;
  }

  std::mt19937_64 rng(seed ^ 0x9E3779B97F4A7C15ull);
  int trial = 0;
  // Randomized cuts across the whole log...
  for (int i = 0; i < 20; ++i) {
    CheckCut(dir, rng() % (end + 1), trial++);
    if (HasFatalFailure()) return;
  }
  // ...plus adversarial cuts at and around every ack boundary (the exact
  // frame edges where off-by-one bugs live).
  for (const auto& [pn, truth] : truth_) {
    for (int64_t delta : {-1, 0, 1}) {
      uint64_t cut = truth.durable_offset + static_cast<uint64_t>(delta);
      CheckCut(dir, cut, trial++);
      if (HasFatalFailure()) return;
    }
  }
  // A cut beyond the file is a no-op: everything survives.
  CheckCut(dir, end + (1u << 20), trial++);
  fs::remove_all(dir);
}

/// Recovers `dir` and checks it holds exactly `want`: every installed
/// publication's evidence and every publication's records, byte for byte.
void ExpectRecovers(const std::string& dir,
                    const std::map<uint64_t, PubTruth>& want,
                    const std::string& what) {
  auto recovered = durability::RecoveryManager::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << what << ": " << recovered.status().ToString();
  const cloud::CloudServer& server = *recovered->server;
  EXPECT_EQ(server.num_publications(), want.size()) << what;
  for (const auto& [pn, truth] : want) {
    auto evidence = server.PublicationEvidence(pn);
    if (truth.evidence.empty()) {
      EXPECT_TRUE(evidence.status().IsNotFound()) << what << " pn " << pn;
    } else {
      ASSERT_TRUE(evidence.ok()) << what << ": acked publication " << pn
                                 << " lost its evidence";
      EXPECT_EQ(*evidence, truth.evidence) << what << " pn " << pn;
    }
    std::vector<Bytes> stored;
    ASSERT_TRUE(server
                    .ForEachStoredRecord(pn,
                                         [&stored](const cloud::PhysicalAddress&,
                                                   const uint8_t* d, size_t n) {
                                           stored.emplace_back(d, d + n);
                                           return Status::OK();
                                         })
                    .ok());
    EXPECT_EQ(stored, truth.records)
        << what << ": publication " << pn << " records not byte-identical";
  }
}

/// Recovers the crash state `dir` as it is, then again with every snapshot
/// file its MANIFEST does not name overwritten by garbage: both must hold
/// exactly `want`, so recovery reads only the files the MANIFEST names.
void CheckSnapshotCrash(const std::string& dir,
                        const std::map<uint64_t, PubTruth>& want,
                        const std::string& what) {
  ExpectRecovers(dir, want, what);
  std::set<std::string> named;
  auto manifest = durability::ReadManifest(dir);
  if (manifest.ok()) {
    named.insert(manifest->snapshot_files.begin(),
                 manifest->snapshot_files.end());
  }
  for (const std::string& name : FileNames(dir)) {
    if ((HasPrefix(name, "sealed-") || HasPrefix(name, "open-")) &&
        named.count(name) == 0) {
      WriteAll(dir + "/" + name, Bytes(64, 0xEE));
    }
  }
  ExpectRecovers(dir, want, what + " (unnamed files poisoned)");
  fs::remove_all(dir);
}

TEST_F(CrashRecoveryTest, AckedPublicationsSurviveCrashesInsideASnapshot) {
  const uint64_t seed = CrashSeed() + 2;
  std::mt19937_64 rng(seed);
  const std::string dir = FreshDir("crash_snap_src");
  cloud::CloudServer server(
      index::DomainBinning::Create(0, kLeaves, 1).ValueOrDie());
  durability::WalOptions wopts;
  wopts.dir = dir;
  wopts.fsync_policy = durability::FsyncPolicy::kAlways;
  wopts.segment_bytes = 1024;  // several segments, so truncation drops some
  auto wal = durability::Wal::Open(std::move(wopts));
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  durability::Wal* log = wal->get();
  ASSERT_TRUE(log->AppendMeta(0, kLeaves, 1).ok());
  durability::SnapshotOptions sopts;
  sopts.dir = dir;
  sopts.snapshot_every_installs = 2;
  durability::SnapshotManager manager(sopts, &server, log);

  // The test thread plays the cloud node: apply, log, commit, then ack.
  std::map<uint64_t, std::vector<int64_t>> counts;
  auto ingest = [&](uint64_t pn, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t leaf = static_cast<uint32_t>(rng() % kLeaves);
      Bytes rec(8 + rng() % 48);
      for (auto& b : rec) b = static_cast<uint8_t>(rng());
      ASSERT_TRUE(server.IngestRecord(pn, leaf, rec).ok());
      ASSERT_TRUE(log->AppendRecord(pn, leaf, rec).ok());
      counts[pn][leaf] += 1;
      truth_[pn].records.push_back(std::move(rec));
    }
  };
  auto open = [&](uint64_t pn) {
    ASSERT_TRUE(server.StartPublication(pn).ok());
    ASSERT_TRUE(log->AppendStart(pn).ok());
    counts[pn].assign(kLeaves, 0);
    truth_[pn];
    ingest(pn, 10 + rng() % 30);
  };

  auto all = [](const std::string&) { return true; };
  int snapshots = 0;
  int segments_dropped = 0;
  for (uint64_t pn = 0; pn <= kPublications; ++pn) {
    // Publication pn opens before pn - 1 installs, so snapshots also write
    // an open file, and records land after each snapshot too.
    if (pn < kPublications) open(pn);
    if (HasFatalFailure()) return;
    if (pn == 0) continue;
    const uint64_t done = pn - 1;
    Bytes payload = PublicationPayload(kLeaves, counts[done]);
    auto pub = net::DecodeIndexPublication(payload);
    ASSERT_TRUE(pub.ok());
    ASSERT_TRUE(server.PublishIndexed(done, std::move(*pub), payload).ok());
    ASSERT_TRUE(log->AppendInstall(done, payload).ok());
    ASSERT_TRUE(log->Commit().ok());  // fsync=always: durable, so acked
    truth_[done].evidence = std::move(payload);

    const std::string before = CopyDir(dir, "crash_snap_before", all);
    durability::DurabilityMetrics m;
    manager.FillMetrics(&m);
    const uint64_t written = m.snapshots_written;
    ASSERT_TRUE(manager.NoteInstall().ok());
    ASSERT_TRUE(manager.Drain().ok());
    manager.FillMetrics(&m);
    if (m.snapshots_written > written) {
      ++snapshots;
      const std::string after = CopyDir(dir, "crash_snap_after", all);
      const std::set<std::string> old_files = FileNames(before);
      const std::set<std::string> new_files = FileNames(after);
      auto is_new = [&](const std::string& n) {
        return (HasPrefix(n, "sealed-") || HasPrefix(n, "open-")) &&
               old_files.count(n) == 0;
      };
      for (const std::string& n : old_files) {
        if (HasPrefix(n, "wal-") && new_files.count(n) == 0) ++segments_dropped;
      }
      // A crash point: the files `take_new` picks from the copy after the
      // snapshot plus those `keep_old` picks from the copy before it.
      // Nothing is appended during a snapshot, so a WAL segment in both
      // copies has the same bytes.
      auto point = [&](auto take_new, auto keep_old) {
        std::string crash = CopyDir(after, "crash_snap_point", take_new);
        for (const std::string& n : old_files) {
          if (keep_old(n)) WriteAll(crash + "/" + n, ReadAll(before + "/" + n));
        }
        return crash;
      };
      const std::string at = "pn " + std::to_string(done) + " snapshot " +
                             std::to_string(snapshots) + " ";
      auto new_sealed = [&](const std::string& n) {
        return is_new(n) && HasPrefix(n, "sealed-");
      };
      CheckSnapshotCrash(point(new_sealed, all), truth_,
                         at + "after the sealed file's rename");
      CheckSnapshotCrash(point(is_new, all), truth_,
                         at + "after the open file's rename");
      CheckSnapshotCrash(
          point([&](const std::string& n) { return is_new(n) || n == "MANIFEST"; },
                [](const std::string& n) { return n != "MANIFEST"; }),
          truth_, at + "after the MANIFEST flip");
      CheckSnapshotCrash(point(all,
                               [&](const std::string& n) {
                                 return new_files.count(n) == 0 &&
                                        !HasPrefix(n, "wal-");
                               }),
                         truth_, at + "after truncation, before cleanup");
      CheckSnapshotCrash(point(all, [](const std::string&) { return false; }),
                         truth_, at + "after cleanup");
      fs::remove_all(after);
    }
    fs::remove_all(before);
    if (HasFatalFailure()) return;
    if (pn < kPublications) ingest(pn, 5 + rng() % 20);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(snapshots, static_cast<int>(kPublications / 2));
  EXPECT_GT(segments_dropped, 0) << "no crash point fell between truncation "
                                    "and cleanup";
  fs::remove_all(dir);
}

TEST_F(CrashRecoveryTest,
       AckedPublicationsSurviveCrashesInsideABackgroundSnapshot) {
  // As above, but each snapshot is written by the manager's writer while
  // the test thread, playing the cloud node, goes on ingesting into the
  // open publication: between the cut and the end of the write it appends
  // and commits one run of records (acked) and appends a second without
  // committing it, which the truncation writes to the segment it seals.
  const uint64_t seed = CrashSeed() + 3;
  std::mt19937_64 rng(seed);
  const std::string dir = FreshDir("crash_bg_src");
  cloud::CloudServer server(
      index::DomainBinning::Create(0, kLeaves, 1).ValueOrDie());
  durability::WalOptions wopts;
  wopts.dir = dir;
  wopts.fsync_policy = durability::FsyncPolicy::kAlways;
  // Small segments: the records committed during a write fill segments
  // that are sealed before the write's truncation runs, which must keep
  // them.
  wopts.segment_bytes = 256;
  auto wal = durability::Wal::Open(std::move(wopts));
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  durability::Wal* log = wal->get();
  ASSERT_TRUE(log->AppendMeta(0, kLeaves, 1).ok());
  GateClock gate;  // holds each background write before its first file
  durability::SnapshotOptions sopts;
  sopts.dir = dir;
  sopts.snapshot_every_installs = 2;
  sopts.clock = &gate;
  durability::SnapshotManager manager(sopts, &server, log);

  std::map<uint64_t, std::vector<int64_t>> counts;
  auto ingest = [&](uint64_t pn, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t leaf = static_cast<uint32_t>(rng() % kLeaves);
      Bytes rec(8 + rng() % 48);
      for (auto& b : rec) b = static_cast<uint8_t>(rng());
      ASSERT_TRUE(server.IngestRecord(pn, leaf, rec).ok());
      ASSERT_TRUE(log->AppendRecord(pn, leaf, rec).ok());
      counts[pn][leaf] += 1;
      truth_[pn].records.push_back(std::move(rec));
    }
  };
  auto open = [&](uint64_t pn) {
    ASSERT_TRUE(server.StartPublication(pn).ok());
    ASSERT_TRUE(log->AppendStart(pn).ok());
    counts[pn].assign(kLeaves, 0);
    truth_[pn];
    ingest(pn, 10 + rng() % 30);
  };

  auto all = [](const std::string&) { return true; };
  int snapshots = 0;
  int segments_dropped = 0;
  for (uint64_t pn = 0; pn <= kPublications; ++pn) {
    if (pn < kPublications) open(pn);
    if (HasFatalFailure()) return;
    if (pn == 0) continue;
    const uint64_t done = pn - 1;
    Bytes payload = PublicationPayload(kLeaves, counts[done]);
    auto pub = net::DecodeIndexPublication(payload);
    ASSERT_TRUE(pub.ok());
    ASSERT_TRUE(server.PublishIndexed(done, std::move(*pub), payload).ok());
    ASSERT_TRUE(log->AppendInstall(done, payload).ok());
    ASSERT_TRUE(log->Commit().ok());
    truth_[done].evidence = std::move(payload);

    // Every second install cuts; nothing is deferred, as each write is
    // waited for before the next install.
    const bool cuts = (done + 1) % 2 == 0;
    if (cuts) gate.Close();
    ASSERT_TRUE(manager.NoteInstall().ok());
    if (!cuts) continue;
    gate.AwaitHeld();
    if (pn < kPublications) {
      for (size_t i = 5 + rng() % 20; i > 0; --i) {
        ingest(pn, 1);
        ASSERT_TRUE(log->Commit().ok());  // acked during the write
      }
    }
    if (HasFatalFailure()) return;
    // The durable state when the write starts: the crash points before
    // its truncation keep this WAL and must recover these records.
    const std::string mid = CopyDir(dir, "crash_bg_mid", all);
    const std::map<uint64_t, PubTruth> mid_truth = truth_;
    if (pn < kPublications) ingest(pn, 3 + rng() % 10);  // not committed
    if (HasFatalFailure()) return;
    gate.Open();
    ASSERT_TRUE(manager.Drain().ok());
    ASSERT_TRUE(log->Commit().ok());
    ++snapshots;
    const std::string after = CopyDir(dir, "crash_bg_after", all);
    const std::set<std::string> old_files = FileNames(mid);
    const std::set<std::string> new_files = FileNames(after);
    auto is_new = [&](const std::string& n) {
      return (HasPrefix(n, "sealed-") || HasPrefix(n, "open-")) &&
             old_files.count(n) == 0;
    };
    for (const std::string& n : old_files) {
      if (HasPrefix(n, "wal-") && new_files.count(n) == 0) ++segments_dropped;
    }
    // A crash point: the files `take_new` picks from the copy after the
    // write plus those `keep_old` picks from the copy when it started.
    // Until the truncation, the WAL is the one in `mid`: each segment a
    // prefix of its final bytes, holding every fsynced one.
    auto point = [&](auto take_new, auto keep_old) {
      std::string crash = CopyDir(after, "crash_bg_point", take_new);
      for (const std::string& n : old_files) {
        if (keep_old(n)) WriteAll(crash + "/" + n, ReadAll(mid + "/" + n));
      }
      return crash;
    };
    const std::string at = "pn " + std::to_string(done) + " snapshot " +
                           std::to_string(snapshots) + " ";
    auto new_sealed = [&](const std::string& n) {
      return is_new(n) && HasPrefix(n, "sealed-");
    };
    CheckSnapshotCrash(point(new_sealed, all), mid_truth,
                       at + "after the sealed file's rename");
    CheckSnapshotCrash(point(is_new, all), mid_truth,
                       at + "after the open file's rename");
    CheckSnapshotCrash(
        point([&](const std::string& n) { return is_new(n) || n == "MANIFEST"; },
              [](const std::string& n) { return n != "MANIFEST"; }),
        mid_truth, at + "after the MANIFEST flip");
    CheckSnapshotCrash(point(all,
                             [&](const std::string& n) {
                               return new_files.count(n) == 0 &&
                                      !HasPrefix(n, "wal-");
                             }),
                       truth_, at + "after truncation, before cleanup");
    CheckSnapshotCrash(point(all, [](const std::string&) { return false; }),
                       truth_, at + "after cleanup");
    fs::remove_all(after);
    fs::remove_all(mid);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(snapshots, static_cast<int>(kPublications / 2));
  EXPECT_GT(segments_dropped, 0) << "no crash point fell between truncation "
                                    "and cleanup";
  fs::remove_all(dir);
}

TEST_F(CrashRecoveryTest, MidLogCorruptionIsReportedNotReplayed) {
  uint64_t seed = CrashSeed() + 1;
  std::string dir = FreshDir("crash_corrupt_src");
  RunIngestSession(dir, seed);
  if (HasFatalFailure()) return;

  // Find the WAL file and flip a byte well inside the durable prefix
  // (inside the first publication's frames, nowhere near the tail).
  std::string wal_file;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0) wal_file = entry.path().string();
  }
  ASSERT_FALSE(wal_file.empty());
  Bytes data = ReadAll(wal_file);
  uint64_t first_ack = truth_.begin()->second.durable_offset;
  ASSERT_GT(first_ack, kSegHeaderBytes + 8u);
  std::mt19937_64 rng(seed);
  for (int trial = 0; trial < 10; ++trial) {
    Bytes mutated = data;
    size_t pos = kSegHeaderBytes +
                 rng() % (first_ack - kSegHeaderBytes - 1);
    mutated[pos] ^= uint8_t(1u << (rng() % 8));
    std::string dst = FreshDir("crash_corrupt_" + std::to_string(trial));
    WriteAll(dst + "/" + fs::path(wal_file).filename().string(), mutated);
    auto recovered = durability::RecoveryManager::Recover(dst);
    // Damage in the durable prefix must surface as an error — recovering
    // a silently different state would be worse than failing. (A flip in
    // a frame's length field can also legally read as a torn tail if it
    // truncates the stream; both are loud, neither fabricates state.)
    if (recovered.ok()) {
      EXPECT_TRUE(recovered->stats.torn_tail)
          << "trial " << trial << " pos " << pos
          << ": corrupt log replayed cleanly";
    }
    fs::remove_all(dst);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace fresque
