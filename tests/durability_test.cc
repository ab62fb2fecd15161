// Durability subsystem tests: WAL framing/rotation/torn-tail semantics,
// snapshot + manifest lifecycle, recovery equivalence (replayed state
// answers queries identically), and corrupt-input hardening of the
// storage / snapshot codecs.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "cloud/server.h"
#include "cloud/storage.h"
#include "crypto/key_manager.h"
#include "durability/crc32.h"
#include "durability/recovery.h"
#include "durability/snapshot_manager.h"
#include "durability/wal.h"
#include "engine/cloud_node.h"
#include "engine/fresque_collector.h"
#include "gate_clock.h"
#include "index/index.h"
#include "index/matching.h"
#include "index/overflow.h"
#include "net/payloads.h"
#include "payload_util.h"
#include "record/dataset.h"
#include "telemetry/telemetry.h"

namespace fresque {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const char* name) {
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

std::vector<std::string> WalFiles(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0) files.push_back(name);
  }
  std::sort(files.begin(), files.end());
  return files;
}

// --- CRC32 ---------------------------------------------------------------

TEST(Crc32Test, KnownVectorAndChaining) {
  // "123456789" -> 0xCBF43926 is the canonical CRC-32 check value.
  const uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(durability::Crc32(check, sizeof(check)), 0xCBF43926u);
  // Chaining halves must equal one pass.
  uint32_t split = durability::Crc32(check, 4);
  split = durability::Crc32(check + 4, sizeof(check) - 4, split);
  EXPECT_EQ(split, 0xCBF43926u);
  EXPECT_EQ(durability::Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, EmptyInputReturnsTheSeed) {
  const uint8_t byte = 0x5A;
  for (uint32_t seed : {0u, 1u, 0xCBF43926u, 0xFFFFFFFFu}) {
    EXPECT_EQ(durability::Crc32(&byte, 0, seed), seed);
    EXPECT_EQ(durability::Crc32(nullptr, 0, seed), seed);
  }
}

// Bit-at-a-time CRC-32, the reference the table kernel is checked against.
uint32_t ReferenceCrc32(const uint8_t* data, size_t len, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesByteLoopAtRandomLengthsAndOffsets) {
  std::mt19937 rng(20261017);
  Bytes buf(4096 + 8);
  for (auto& b : buf) b = static_cast<uint8_t>(rng());
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t len = rng() % 4097;
    const size_t off = rng() % 8;  // every word alignment
    const uint32_t seed = (trial % 2 == 0) ? 0u : static_cast<uint32_t>(rng());
    const uint8_t* p = buf.data() + off;
    const uint32_t want = ReferenceCrc32(p, len, seed);
    ASSERT_EQ(durability::Crc32(p, len, seed), want)
        << "len " << len << " offset " << off << " seed " << seed;
    // Chained calls over any split equal one call.
    const size_t cut = len == 0 ? 0 : rng() % (len + 1);
    ASSERT_EQ(durability::Crc32(p + cut, len - cut,
                                durability::Crc32(p, cut, seed)),
              want)
        << "len " << len << " split at " << cut;
  }
}

// --- Fsync policy parsing ------------------------------------------------

TEST(FsyncPolicyTest, ParsesAllSpellings) {
  uint64_t ms = 0;
  auto p = durability::ParseFsyncPolicy("always");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p, durability::FsyncPolicy::kAlways);
  p = durability::ParseFsyncPolicy("never");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p, durability::FsyncPolicy::kNever);
  p = durability::ParseFsyncPolicy("interval");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p, durability::FsyncPolicy::kIntervalMs);
  p = durability::ParseFsyncPolicy("interval:250", &ms);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p, durability::FsyncPolicy::kIntervalMs);
  EXPECT_EQ(ms, 250u);
  EXPECT_FALSE(durability::ParseFsyncPolicy("sometimes").ok());
  EXPECT_FALSE(durability::ParseFsyncPolicy("interval:abc").ok());
  EXPECT_FALSE(durability::ParseFsyncPolicy("").ok());
}

// --- WAL framing ---------------------------------------------------------

durability::WalOptions TinyWalOptions(const std::string& dir,
                                      size_t segment_bytes = 1 << 20) {
  durability::WalOptions o;
  o.dir = dir;
  o.segment_bytes = segment_bytes;
  o.fsync_policy = durability::FsyncPolicy::kNever;  // tests don't need fsync
  o.batch_records = 4;
  return o;
}

TEST(WalTest, AppendCommitReplayRoundTrip) {
  std::string dir = FreshDir("wal_roundtrip");
  auto wal = durability::Wal::Open(TinyWalOptions(dir));
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();

  ASSERT_TRUE((*wal)->AppendMeta(0, 10, 1).ok());
  ASSERT_TRUE((*wal)->AppendStart(7).ok());
  for (uint32_t i = 0; i < 10; ++i) {
    ASSERT_TRUE((*wal)->AppendRecord(7, i % 3, Bytes{uint8_t(i), 0xAB}).ok());
  }
  Bytes publication{1, 2, 3, 4};
  ASSERT_TRUE((*wal)->AppendInstall(7, publication).ok());
  ASSERT_TRUE((*wal)->Commit().ok());

  std::vector<durability::Wal::Frame> frames;
  auto stats = durability::Wal::Replay(
      dir, 0, [&frames](const durability::Wal::Frame& f) {
        frames.push_back(f);
        return Status::OK();
      });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(stats->torn_tail);
  ASSERT_GE(frames.size(), 4u);

  // LSNs strictly increase and ops arrive in append order.
  for (size_t i = 1; i < frames.size(); ++i) {
    EXPECT_LT(frames[i - 1].lsn, frames[i].lsn);
  }
  EXPECT_EQ(frames[0].op, durability::WalOp::kMeta);
  auto meta = durability::DecodeWalMeta(frames[0].body);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->domain_max, 10);
  EXPECT_EQ(frames[1].op, durability::WalOp::kStart);

  // Every ingested record comes back, in order, batched.
  size_t records_seen = 0;
  for (const auto& f : frames) {
    if (f.op == durability::WalOp::kRecordBatch) {
      auto b = durability::DecodeWalRecordBatch(f.body);
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(b->pn, 7u);
      for (const auto& [leaf, rec] : b->records) {
        EXPECT_EQ(leaf, records_seen % 3);
        ASSERT_EQ(rec.size(), 2u);
        EXPECT_EQ(rec[0], records_seen);
        ++records_seen;
      }
    }
  }
  EXPECT_EQ(records_seen, 10u);

  // The install is the last frame and carries the payload verbatim.
  EXPECT_EQ(frames.back().op, durability::WalOp::kInstall);
  auto ins = durability::DecodeWalInstall(frames.back().body);
  ASSERT_TRUE(ins.ok());
  EXPECT_EQ(ins->pn, 7u);
  EXPECT_EQ(ins->publication, publication);
}

// Appending a run in one call or record by record writes the same bytes:
// the frame boundaries come from batch_records, not from the calls.
TEST(WalTest, AppendRecordsWritesTheSameBytesAsAppendRecordLoop) {
  std::vector<Bytes> records;
  for (uint32_t i = 0; i < 11; ++i) records.push_back(Bytes(3 + i, uint8_t(i)));
  auto write = [&records](const char* name, bool as_run) {
    std::string dir = FreshDir(name);
    auto wal = durability::Wal::Open(TinyWalOptions(dir));  // 4 per batch
    EXPECT_TRUE(wal.ok());
    EXPECT_TRUE((*wal)->AppendStart(3).ok());
    if (as_run) {
      std::vector<cloud::LeafRecord> run;
      for (uint32_t i = 0; i < records.size(); ++i) {
        run.push_back({i % 5, records[i]});
      }
      EXPECT_TRUE((*wal)->AppendRecords(3, run).ok());
    } else {
      for (uint32_t i = 0; i < records.size(); ++i) {
        EXPECT_TRUE((*wal)->AppendRecord(3, i % 5, records[i]).ok());
      }
    }
    EXPECT_TRUE((*wal)->AppendInstall(3, Bytes{9, 9}).ok());
    EXPECT_TRUE((*wal)->Commit().ok());
    return dir;
  };
  auto segments = [](const std::string& dir) {
    std::vector<Bytes> out;
    for (const auto& f : WalFiles(dir)) out.push_back(ReadAll(dir + "/" + f));
    return out;
  };
  const std::vector<Bytes> loop = segments(write("wal_append_loop", false));
  const std::string run_dir = write("wal_append_run", true);
  ASSERT_FALSE(loop.empty());
  EXPECT_EQ(segments(run_dir), loop);

  // Each batch frame holds the grammar's bytes (u64 pn, u32 n, then
  // u32 leaf and length-prefixed e-record per record), and decodes back
  // to the records as views into the frame.
  size_t seen = 0;
  auto stats = durability::Wal::Replay(
      run_dir, 0, [&](const durability::Wal::Frame& f) {
        if (f.op != durability::WalOp::kRecordBatch) return Status::OK();
        auto b = durability::DecodeWalRecordBatch(f.body);
        EXPECT_TRUE(b.ok());
        BinaryWriter grammar;
        grammar.PutU64(3);
        grammar.PutU32(static_cast<uint32_t>(b->records.size()));
        for (const auto& [leaf, rec] : b->records) {
          EXPECT_EQ(leaf, seen % 5);
          EXPECT_EQ(Bytes(rec.begin(), rec.end()), records[seen]);
          grammar.PutU32(leaf);
          grammar.PutBytes(records[seen]);
          ++seen;
        }
        EXPECT_EQ(f.body, grammar.buffer());
        return Status::OK();
      });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(seen, records.size());
}

TEST(WalTest, RecordsBeforeInstallPerPublication) {
  // Interleave two publications; replay must still see every record of a
  // publication before that publication's install frame.
  std::string dir = FreshDir("wal_interleave");
  auto wal = durability::Wal::Open(TinyWalOptions(dir));
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->AppendStart(1).ok());
  ASSERT_TRUE((*wal)->AppendStart(2).ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE((*wal)->AppendRecord(1, 0, Bytes{0x11}).ok());
    ASSERT_TRUE((*wal)->AppendRecord(2, 0, Bytes{0x22}).ok());
  }
  ASSERT_TRUE((*wal)->AppendInstall(1, Bytes{0xA1}).ok());
  ASSERT_TRUE((*wal)->AppendInstall(2, Bytes{0xA2}).ok());
  ASSERT_TRUE((*wal)->Commit().ok());

  std::map<uint64_t, size_t> records;
  std::map<uint64_t, bool> installed;
  auto stats = durability::Wal::Replay(
      dir, 0, [&](const durability::Wal::Frame& f) -> Status {
        if (f.op == durability::WalOp::kRecordBatch) {
          auto b = durability::DecodeWalRecordBatch(f.body);
          if (!b.ok()) return b.status();
          if (installed[b->pn]) {
            return Status::Internal("record after install");
          }
          records[b->pn] += b->records.size();
        } else if (f.op == durability::WalOp::kInstall) {
          auto ins = durability::DecodeWalInstall(f.body);
          if (!ins.ok()) return ins.status();
          installed[ins->pn] = true;
        }
        return Status::OK();
      });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(records[1], 6u);
  EXPECT_EQ(records[2], 6u);
  EXPECT_TRUE(installed[1]);
  EXPECT_TRUE(installed[2]);
}

TEST(WalTest, RotatesSegmentsAndReplaysAcrossThem) {
  std::string dir = FreshDir("wal_rotate");
  auto wal = durability::Wal::Open(TinyWalOptions(dir, /*segment_bytes=*/512));
  ASSERT_TRUE(wal.ok());
  Bytes rec(64, 0x5A);
  for (uint32_t i = 0; i < 40; ++i) {
    ASSERT_TRUE((*wal)->AppendRecord(1, i, rec).ok());
    ASSERT_TRUE((*wal)->Commit().ok());  // seal one batch per record
  }
  EXPECT_GT(WalFiles(dir).size(), 1u);

  size_t seen = 0;
  uint64_t last_lsn = 0;
  auto stats = durability::Wal::Replay(
      dir, 0, [&](const durability::Wal::Frame& f) {
        EXPECT_GT(f.lsn, last_lsn);  // strict order across segment files
        last_lsn = f.lsn;
        auto b = durability::DecodeWalRecordBatch(f.body);
        EXPECT_TRUE(b.ok());
        seen += b->records.size();
        return Status::OK();
      });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(seen, 40u);
}

TEST(WalTest, TornTailIsToleratedAndTruncatedOnReopen) {
  std::string dir = FreshDir("wal_torn");
  uint64_t durable_lsn = 0;
  {
    auto wal = durability::Wal::Open(TinyWalOptions(dir));
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendStart(1).ok());
    ASSERT_TRUE((*wal)->AppendRecord(1, 0, Bytes(100, 0x77)).ok());
    ASSERT_TRUE((*wal)->Commit().ok());
    durable_lsn = (*wal)->last_lsn();
  }
  // Simulate a crash mid-write: chop bytes off the tail of the last file.
  auto files = WalFiles(dir);
  ASSERT_EQ(files.size(), 1u);
  std::string seg = dir + "/" + files[0];
  Bytes full = ReadAll(seg);
  Bytes cut(full.begin(), full.end() - 5);
  WriteAll(seg, cut);

  // Replay: every complete frame survives, the torn one is reported.
  size_t frames = 0;
  auto stats = durability::Wal::Replay(
      dir, 0, [&frames](const durability::Wal::Frame&) {
        ++frames;
        return Status::OK();
      });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->torn_tail);
  EXPECT_GT(stats->torn_bytes, 0u);
  EXPECT_EQ(stats->last_lsn, durable_lsn - 1);
  EXPECT_EQ(frames, durable_lsn - 1);

  // Reopen: the torn tail is truncated away and appends continue cleanly.
  auto wal = durability::Wal::Open(TinyWalOptions(dir));
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_TRUE((*wal)->AppendStart(2).ok());
  ASSERT_TRUE((*wal)->Commit().ok());
  durability::DurabilityMetrics m;
  (*wal)->FillMetrics(&m);
  EXPECT_GT(m.wal_torn_bytes_discarded, 0u);

  size_t frames_after = 0;
  stats = durability::Wal::Replay(
      dir, 0, [&frames_after](const durability::Wal::Frame&) {
        ++frames_after;
        return Status::OK();
      });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(stats->torn_tail);
  EXPECT_EQ(frames_after, frames + 1);
}

TEST(WalTest, MidFileCorruptionIsCorruptionNotTornTail) {
  std::string dir = FreshDir("wal_corrupt");
  {
    auto wal = durability::Wal::Open(TinyWalOptions(dir, /*segment_bytes=*/256));
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE((*wal)->AppendRecord(1, 0, Bytes(40, 0x33)).ok());
      ASSERT_TRUE((*wal)->Commit().ok());
    }
  }
  auto files = WalFiles(dir);
  ASSERT_GT(files.size(), 1u);
  // Flip one byte in the middle of the FIRST segment: this is damage, not
  // an in-flight write, and replay must refuse rather than silently skip.
  std::string seg = dir + "/" + files[0];
  Bytes data = ReadAll(seg);
  data[data.size() / 2] ^= 0x01;
  WriteAll(seg, data);

  auto stats = durability::Wal::Replay(
      dir, 0, [](const durability::Wal::Frame&) { return Status::OK(); });
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsCorruption()) << stats.status().ToString();
}

// Op ids 4 and 6 once held PINED-RQ++'s tagged frames. No writer emits
// them, so a frame carrying one is damage: even under a valid CRC, with a
// valid frame after it, replay reports Corruption.
TEST(WalTest, RetiredTaggedOpsReplayAsCorruption) {
  for (const uint8_t op : {uint8_t{4}, uint8_t{6}}) {
    const std::string dir = FreshDir("wal_retired_op");
    {
      auto wal = durability::Wal::Open(TinyWalOptions(dir));
      ASSERT_TRUE(wal.ok());
      ASSERT_TRUE((*wal)->AppendStart(1).ok());
      ASSERT_TRUE((*wal)->AppendStart(2).ok());
      ASSERT_TRUE((*wal)->Commit().ok());
    }
    auto files = WalFiles(dir);
    ASSERT_EQ(files.size(), 1u);
    const std::string seg = dir + "/" + files[0];
    Bytes data = ReadAll(seg);
    // The first frame follows the 16-byte segment header: u32 crc, u32 len,
    // then the body, whose first byte is the op. Retag it and re-sign it.
    const size_t at = 16;
    const uint32_t len = data[at + 4] | (data[at + 5] << 8) |
                         (data[at + 6] << 16) | (uint32_t{data[at + 7]} << 24);
    ASSERT_LT(at + 8 + len, data.size());  // the second frame follows
    data[at + 8] = op;
    const uint32_t crc = durability::Crc32(data.data() + at + 4, 4 + len);
    for (int i = 0; i < 4; ++i) data[at + i] = uint8_t(crc >> (8 * i));
    WriteAll(seg, data);

    size_t frames = 0;
    auto stats = durability::Wal::Replay(
        dir, 0, [&frames](const durability::Wal::Frame&) {
          ++frames;
          return Status::OK();
        });
    ASSERT_FALSE(stats.ok()) << "op " << int(op);
    EXPECT_TRUE(stats.status().IsCorruption()) << stats.status().ToString();
    EXPECT_NE(stats.status().ToString().find("unknown WAL op"),
              std::string::npos)
        << stats.status().ToString();
    EXPECT_EQ(frames, 0u);
  }
}

TEST(WalTest, TruncateObsoleteDropsCoveredSegments) {
  std::string dir = FreshDir("wal_truncate");
  auto wal = durability::Wal::Open(TinyWalOptions(dir, /*segment_bytes=*/256));
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE((*wal)->AppendRecord(1, 0, Bytes(40, 0x44)).ok());
    ASSERT_TRUE((*wal)->Commit().ok());
  }
  uint64_t mid_lsn = (*wal)->last_lsn();
  size_t before = WalFiles(dir).size();
  ASSERT_GT(before, 2u);

  auto dropped = (*wal)->TruncateObsolete(mid_lsn);
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  EXPECT_GT(*dropped, 0u);
  EXPECT_LT(WalFiles(dir).size(), before);

  // Frames after the truncation point still replay.
  ASSERT_TRUE((*wal)->AppendRecord(2, 0, Bytes{0x55}).ok());
  ASSERT_TRUE((*wal)->Commit().ok());
  size_t tail = 0;
  auto stats = durability::Wal::Replay(
      dir, mid_lsn, [&tail](const durability::Wal::Frame&) {
        ++tail;
        return Status::OK();
      });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(tail, 1u);
}

TEST(WalTest, FsyncPolicyDrivesFsyncCount) {
  std::string dir = FreshDir("wal_fsync_always");
  auto opts = TinyWalOptions(dir);
  opts.fsync_policy = durability::FsyncPolicy::kAlways;
  auto wal = durability::Wal::Open(opts);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*wal)->AppendRecord(1, 0, Bytes{0x66}).ok());
    ASSERT_TRUE((*wal)->Commit().ok());
  }
  durability::DurabilityMetrics m;
  (*wal)->FillMetrics(&m);
  EXPECT_GE(m.wal_fsyncs, 5u);

  std::string dir2 = FreshDir("wal_fsync_never");
  auto wal2 = durability::Wal::Open(TinyWalOptions(dir2));
  ASSERT_TRUE(wal2.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*wal2)->AppendRecord(1, 0, Bytes{0x66}).ok());
    ASSERT_TRUE((*wal2)->Commit().ok());
  }
  durability::DurabilityMetrics m2;
  (*wal2)->FillMetrics(&m2);
  EXPECT_EQ(m2.wal_fsyncs, 0u);
}

// --- SegmentStorage hardening + iteration --------------------------------

TEST(SegmentStorageTest, ForEachRecordVisitsAppendOrderWithoutCopy) {
  cloud::SegmentStorage storage(/*segment_capacity=*/64);
  std::vector<Bytes> truth;
  for (uint8_t i = 0; i < 50; ++i) {
    Bytes rec(1 + i % 7, i);
    truth.push_back(rec);
    storage.Append(rec);
  }
  ASSERT_GT(storage.num_segments(), 1u);  // forced rotation

  size_t i = 0;
  Status st = storage.ForEachRecord(
      [&](const cloud::PhysicalAddress& addr, const uint8_t* data,
          size_t size) -> Status {
        EXPECT_TRUE(storage.Contains(addr));
        EXPECT_EQ(Bytes(data, data + size), truth[i]);
        ++i;
        return Status::OK();
      });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(i, truth.size());

  // Early exit propagates.
  st = storage.ForEachRecord([](const cloud::PhysicalAddress&, const uint8_t*,
                                size_t) {
    return Status::Internal("stop");
  });
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("stop"), std::string::npos);
}

TEST(SegmentStorageTest, SerializeRoundTripPreservesDirectory) {
  cloud::SegmentStorage storage(128);
  for (uint8_t i = 0; i < 20; ++i) storage.Append(Bytes(10, i));
  Bytes blob = storage.Serialize();
  auto restored = cloud::SegmentStorage::Deserialize(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_records(), 20u);
  EXPECT_EQ(restored->total_bytes(), 200u);
  size_t i = 0;
  ASSERT_TRUE(restored
                  ->ForEachRecord([&](const cloud::PhysicalAddress&,
                                      const uint8_t* data, size_t size) {
                    EXPECT_EQ(size, 10u);
                    EXPECT_EQ(data[0], i);
                    ++i;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(i, 20u);
}

TEST(SegmentStorageTest, EveryTruncationOfSnapshotFailsCleanly) {
  cloud::SegmentStorage storage(64);
  for (uint8_t i = 0; i < 12; ++i) storage.Append(Bytes(9, i));
  Bytes blob = storage.Serialize();
  for (size_t len = 0; len < blob.size(); ++len) {
    Bytes cut(blob.begin(), blob.begin() + len);
    auto restored = cloud::SegmentStorage::Deserialize(cut);
    EXPECT_FALSE(restored.ok()) << "prefix of " << len << " bytes parsed";
  }
}

TEST(SegmentStorageTest, BitFlipsNeverCrashDeserialize) {
  cloud::SegmentStorage storage(64);
  for (uint8_t i = 0; i < 12; ++i) storage.Append(Bytes(9, i));
  Bytes blob = storage.Serialize();
  std::mt19937 rng(20260807);
  for (int trial = 0; trial < 500; ++trial) {
    Bytes mutated = blob;
    size_t pos = rng() % mutated.size();
    mutated[pos] ^= uint8_t(1u << (rng() % 8));
    auto restored = cloud::SegmentStorage::Deserialize(mutated);
    if (restored.ok()) {
      // A flip inside segment payload is undetectable here (the cloud
      // snapshot has no per-record checksum) — but structural invariants
      // must still hold.
      EXPECT_EQ(restored->num_records(), 12u);
      size_t n = 0;
      EXPECT_TRUE(restored
                      ->ForEachRecord([&n](const cloud::PhysicalAddress&,
                                           const uint8_t*, size_t) {
                        ++n;
                        return Status::OK();
                      })
                      .ok());
      EXPECT_EQ(n, 12u);
    }
  }
}

// --- Cloud snapshot hardening --------------------------------------------

/// An index publication payload over the 10-leaf domain [0, 10).
Bytes IndexPayload(const std::vector<int64_t>& counts) {
  auto layout = index::IndexLayout::Create(10, 4);
  auto idx = index::HistogramIndex::FromLeafCounts(
      std::move(layout).ValueOrDie(),
      index::DomainBinning::Create(0, 10, 1).ValueOrDie(), counts);
  return *SignedPayload(net::IndexPublication(
      std::move(idx).ValueOrDie(), index::OverflowArrays(10, 1)));
}

std::unique_ptr<cloud::CloudServer> SmallPublishedServer() {
  auto binning = index::DomainBinning::Create(0, 10, 1);
  auto server =
      std::make_unique<cloud::CloudServer>(std::move(binning).ValueOrDie());
  EXPECT_TRUE(server->StartPublication(0).ok());
  for (uint32_t i = 0; i < 30; ++i) {
    EXPECT_TRUE(server->IngestRecord(0, i % 10, Bytes(16, uint8_t(i))).ok());
  }
  auto payload =
      std::make_shared<const Bytes>(IndexPayload(std::vector<int64_t>(10, 3)));
  EXPECT_TRUE(server->PublishIndexed(0, std::move(payload)).ok());
  // Plus an open publication with cached metadata.
  EXPECT_TRUE(server->StartPublication(1).ok());
  for (uint32_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(server->IngestRecord(1, i, Bytes(8, 0xEE)).ok());
  }
  return server;
}

TEST(SnapshotHardeningTest, TruncationsAndBitFlipsFailCleanly) {
  auto server = SmallPublishedServer();
  std::string path = std::string(::testing::TempDir()) + "/harden_snap.bin";
  ASSERT_TRUE(server->SaveSnapshot(path).ok());
  Bytes blob = ReadAll(path);
  std::remove(path.c_str());
  ASSERT_GT(blob.size(), 100u);
  std::string tmp = std::string(::testing::TempDir()) + "/harden_mut.bin";

  // Truncations: never OK (the format is exhaustively length-checked).
  std::mt19937 rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    size_t len = rng() % blob.size();
    WriteAll(tmp, Bytes(blob.begin(), blob.begin() + len));
    auto restored = cloud::CloudServer::LoadSnapshot(tmp);
    EXPECT_FALSE(restored.ok()) << "prefix of " << len << " bytes parsed";
  }

  // Bit flips: must never crash; when parsing succeeds the state must be
  // internally consistent (addresses in bounds => queries can't fault).
  for (int trial = 0; trial < 200; ++trial) {
    Bytes mutated = blob;
    size_t pos = rng() % mutated.size();
    mutated[pos] ^= uint8_t(1u << (rng() % 8));
    WriteAll(tmp, mutated);
    auto restored = cloud::CloudServer::LoadSnapshot(tmp);
    if (restored.ok()) {
      index::RangeQuery q{0, 10};
      (void)(*restored)->ExecuteQuery(q);
      (void)(*restored)->total_records();
    }
  }
  std::remove(tmp.c_str());
}

TEST(LoadSnapshotsTest, MergesFilesThatHoldDisjointPublications) {
  auto server = SmallPublishedServer();  // pn 0 installed, pn 1 open
  const std::string installed = FreshDir("load_merge") + "/installed.bin";
  const std::string open = FreshDir("load_merge_open") + "/open.bin";
  ASSERT_TRUE(server
                  ->SaveSnapshot(installed,
                                 [](uint64_t, bool inst) { return inst; })
                  .ok());
  ASSERT_TRUE(
      server->SaveSnapshot(open, [](uint64_t, bool inst) { return !inst; })
          .ok());
  auto only_installed = cloud::CloudServer::LoadSnapshot(installed);
  ASSERT_TRUE(only_installed.ok()) << only_installed.status().ToString();
  EXPECT_EQ((*only_installed)->num_publications(), 1u);
  EXPECT_TRUE((*only_installed)->PublicationEvidence(0).ok());

  auto merged = cloud::CloudServer::LoadSnapshots({installed, open});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ((*merged)->num_publications(), server->num_publications());
  EXPECT_EQ((*merged)->total_records(), server->total_records());
  EXPECT_EQ((*merged)->total_bytes(), server->total_bytes());
  EXPECT_EQ((*merged)->view_epoch(), server->view_epoch());
}

TEST(LoadSnapshotsTest, RejectsAPublicationInTwoFiles) {
  auto server = SmallPublishedServer();
  const std::string dir = FreshDir("load_dup");
  ASSERT_TRUE(server->SaveSnapshot(dir + "/all.bin").ok());
  ASSERT_TRUE(server
                  ->SaveSnapshot(dir + "/installed.bin",
                                 [](uint64_t, bool inst) { return inst; })
                  .ok());
  auto loaded =
      cloud::CloudServer::LoadSnapshots({dir + "/all.bin", dir + "/installed.bin"});
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
}

TEST(LoadSnapshotsTest, RejectsFilesWithDifferentBinnings) {
  const std::string dir = FreshDir("load_binning");
  auto server = SmallPublishedServer();  // [0, 10), width 1
  ASSERT_TRUE(server
                  ->SaveSnapshot(dir + "/a.bin",
                                 [](uint64_t, bool inst) { return inst; })
                  .ok());
  cloud::CloudServer other(index::DomainBinning::Create(0, 10, 2).ValueOrDie());
  ASSERT_TRUE(other.StartPublication(7).ok());
  ASSERT_TRUE(other.SaveSnapshot(dir + "/b.bin").ok());
  auto loaded =
      cloud::CloudServer::LoadSnapshots({dir + "/a.bin", dir + "/b.bin"});
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
}

TEST(LoadSnapshotsTest, FailsOnAMissingFile) {
  const std::string dir = FreshDir("load_missing");
  auto server = SmallPublishedServer();
  ASSERT_TRUE(server->SaveSnapshot(dir + "/a.bin").ok());
  auto loaded =
      cloud::CloudServer::LoadSnapshots({dir + "/a.bin", dir + "/gone.bin"});
  EXPECT_FALSE(loaded.ok());
  EXPECT_FALSE(cloud::CloudServer::LoadSnapshots({}).ok());
}

// --- SnapshotManager -----------------------------------------------------

/// The `snapshot=` lines of `dir`/MANIFEST, in order, read from the file
/// itself so the tests pin the on-disk format.
std::vector<std::string> ManifestLines(const std::string& dir) {
  Bytes raw = ReadAll(dir + "/MANIFEST");
  std::istringstream in(std::string(raw.begin(), raw.end()));
  std::vector<std::string> files;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("snapshot=", 0) == 0) files.push_back(line.substr(9));
  }
  return files;
}

/// Files in `dir` whose names start with `prefix`.
size_t CountFiles(const std::string& dir, const std::string& prefix) {
  size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

ino_t Inode(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return st.st_ino;
}

TEST(SnapshotManagerTest, WritesManifestAtomicallyAndTruncatesWal) {
  std::string dir = FreshDir("snapmgr");
  auto wal = durability::Wal::Open(TinyWalOptions(dir, /*segment_bytes=*/256));
  ASSERT_TRUE(wal.ok());
  auto binning = index::DomainBinning::Create(0, 10, 1);
  cloud::CloudServer server(std::move(binning).ValueOrDie());
  durability::SnapshotOptions sopts;
  sopts.dir = dir;
  sopts.snapshot_every_installs = 2;
  durability::SnapshotManager manager(sopts, &server, wal->get());

  ASSERT_TRUE(server.StartPublication(0).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(server.IngestRecord(0, 0, Bytes(40, 0x12)).ok());
    ASSERT_TRUE((*wal)->AppendRecord(0, 0, Bytes(40, 0x12)).ok());
    ASSERT_TRUE((*wal)->Commit().ok());
  }
  size_t segments_before = WalFiles(dir).size();
  ASSERT_GT(segments_before, 1u);

  // Below the threshold: nothing happens.
  ASSERT_TRUE(manager.NoteInstall().ok());
  EXPECT_FALSE(fs::exists(dir + "/MANIFEST"));
  // Threshold reached: snapshot + manifest + truncation, on the writer.
  ASSERT_TRUE(manager.NoteInstall().ok());
  ASSERT_TRUE(manager.Drain().ok());
  ASSERT_TRUE(fs::exists(dir + "/MANIFEST"));

  auto manifest = durability::ReadManifest(dir);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest->wal_lsn, (*wal)->last_lsn());
  ASSERT_FALSE(manifest->snapshot_files.empty());
  std::vector<std::string> paths;
  for (const std::string& file : manifest->snapshot_files) {
    EXPECT_TRUE(fs::exists(dir + "/" + file)) << file;
    paths.push_back(dir + "/" + file);
  }
  EXPECT_LT(WalFiles(dir).size(), segments_before);

  // The named snapshot files load and hold the full state.
  auto restored = cloud::CloudServer::LoadSnapshots(paths);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->total_records(), 20u);

  // A second snapshot replaces the open file (old file garbage-collected):
  // exactly the files the new MANIFEST names remain.
  ASSERT_TRUE(server.IngestRecord(0, 0, Bytes(40, 0x13)).ok());
  ASSERT_TRUE((*wal)->AppendRecord(0, 0, Bytes(40, 0x13)).ok());
  ASSERT_TRUE(manager.WriteSnapshot().ok());
  auto manifest2 = durability::ReadManifest(dir);
  ASSERT_TRUE(manifest2.ok());
  EXPECT_NE(manifest2->snapshot_files, manifest->snapshot_files);
  for (const std::string& file : manifest->snapshot_files) {
    EXPECT_FALSE(fs::exists(dir + "/" + file)) << file;
  }
  EXPECT_EQ(CountFiles(dir, "sealed-") + CountFiles(dir, "open-"),
            manifest2->snapshot_files.size());

  durability::DurabilityMetrics m;
  manager.FillMetrics(&m);
  EXPECT_EQ(m.snapshots_written, 2u);
  EXPECT_EQ(m.snapshot_failures, 0u);
}

TEST(SnapshotManagerTest, RejectsEscapingManifestPath) {
  std::string dir = FreshDir("manifest_escape");
  ASSERT_TRUE(
      durability::WriteManifest(dir, {{"../../etc/passwd"}, 1}).ok());
  auto manifest = durability::ReadManifest(dir);
  EXPECT_TRUE(manifest.status().IsCorruption());
  // Every listed name is checked, not just the first.
  ASSERT_TRUE(durability::WriteManifest(
                  dir, {{"sealed-0000000001.bin", "../open.bin"}, 1})
                  .ok());
  EXPECT_TRUE(durability::ReadManifest(dir).status().IsCorruption());
}

TEST(SnapshotManagerTest, SnapshotOfAnEmptyStoreKeepsItsBinning) {
  // The snapshot truncates the WAL's meta frame away, so the MANIFEST must
  // name a file that carries the binning even with no publication to hold.
  std::string dir = FreshDir("snapmgr_empty");
  auto wal = durability::Wal::Open(TinyWalOptions(dir));
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->AppendMeta(0, 10, 1).ok());
  cloud::CloudServer server(index::DomainBinning::Create(0, 10, 1).ValueOrDie());
  durability::SnapshotOptions sopts;
  sopts.dir = dir;
  durability::SnapshotManager manager(sopts, &server, wal->get());
  ASSERT_TRUE(manager.WriteSnapshot().ok());
  ASSERT_EQ(ManifestLines(dir).size(), 1u);

  ASSERT_TRUE(server.StartPublication(0).ok());
  ASSERT_TRUE((*wal)->AppendStart(0).ok());
  ASSERT_TRUE(server.IngestRecord(0, 3, Bytes(8, 0x31)).ok());
  ASSERT_TRUE((*wal)->AppendRecord(0, 3, Bytes(8, 0x31)).ok());
  ASSERT_TRUE((*wal)->Commit().ok());
  auto recovered = durability::RecoveryManager::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->server->total_records(), 1u);
}

TEST(SnapshotManagerTest, SealsEachInstalledPublicationOnce) {
  std::string dir = FreshDir("snapmgr_seal");
  auto wal = durability::Wal::Open(TinyWalOptions(dir, /*segment_bytes=*/512));
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->AppendMeta(0, 10, 1).ok());
  cloud::CloudServer server(index::DomainBinning::Create(0, 10, 1).ValueOrDie());
  durability::SnapshotOptions sopts;
  sopts.dir = dir;
  sopts.snapshot_every_installs = 2;
  durability::SnapshotManager manager(sopts, &server, wal->get());

  // Both the server and the WAL see every mutation, as on the cloud node.
  constexpr uint32_t kRecords = 12;
  auto open = [&](uint64_t pn) {
    ASSERT_TRUE(server.StartPublication(pn).ok());
    ASSERT_TRUE((*wal)->AppendStart(pn).ok());
    for (uint32_t i = 0; i < kRecords; ++i) {
      const Bytes rec(16, static_cast<uint8_t>(pn * kRecords + i));
      ASSERT_TRUE(server.IngestRecord(pn, i % 10, rec).ok());
      ASSERT_TRUE((*wal)->AppendRecord(pn, i % 10, rec).ok());
    }
  };
  auto install = [&](uint64_t pn) {
    std::vector<int64_t> counts(10, 1);
    counts[0] = counts[1] = 2;
    Bytes payload = IndexPayload(counts);
    ASSERT_TRUE(
        server.PublishIndexed(pn, std::make_shared<const Bytes>(payload)).ok());
    ASSERT_TRUE((*wal)->AppendInstall(pn, payload).ok());
    ASSERT_TRUE((*wal)->Commit().ok());
    ASSERT_TRUE(manager.NoteInstall().ok());
    ASSERT_TRUE(manager.Drain().ok());  // the snapshot's files are written
  };

  // Publication pn opens, then pn - 1 installs; every second install
  // snapshots, with pn open. Three snapshots: {0,1}+2, {2,3}+4, {4,5}+6.
  std::vector<std::string> sealed;
  ino_t first_inode = 0;
  Bytes first_bytes;
  for (uint64_t pn = 0; pn <= 6; ++pn) {
    open(pn);
    if (pn > 0) install(pn - 1);
    if (HasFatalFailure()) return;
    if (pn == 0 || pn % 2 == 1) continue;

    // The MANIFEST lists the earlier sealed files unchanged and in order,
    // then this snapshot's sealed file, then its open file.
    const std::vector<std::string> files = ManifestLines(dir);
    ASSERT_EQ(files.size(), sealed.size() + 2) << "after installing " << pn - 1;
    for (size_t i = 0; i < sealed.size(); ++i) EXPECT_EQ(files[i], sealed[i]);
    const std::string fresh = files[sealed.size()];
    const std::string open_file = files.back();
    ASSERT_EQ(fresh.rfind("sealed-", 0), 0u) << fresh;
    ASSERT_EQ(open_file.rfind("open-", 0), 0u) << open_file;
    sealed.push_back(fresh);

    // The new sealed file holds exactly this snapshot's two installs...
    auto got = cloud::CloudServer::LoadSnapshot(dir + "/" + fresh);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ((*got)->num_publications(), 2u);
    EXPECT_TRUE((*got)->PublicationEvidence(pn - 2).ok());
    EXPECT_TRUE((*got)->PublicationEvidence(pn - 1).ok());
    // ...and the open file only the open publication.
    auto open_state = cloud::CloudServer::LoadSnapshot(dir + "/" + open_file);
    ASSERT_TRUE(open_state.ok()) << open_state.status().ToString();
    EXPECT_EQ((*open_state)->num_publications(), 1u);
    EXPECT_EQ((*open_state)->total_records(), kRecords);
    EXPECT_TRUE((*open_state)->PublicationEvidence(pn).status().IsNotFound());
    // Only the named files are left on disk.
    EXPECT_EQ(CountFiles(dir, "sealed-"), sealed.size());
    EXPECT_EQ(CountFiles(dir, "open-"), 1u);
    EXPECT_EQ(CountFiles(dir, "snapshot-"), 0u);

    if (sealed.size() == 1) {
      first_inode = Inode(dir + "/" + fresh);
      first_bytes = ReadAll(dir + "/" + fresh);
    }
  }
  ASSERT_EQ(sealed.size(), 3u);
  // The first sealed file was written once: same inode, same bytes.
  EXPECT_EQ(Inode(dir + "/" + sealed[0]), first_inode);
  EXPECT_EQ(ReadAll(dir + "/" + sealed[0]), first_bytes);

  auto recovered = durability::RecoveryManager::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->server->num_publications(), 7u);
  EXPECT_EQ(recovered->server->total_records(), server.total_records());
  EXPECT_EQ(recovered->server->total_bytes(), server.total_bytes());
  for (uint64_t pn = 0; pn < 6; ++pn) {
    EXPECT_EQ(*recovered->server->PublicationEvidence(pn),
              *server.PublicationEvidence(pn));
  }

  // Nothing logged since the last snapshot: nothing to write.
  const Bytes manifest_bytes = ReadAll(dir + "/MANIFEST");
  ASSERT_TRUE(manager.WriteSnapshot().ok());
  EXPECT_EQ(ReadAll(dir + "/MANIFEST"), manifest_bytes);

  // A new manager over the directory starts with nothing sealed. At the
  // same LSN its files would replace ones the MANIFEST names, so it fails
  // and changes nothing; once the log moves on, it seals every installed
  // publication into one file and the older files go.
  durability::SnapshotManager reused(sopts, &server, wal->get());
  EXPECT_TRUE(reused.WriteSnapshot().IsFailedPrecondition());
  EXPECT_EQ(ReadAll(dir + "/MANIFEST"), manifest_bytes);
  ASSERT_TRUE(server.IngestRecord(6, 0, Bytes(16, 0x77)).ok());
  ASSERT_TRUE((*wal)->AppendRecord(6, 0, Bytes(16, 0x77)).ok());
  ASSERT_TRUE(reused.WriteSnapshot().ok());
  EXPECT_EQ(ManifestLines(dir).size(), 2u);
  EXPECT_EQ(CountFiles(dir, "sealed-"), 1u);
  EXPECT_EQ(CountFiles(dir, "open-"), 1u);
  auto again = durability::RecoveryManager::Recover(dir);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->server->total_bytes(), server.total_bytes());
}

/// A cloud store and its WAL, changed the way the cloud node changes
/// them: apply, then log. Records are deterministic in (pn, i).
struct LoggedStore {
  explicit LoggedStore(const std::string& dir) {
    durability::WalOptions o = TinyWalOptions(dir, /*segment_bytes=*/512);
    auto opened = durability::Wal::Open(o);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    wal = std::move(opened).ValueOrDie();
    EXPECT_TRUE(wal->AppendMeta(0, 10, 1).ok());
  }

  void Open(uint64_t pn) {
    ASSERT_TRUE(server.StartPublication(pn).ok());
    ASSERT_TRUE(wal->AppendStart(pn).ok());
    Ingest(pn, 12);
  }

  void Ingest(uint64_t pn, uint32_t n) {
    for (uint32_t i = 0; i < n; ++i, ++ingested) {
      const Bytes rec(16, static_cast<uint8_t>(pn * 31 + ingested));
      ASSERT_TRUE(server.IngestRecord(pn, ingested % 10, rec).ok());
      ASSERT_TRUE(wal->AppendRecord(pn, ingested % 10, rec).ok());
    }
  }

  void Install(uint64_t pn) {
    Bytes payload = IndexPayload(std::vector<int64_t>(10, 2));
    ASSERT_TRUE(
        server.PublishIndexed(pn, std::make_shared<const Bytes>(payload)).ok());
    ASSERT_TRUE(wal->AppendInstall(pn, payload).ok());
    ASSERT_TRUE(wal->Commit().ok());
  }

  cloud::CloudServer server{index::DomainBinning::Create(0, 10, 1).ValueOrDie()};
  std::unique_ptr<durability::Wal> wal;
  uint32_t ingested = 0;
};

/// The pns a snapshot file holds.
std::vector<uint64_t> FilePns(const std::string& path) {
  auto loaded = cloud::CloudServer::LoadSnapshot(path);
  EXPECT_TRUE(loaded.ok()) << path << ": " << loaded.status().ToString();
  std::vector<uint64_t> pns;
  if (!loaded.ok()) return pns;
  for (uint64_t pn = 0; pn < 16; ++pn) {
    if ((*loaded)->ForEachStoredRecord(pn, [](const cloud::PhysicalAddress&,
                                              const uint8_t*, size_t) {
          return Status::OK();
        }).ok()) {
      pns.push_back(pn);
    }
  }
  return pns;
}

uint64_t SnapshotsWritten(const durability::SnapshotManager& m) {
  durability::DurabilityMetrics metrics;
  m.FillMetrics(&metrics);
  return metrics.snapshots_written;
}

void ExpectRecoversStore(const std::string& dir,
                         const cloud::CloudServer& server) {
  auto recovered = durability::RecoveryManager::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->server->num_publications(), server.num_publications());
  EXPECT_EQ(recovered->server->total_records(), server.total_records());
  EXPECT_EQ(recovered->server->total_bytes(), server.total_bytes());
}

TEST(SnapshotManagerTest, CadenceDueDuringAWriteIsTakenAtTheNextInstall) {
  const std::string dir = FreshDir("snapmgr_deferred");
  LoggedStore store(dir);
  GateClock gate;
  durability::SnapshotOptions sopts;
  sopts.dir = dir;
  sopts.snapshot_every_installs = 2;
  sopts.clock = &gate;
  durability::SnapshotManager manager(sopts, &store.server, store.wal.get());

  store.Open(0);
  store.Open(1);
  store.Install(0);
  ASSERT_TRUE(manager.NoteInstall().ok());
  store.Open(2);
  store.Install(1);
  gate.Close();
  ASSERT_TRUE(manager.NoteInstall().ok());  // cut {0,1} + open 2
  gate.AwaitHeld();                          // ...held before its first file

  // Two more installs while the write is in flight: the cadence comes
  // due, but no second cut is taken.
  store.Open(3);
  store.Install(2);
  ASSERT_TRUE(manager.NoteInstall().ok());
  store.Open(4);
  store.Install(3);
  ASSERT_TRUE(manager.NoteInstall().ok());
  store.Ingest(4, 7);
  ASSERT_TRUE(store.wal->Commit().ok());
  EXPECT_FALSE(fs::exists(dir + "/MANIFEST"));
  EXPECT_EQ(SnapshotsWritten(manager), 0u);

  gate.Open();
  ASSERT_TRUE(manager.Drain().ok());
  EXPECT_EQ(SnapshotsWritten(manager), 1u);
  std::vector<std::string> files = ManifestLines(dir);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(FilePns(dir + "/" + files[0]), (std::vector<uint64_t>{0, 1}));
  EXPECT_EQ(FilePns(dir + "/" + files[1]), (std::vector<uint64_t>{2}));

  // The first install after the write takes the deferred cut, and it
  // seals every publication installed since the first cut.
  store.Open(5);
  store.Install(4);
  ASSERT_TRUE(manager.NoteInstall().ok());
  ASSERT_TRUE(manager.Drain().ok());
  EXPECT_EQ(SnapshotsWritten(manager), 2u);
  files = ManifestLines(dir);
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(FilePns(dir + "/" + files[1]), (std::vector<uint64_t>{2, 3, 4}));
  EXPECT_EQ(FilePns(dir + "/" + files[2]), (std::vector<uint64_t>{5}));
  ExpectRecoversStore(dir, store.server);
}

TEST(SnapshotManagerTest, WriteSnapshotWaitsForTheWriterAndWritesTheSameFiles) {
  // The same store, snapshotted in the background in `a` and inline in
  // `b`, leaves the same snapshot files and MANIFEST.
  const std::string a = FreshDir("snapmgr_wait_a");
  const std::string b = FreshDir("snapmgr_wait_b");
  LoggedStore store_a(a);
  LoggedStore store_b(b);
  GateClock gate;
  durability::SnapshotOptions opts_a;
  opts_a.dir = a;
  opts_a.snapshot_every_installs = 1;
  opts_a.clock = &gate;
  durability::SnapshotManager background(opts_a, &store_a.server,
                                         store_a.wal.get());
  durability::SnapshotOptions opts_b;
  opts_b.dir = b;
  opts_b.snapshot_every_installs = 0;
  durability::SnapshotManager inline_writer(opts_b, &store_b.server,
                                            store_b.wal.get());

  for (LoggedStore* s : {&store_a, &store_b}) {
    s->Open(0);
    s->Open(1);
    s->Install(0);
  }
  gate.Close();
  ASSERT_TRUE(background.NoteInstall().ok());
  gate.AwaitHeld();
  ASSERT_TRUE(inline_writer.WriteSnapshot().ok());
  for (LoggedStore* s : {&store_a, &store_b}) s->Ingest(1, 9);

  auto done = std::async(std::launch::async,
                         [&background] { return background.WriteSnapshot(); });
  EXPECT_EQ(done.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout)
      << "WriteSnapshot() did not wait for the write in flight";
  gate.Open();
  ASSERT_TRUE(done.get().ok());
  ASSERT_TRUE(inline_writer.WriteSnapshot().ok());
  EXPECT_EQ(SnapshotsWritten(background), 2u);

  auto snapshot_files = [](const std::string& dir) {
    std::map<std::string, Bytes> files;
    for (const auto& entry : fs::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("wal-", 0) != 0) files[name] = ReadAll(entry.path());
    }
    return files;
  };
  const auto files_a = snapshot_files(a);
  ASSERT_EQ(files_a.size(), 3u);  // MANIFEST, one sealed, one open file
  EXPECT_EQ(files_a, snapshot_files(b));
  ExpectRecoversStore(a, store_a.server);
}

TEST(SnapshotManagerTest, FailedBackgroundWriteIsReportedByTheNextInstall) {
  const std::string dir = FreshDir("snapmgr_failed");
  LoggedStore store(dir);
  durability::SnapshotOptions sopts;
  sopts.dir = dir;
  sopts.snapshot_every_installs = 1;
  durability::SnapshotManager manager(sopts, &store.server, store.wal.get());
  store.Open(0);
  store.Open(1);
  store.Install(0);
  ASSERT_TRUE(manager.NoteInstall().ok());
  ASSERT_TRUE(manager.Drain().ok());
  const Bytes manifest = ReadAll(dir + "/MANIFEST");

  // A file of the cut's LSN already exists: the write fails, as a reused
  // directory's first snapshot does.
  store.Open(2);
  store.Install(1);
  ASSERT_TRUE(store.wal->Flush().ok());
  char name[48];
  std::snprintf(name, sizeof(name), "sealed-%010llu.bin",
                static_cast<unsigned long long>(store.wal->last_lsn()));
  const std::string planted = dir + "/" + name;
  WriteAll(planted, Bytes(8, 0xAA));
  ASSERT_TRUE(manager.NoteInstall().ok());
  durability::DurabilityMetrics m;
  for (int i = 0; i < 1000 && m.snapshot_failures == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    manager.FillMetrics(&m);
  }
  ASSERT_EQ(m.snapshot_failures, 1u);
  EXPECT_EQ(m.snapshots_written, 1u);
  EXPECT_EQ(ReadAll(dir + "/MANIFEST"), manifest);

  // The next install reports it, once, and its own cut seals publication 1
  // again: the failed write marked nothing sealed.
  fs::remove(planted);
  EXPECT_TRUE(manager.NoteInstall().IsFailedPrecondition());
  ASSERT_TRUE(manager.Drain().ok());
  ASSERT_TRUE(manager.NoteInstall().ok());
  ASSERT_TRUE(manager.Drain().ok());
  manager.FillMetrics(&m);
  EXPECT_EQ(m.snapshot_failures, 1u);
  EXPECT_EQ(m.snapshots_written, 3u);
  const std::vector<std::string> files = ManifestLines(dir);
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[1], name);
  EXPECT_EQ(FilePns(dir + "/" + files[1]), (std::vector<uint64_t>{1}));
  ExpectRecoversStore(dir, store.server);
}

TEST(SnapshotManagerTest, DestroyingTheManagerFinishesTheWriteInFlight) {
  const std::string dir = FreshDir("snapmgr_destroy");
  LoggedStore store(dir);
  GateClock gate;
  durability::SnapshotOptions sopts;
  sopts.dir = dir;
  sopts.snapshot_every_installs = 1;
  sopts.clock = &gate;
  auto manager = std::make_unique<durability::SnapshotManager>(
      sopts, &store.server, store.wal.get());
  store.Open(0);
  store.Open(1);
  store.Install(0);
  gate.Close();
  ASSERT_TRUE(manager->NoteInstall().ok());
  gate.AwaitHeld();
  std::thread destroy([&manager] { manager.reset(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Open();
  destroy.join();
  EXPECT_EQ(ManifestLines(dir).size(), 2u);
  ExpectRecoversStore(dir, store.server);
}

TEST(SnapshotManagerTest, CloudNodeShutdownWaitsForTheWriteInFlight) {
  const std::string dir = FreshDir("snapmgr_node_shutdown");
  cloud::CloudServer server(index::DomainBinning::Create(0, 10, 1).ValueOrDie());
  auto wal = durability::Wal::Open(TinyWalOptions(dir, /*segment_bytes=*/512));
  ASSERT_TRUE(wal.ok());
  GateClock gate;
  durability::SnapshotOptions sopts;
  sopts.dir = dir;
  sopts.snapshot_every_installs = 1;
  sopts.clock = &gate;
  durability::SnapshotManager manager(sopts, &server, wal->get());
  engine::CloudNode node(&server);
  ASSERT_TRUE(node.AttachDurability(wal->get(), &manager).ok());
  auto publications = std::make_shared<engine::PublicationTracker>();
  node.ReportPublicationsTo(publications);
  node.Start();

  auto push = [&node](net::MessageType type, uint64_t pn, uint64_t leaf,
                      Bytes payload) {
    net::Message m;
    m.type = type;
    m.pn = pn;
    m.leaf = leaf;
    m.payload = std::move(payload);
    node.inbox()->Push(std::move(m));
  };
  push(net::MessageType::kPublicationStart, 0, 0, {});
  for (uint32_t i = 0; i < 20; ++i) {
    push(net::MessageType::kCloudRecord, 0, i % 10, Bytes(12, uint8_t(i)));
  }
  push(net::MessageType::kPublicationStart, 1, 0, {});
  gate.Close();
  push(net::MessageType::kIndexPublication, 0, 0,
       IndexPayload(std::vector<int64_t>(10, 2)));
  Status installed = publications->Wait(0, std::chrono::seconds(30));
  ASSERT_TRUE(installed.ok()) << installed.ToString();
  gate.AwaitHeld();  // the install's snapshot is in flight
  // The node keeps storing records meanwhile.
  for (uint32_t i = 0; i < 10; ++i) {
    push(net::MessageType::kCloudRecord, 1, i % 10, Bytes(9, uint8_t(i)));
  }
  push(net::MessageType::kShutdown, 0, 0, {});

  auto stopped = std::async(std::launch::async, [&node] { node.Shutdown(); });
  EXPECT_EQ(stopped.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout)
      << "Shutdown() returned with the snapshot write in flight";
  gate.Open();
  stopped.get();
  ASSERT_TRUE(node.first_error().ok()) << node.first_error().ToString();
  EXPECT_EQ(server.total_records(), 30u);
  EXPECT_EQ(ManifestLines(dir).size(), 2u);
  ExpectRecoversStore(dir, server);
}

// --- Recovery ------------------------------------------------------------

TEST(RecoveryTest, LogOnlyRecoveryRebuildsServer) {
  std::string dir = FreshDir("recover_logonly");
  auto binning = index::DomainBinning::Create(0, 10, 1);
  cloud::CloudServer server(std::move(binning).ValueOrDie());
  engine::CloudNode node(&server);
  auto wal = durability::Wal::Open(TinyWalOptions(dir));
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(node.AttachDurability(wal->get()).ok());
  node.Start();

  auto push = [&node](net::MessageType type, uint64_t pn, uint64_t leaf,
                      Bytes payload) {
    net::Message m;
    m.type = type;
    m.pn = pn;
    m.leaf = leaf;
    m.payload = std::move(payload);
    node.inbox()->Push(std::move(m));
  };
  push(net::MessageType::kPublicationStart, 0, 0, {});
  for (uint32_t i = 0; i < 25; ++i) {
    push(net::MessageType::kCloudRecord, 0, i % 10, Bytes(12, uint8_t(i)));
  }
  auto layout = index::IndexLayout::Create(10, 4);
  std::vector<int64_t> counts(10, 0);
  for (uint32_t i = 0; i < 25; ++i) counts[i % 10] += 1;
  auto idx = index::HistogramIndex::FromLeafCounts(
      std::move(layout).ValueOrDie(),
      index::DomainBinning::Create(0, 10, 1).ValueOrDie(), counts);
  push(net::MessageType::kIndexPublication, 0, 0,
       *SignedPayload(net::IndexPublication(std::move(idx).ValueOrDie(),
                                            index::OverflowArrays(10, 1))));
  // An open publication rides along in the log tail.
  push(net::MessageType::kPublicationStart, 1, 0, {});
  push(net::MessageType::kCloudRecord, 1, 3, Bytes(7, 0x99));
  push(net::MessageType::kShutdown, 0, 0, {});
  node.Shutdown();
  ASSERT_TRUE(node.first_error().ok()) << node.first_error().ToString();

  auto recovered = durability::RecoveryManager::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered->stats.snapshot_loaded);
  EXPECT_EQ(recovered->server->num_publications(), 2u);
  EXPECT_EQ(recovered->server->total_records(), server.total_records());
  EXPECT_EQ(recovered->server->total_bytes(), server.total_bytes());
  EXPECT_EQ(recovered->stats.records_replayed, 26u);
  EXPECT_EQ(recovered->stats.installs_replayed, 1u);

  // Byte-identical storage for the published publication.
  std::vector<Bytes> original, replayed;
  ASSERT_TRUE(server
                  .ForEachStoredRecord(
                      0,
                      [&](const cloud::PhysicalAddress&, const uint8_t* d,
                          size_t n) {
                        original.emplace_back(d, d + n);
                        return Status::OK();
                      })
                  .ok());
  ASSERT_TRUE(recovered->server
                  ->ForEachStoredRecord(
                      0,
                      [&](const cloud::PhysicalAddress&, const uint8_t* d,
                          size_t n) {
                        replayed.emplace_back(d, d + n);
                        return Status::OK();
                      })
                  .ok());
  EXPECT_EQ(original, replayed);

  // Evidence (verbatim publication payload) survives replay.
  auto ev_before = server.PublicationEvidence(0);
  auto ev_after = recovered->server->PublicationEvidence(0);
  ASSERT_TRUE(ev_before.ok() && ev_after.ok());
  EXPECT_EQ(*ev_before, *ev_after);
}

// The WAL logs only <leaf, e-record> streams, so a durable node refuses a
// PINED-RQ++ stream rather than store what it could not log.
TEST(RecoveryTest, DurableNodeRejectsTaggedStreams) {
  std::string dir = FreshDir("recover_tagged_refused");
  auto binning = index::DomainBinning::Create(0, 10, 1);
  cloud::CloudServer server(std::move(binning).ValueOrDie());
  engine::CloudNode node(&server);
  auto wal = durability::Wal::Open(TinyWalOptions(dir));
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(node.AttachDurability(wal->get()).ok());
  auto publications = std::make_shared<engine::PublicationTracker>();
  node.ReportPublicationsTo(publications);
  node.Start();
  auto counter = [](const char* name) {
    return telemetry::Registry::Global()->GetCounter(name)->Value();
  };
  const uint64_t rejected_before = counter("cloud.records_rejected");
  const uint64_t failed_before = counter("cloud.publications_failed");

  auto push = [&node](net::MessageType type, uint64_t pn, uint64_t leaf,
                      Bytes payload) {
    net::Message m;
    m.type = type;
    m.pn = pn;
    m.leaf = leaf;
    m.payload = std::move(payload);
    node.inbox()->Push(std::move(m));
  };
  push(net::MessageType::kPublicationStart, 0, 0, {});
  push(net::MessageType::kCloudTaggedRecord, 0, 777, Bytes{0xBB, 0xBB});
  index::MatchingTable table;
  ASSERT_TRUE(table.Add(777, 2).ok());
  push(net::MessageType::kMatchingTable, 0, 0,
       net::EncodeMatchingTable(table));
  std::vector<int64_t> counts(10, 0);
  counts[2] = 1;
  push(net::MessageType::kIndexPublication, 0, 0, IndexPayload(counts));
  push(net::MessageType::kShutdown, 0, 0, {});
  node.Shutdown();

  EXPECT_TRUE(node.first_error().IsFailedPrecondition())
      << node.first_error().ToString();
  // Nothing stored, nothing installed.
  EXPECT_EQ(server.total_records(), 0u);
  EXPECT_TRUE(node.matching_stats().empty());
  EXPECT_FALSE(server.PublicationEvidence(0).ok());
  // Publication 0 ended once, as failed.
  Status outcome = publications->Wait(0, std::chrono::milliseconds(0));
  EXPECT_TRUE(outcome.IsFailedPrecondition()) << outcome.ToString();
  EXPECT_EQ(publications->completed_failed(), 1u);
  EXPECT_EQ(publications->completed_ok(), 0u);
  EXPECT_EQ(counter("cloud.records_rejected"), rejected_before + 1);
  EXPECT_EQ(counter("cloud.publications_failed"), failed_before + 1);

  auto recovered = durability::RecoveryManager::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->stats.records_replayed, 0u);
  EXPECT_EQ(recovered->stats.installs_replayed, 0u);
  EXPECT_EQ(recovered->server->total_records(), 0u);
}

TEST(RecoveryTest, SnapshotPlusWalTailRecoversEverything) {
  std::string dir = FreshDir("recover_snap_tail");
  auto binning = index::DomainBinning::Create(0, 10, 1);
  cloud::CloudServer server(std::move(binning).ValueOrDie());
  auto wal = durability::Wal::Open(TinyWalOptions(dir));
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->AppendMeta(0, 10, 1).ok());

  // Phase 1: one publication, snapshotted.
  ASSERT_TRUE(server.StartPublication(0).ok());
  ASSERT_TRUE((*wal)->AppendStart(0).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(server.IngestRecord(0, 1, Bytes(6, 0x10)).ok());
    ASSERT_TRUE((*wal)->AppendRecord(0, 1, Bytes(6, 0x10)).ok());
  }
  durability::SnapshotOptions sopts;
  sopts.dir = dir;
  durability::SnapshotManager manager(sopts, &server, wal->get());
  ASSERT_TRUE(manager.WriteSnapshot().ok());

  // Phase 2: more records after the snapshot, in the WAL only.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server.IngestRecord(0, 2, Bytes(6, 0x20)).ok());
    ASSERT_TRUE((*wal)->AppendRecord(0, 2, Bytes(6, 0x20)).ok());
  }
  ASSERT_TRUE((*wal)->Commit().ok());

  auto recovered = durability::RecoveryManager::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->stats.snapshot_loaded);
  EXPECT_EQ(recovered->stats.records_replayed, 5u);
  EXPECT_EQ(recovered->server->total_records(), 15u);
}

// The layout before incremental snapshots, an FQMANIFEST1 naming one
// whole-store snapshot, is not read.
TEST(RecoveryTest, RefusesAVersion1Manifest) {
  std::string dir = FreshDir("recover_manifest_v1");
  const std::string v1 =
      "FQMANIFEST1\nsnapshot=snapshot-0000000003.bin\nwal_lsn=3\n";
  WriteAll(dir + "/MANIFEST", Bytes(v1.begin(), v1.end()));
  EXPECT_TRUE(durability::ReadManifest(dir).status().IsCorruption());
}

TEST(RecoveryTest, EmptyDirIsNotFound) {
  std::string dir = FreshDir("recover_empty");
  auto recovered = durability::RecoveryManager::Recover(dir);
  EXPECT_TRUE(recovered.status().IsNotFound())
      << recovered.status().ToString();
}

// --- Full-pipeline recovery equivalence ----------------------------------

TEST(RecoveryTest, CollectorPipelineStateSurvivesRecovery) {
  std::string dir = FreshDir("recover_pipeline");
  auto spec = record::GowallaDataset();
  ASSERT_TRUE(spec.ok());
  auto binning = index::DomainBinning::Create(
      spec->domain_min, spec->domain_max, spec->bin_width);
  cloud::CloudServer server(std::move(binning).ValueOrDie());
  engine::CloudNode cloud_node(&server);

  durability::WalOptions wopts;
  wopts.dir = dir;
  wopts.fsync_policy = durability::FsyncPolicy::kNever;
  auto wal = durability::Wal::Open(std::move(wopts));
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(cloud_node.AttachDurability(wal->get()).ok());

  crypto::KeyManager keys(Bytes(32, 0x70));
  engine::CollectorConfig cfg;
  cfg.dataset = *spec;
  cfg.num_computing_nodes = 2;
  cfg.seed = 31;
  engine::FresqueCollector collector(cfg, keys, cloud_node.inbox());
  cloud_node.ReportPublicationsTo(collector.publications());
  cloud_node.Start();
  ASSERT_TRUE(collector.Start().ok());
  auto gen = record::MakeGenerator(*spec, 8);
  for (int i = 0; i < 800; ++i) {
    ASSERT_TRUE(collector.Ingest((*gen)->NextLine()).ok());
  }
  ASSERT_TRUE(collector.Publish().ok());
  for (int i = 0; i < 120; ++i) {  // open interval rides in the WAL tail
    ASSERT_TRUE(collector.Ingest((*gen)->NextLine()).ok());
  }
  ASSERT_TRUE(collector.Shutdown().ok());
  ASSERT_TRUE(collector.WaitForPublication(0).ok());
  ASSERT_TRUE(collector.WaitForPublication(1).ok());
  cloud_node.Shutdown();
  ASSERT_TRUE(cloud_node.first_error().ok())
      << cloud_node.first_error().ToString();

  auto recovered = durability::RecoveryManager::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->server->num_publications(),
            server.num_publications());
  EXPECT_EQ(recovered->server->total_records(), server.total_records());
  EXPECT_EQ(recovered->server->total_bytes(), server.total_bytes());

  // The recovered cloud answers queries identically (same records, since
  // all state — index, overflow, postings — replays deterministically).
  client::Client client(keys, &spec->parser->schema());
  index::RangeQuery q{spec->domain_min, spec->domain_max};
  auto before = client.Query(server, q);
  auto after = client.Query(*recovered->server, q);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(before->size(), after->size());
  EXPECT_GT(after->size(), 0u);
  // And its integrity evidence still verifies.
  EXPECT_TRUE(client.VerifyPublication(*recovered->server, 0).ok());
  EXPECT_TRUE(client.VerifyPublication(*recovered->server, 1).ok());
}

}  // namespace
}  // namespace fresque
