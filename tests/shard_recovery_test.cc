// Shard drain/restart recovery (DESIGN.md §17): a sharded pipeline
// running with per-shard durability directories must come back from
// RecoverShardedCloud with byte-identical query results — WAL replay is
// deterministic, so the recovered ciphertext set equals the live one
// exactly, per shard and merged.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "client/client.h"
#include "crypto/key_manager.h"
#include "record/dataset.h"
#include "shard/pipeline.h"
#include "shard/sharded_cloud.h"

namespace fresque {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// All ciphertexts of a result in a canonical order, pn-tagged. Every
/// e_record is unique (fresh CBC IV per record), so sorted vectors
/// compare as multisets.
std::vector<std::pair<uint64_t, Bytes>> Canonical(
    const query::QueryResult& r) {
  std::vector<std::pair<uint64_t, Bytes>> out;
  for (const auto* v :
       {&r.indexed_records, &r.overflow_records, &r.unindexed_records}) {
    for (const auto& rec : *v) out.emplace_back(rec.pn, rec.e_record);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ShardRecoveryTest, DrainRestartRecoversByteIdenticalState) {
  auto spec_or = record::GowallaDataset();
  ASSERT_TRUE(spec_or.ok());
  const auto spec = std::move(spec_or).ValueOrDie();
  const std::string dir = FreshDir("shard_recovery_live");

  shard::ShardedPipelineConfig cfg;
  cfg.collector.dataset = spec;
  cfg.collector.num_computing_nodes = 2;
  cfg.collector.seed = 17;
  cfg.shard.num_shards = 3;
  cfg.durability.data_dir = dir;
  crypto::KeyManager keys(Bytes(32, 0x42));

  constexpr size_t kLines = 1800;
  std::vector<size_t> live_shard_records;
  size_t live_pubs = 0;
  std::vector<std::pair<uint64_t, Bytes>> live_merged;
  const index::RangeQuery all{spec.domain_min, spec.domain_max};
  {
    shard::ShardedPipeline pipe(cfg, keys);
    ASSERT_TRUE(pipe.Start().ok());
    auto gen = record::MakeGenerator(spec, 808);
    ASSERT_TRUE(gen.ok());
    for (size_t i = 0; i < kLines; ++i) {
      ASSERT_TRUE(pipe.Ingest((*gen)->NextLine()).ok());
      if (i + 1 == kLines / 2) {
      ASSERT_TRUE(pipe.Publish().ok());
    }
    }
    ASSERT_TRUE(pipe.Shutdown().ok()) << pipe.first_error().ToString();

    live_pubs = pipe.cloud()->num_publications();
    EXPECT_EQ(live_pubs, 2u);
    for (size_t s = 0; s < 3; ++s) {
      live_shard_records.push_back(pipe.cloud()->shard(s)->total_records());
      // Per-shard durability directories exist and are named by contract.
      EXPECT_TRUE(fs::exists(shard::ShardDataDir(dir, s))) << s;
    }
    auto res = pipe.cloud()->ExecuteQuery(all);
    ASSERT_TRUE(res.ok());
    live_merged = Canonical(*res);
  }

  auto rec = shard::RecoverShardedCloud(dir, spec, cfg.shard);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ASSERT_EQ(rec->shards.size(), 3u);
  for (const auto& s : rec->shards) {
    EXPECT_TRUE(s.recovered) << "shard " << s.shard;
    EXPECT_GT(s.stats.records_replayed + (s.stats.snapshot_loaded ? 1 : 0), 0u)
        << "shard " << s.shard << " recovered no state";
  }
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(rec->cloud->shard(s)->total_records(), live_shard_records[s])
        << "shard " << s;
  }
  EXPECT_EQ(rec->cloud->num_publications(), live_pubs);

  // Byte-identical merged query: WAL replay restores the exact ciphertext
  // stream, so the fanned-out result must match the live one as a
  // multiset of (pn, e_record) pairs.
  shard::FanoutStats stats;
  auto res = rec->cloud->ExecuteQuery(all, &stats);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(stats.probed.size(), 3u);
  EXPECT_EQ(stats.TotalRecords(), res->TotalRecords());
  EXPECT_EQ(Canonical(*res), live_merged);

  // And the client's keys still decrypt the recovered result.
  client::Client client(keys, &spec.parser->schema());
  auto recs = client.Decrypt(*res, all);
  ASSERT_TRUE(recs.ok());
  EXPECT_GE(recs->size(), kLines * 7 / 10);
  EXPECT_LE(recs->size(), kLines);
}

TEST(ShardRecoveryTest, FreshDirectoryRecoversEmptyUsableShards) {
  auto spec_or = record::GowallaDataset();
  ASSERT_TRUE(spec_or.ok());
  const auto spec = std::move(spec_or).ValueOrDie();
  const std::string dir = FreshDir("shard_recovery_empty");

  shard::ShardOptions opts;
  opts.num_shards = 4;
  auto rec = shard::RecoverShardedCloud(dir, spec, opts);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ASSERT_EQ(rec->shards.size(), 4u);
  for (const auto& s : rec->shards) {
    EXPECT_FALSE(s.recovered) << "shard " << s.shard;
  }
  EXPECT_EQ(rec->cloud->total_records(), 0u);
  EXPECT_EQ(rec->cloud->num_publications(), 0u);

  // The empty recovered facade still serves (empty) fan-out queries.
  shard::FanoutStats stats;
  auto res = rec->cloud->ExecuteQuery({spec.domain_min, spec.domain_max},
                                      &stats);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->TotalRecords(), 0u);
  EXPECT_EQ(stats.probed.size(), 4u);
}

TEST(ShardRecoveryTest, UnshardedTopLevelLayoutIsRefusedNotRecoveredEmpty) {
  // A pre-shard data dir keeps MANIFEST / wal-* at the top level. Reading
  // it as shards would find no shard-<i> dirs and return empty stores.
  auto spec_or = record::GowallaDataset();
  ASSERT_TRUE(spec_or.ok());
  const auto spec = std::move(spec_or).ValueOrDie();
  shard::ShardOptions opts;
  for (const char* legacy : {"MANIFEST", "wal-0000000001.log"}) {
    const std::string dir = FreshDir("shard_recovery_legacy");
    { std::ofstream(dir + "/" + legacy) << "x"; }
    auto rec = shard::RecoverShardedCloud(dir, spec, opts);
    ASSERT_FALSE(rec.ok()) << legacy;
    EXPECT_EQ(rec.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(rec.status().message().find("shard-0/"), std::string::npos)
        << rec.status().ToString();
  }
}

TEST(ShardRecoveryTest, PartialShardStateRecoversMixed) {
  // Only some shards ever see records (a narrow key range): the ones that
  // ingested recover their state, the idle ones come back empty but
  // usable — restart must not require uniform activity.
  auto spec_or = record::GowallaDataset();
  ASSERT_TRUE(spec_or.ok());
  const auto spec = std::move(spec_or).ValueOrDie();
  const std::string dir = FreshDir("shard_recovery_partial");

  shard::ShardedPipelineConfig cfg;
  cfg.collector.dataset = spec;
  cfg.collector.num_computing_nodes = 2;
  cfg.shard.num_shards = 3;
  cfg.durability.data_dir = dir;
  crypto::KeyManager keys(Bytes(32, 0x42));

  std::vector<size_t> live(3, 0);
  uint64_t routed_to_0 = 0;
  {
    shard::ShardedPipeline pipe(cfg, keys);
    ASSERT_TRUE(pipe.Start().ok());
    // Craft lines that all land in shard 0's slice: take generated lines
    // and keep only those the placement maps to shard 0.
    auto gen = record::MakeGenerator(spec, 909);
    ASSERT_TRUE(gen.ok());
    size_t kept = 0;
    while (kept < 300) {
      const std::string line = (*gen)->NextLine();
      auto v = spec.parser->IndexedValue(line);
      ASSERT_TRUE(v.ok());
      if (pipe.placement().ShardOf(*v) != 0) continue;
      ASSERT_TRUE(pipe.Ingest(line).ok());
      ++kept;
    }
    ASSERT_TRUE(pipe.Shutdown().ok()) << pipe.first_error().ToString();
    auto m = pipe.Metrics();
    routed_to_0 = m.router.per_shard[0];
    EXPECT_EQ(routed_to_0, 300u);
    EXPECT_EQ(m.router.per_shard[1], 0u);
    EXPECT_EQ(m.router.per_shard[2], 0u);
    for (size_t s = 0; s < 3; ++s) {
      live[s] = pipe.cloud()->shard(s)->total_records();
    }
    // Idle shards stored no real records (dummies from empty-interval
    // publications may exist; real mass is all in shard 0).
    EXPECT_GE(live[0], 300u * 7 / 10);
  }

  auto rec = shard::RecoverShardedCloud(dir, spec, cfg.shard);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(rec->shards[0].recovered);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(rec->cloud->shard(s)->total_records(), live[s]) << "shard " << s;
  }
}

}  // namespace
}  // namespace fresque
