#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "client/client.h"
#include "cloud/server.h"
#include "crypto/key_manager.h"
#include "engine/cloud_node.h"
#include "engine/fresque_collector.h"
#include "index/index.h"
#include "index/layout.h"
#include "index/overflow.h"
#include "net/payloads.h"
#include "record/dataset.h"

namespace fresque {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(SnapshotTest, QueriesSurviveSaveAndLoad) {
  auto spec = record::GowallaDataset();
  ASSERT_TRUE(spec.ok());
  auto binning = index::DomainBinning::Create(
      spec->domain_min, spec->domain_max, spec->bin_width);
  cloud::CloudServer server(std::move(binning).ValueOrDie());
  engine::CloudNode cloud_node(&server);
  cloud_node.Start();

  crypto::KeyManager keys(Bytes(32, 0x70));
  engine::CollectorConfig cfg;
  cfg.dataset = *spec;
  cfg.num_computing_nodes = 2;
  cfg.seed = 9;
  engine::FresqueCollector collector(cfg, keys, cloud_node.inbox());
  ASSERT_TRUE(collector.Start().ok());
  auto gen = record::MakeGenerator(*spec, 12);
  std::vector<record::Record> truth;
  for (int i = 0; i < 1200; ++i) {
    std::string line = (*gen)->NextLine();
    auto rec = spec->parser->Parse(line);
    ASSERT_TRUE(rec.ok());
    truth.push_back(std::move(*rec));
    ASSERT_TRUE(collector.Ingest(line).ok());
  }
  ASSERT_TRUE(collector.Publish().ok());
  // Leave some records in an open (unpublished) second publication too.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(collector.Ingest((*gen)->NextLine()).ok());
  }
  ASSERT_TRUE(collector.Shutdown().ok());
  cloud_node.Shutdown();
  ASSERT_TRUE(cloud_node.first_error().ok());

  // The "cloud restarts": persist, reload, compare query answers.
  std::string path = TempPath("cloud_snapshot.bin");
  ASSERT_TRUE(server.SaveSnapshot(path).ok());
  auto restored = cloud::CloudServer::LoadSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  client::Client client(keys, &spec->parser->schema());
  index::RangeQuery q{spec->domain_min, spec->domain_max};
  auto before = client.Query(server, q);
  auto after = client.Query(**restored, q);
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(before->size(), after->size());
  EXPECT_GT(after->size(), 0u);

  // Integrity evidence survives too.
  EXPECT_TRUE(client.VerifyPublication(**restored, 0).ok());
  EXPECT_EQ((*restored)->num_publications(), server.num_publications());
  EXPECT_EQ((*restored)->total_records(), server.total_records());
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsCorruptSnapshots) {
  std::string path = TempPath("bad_snapshot.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("definitely not a snapshot", f);
    std::fclose(f);
  }
  EXPECT_FALSE(cloud::CloudServer::LoadSnapshot(path).ok());
  EXPECT_FALSE(cloud::CloudServer::LoadSnapshot("/nonexistent/nope").ok());
  std::remove(path.c_str());
}

// A published entry stores its overflow arrays twice: alone, and inside
// the evidence a client verifies. If the two disagree, queries would
// serve overflow bytes the evidence never covered, so the load must fail.
TEST(SnapshotTest, RejectsOverflowThatDisagreesWithItsEvidence) {
  auto binning = index::DomainBinning::Create(0, 32, 1);
  ASSERT_TRUE(binning.ok());
  crypto::SecureRandom rng(31);
  auto layout = index::IndexLayout::Create(32, 4);
  auto idx = index::HistogramIndex::FromLeafCounts(
      std::move(layout).ValueOrDie(), *binning, std::vector<int64_t>(32, 1));
  ASSERT_TRUE(idx.ok());
  index::OverflowArrays ovf(32, 2);
  ASSERT_TRUE(ovf.PadWithDummies([&] { return rng.RandomBytes(24); }).ok());
  const Bytes stored_overflow = ovf.Serialize();
  net::IndexPublication pub(std::move(idx).ValueOrDie(), std::move(ovf));
  pub.integrity_tag = net::ComputeIndexPublicationTag(pub, Bytes(32, 0x44));
  const Bytes payload = net::EncodeIndexPublication(pub);

  cloud::CloudServer server(*binning);
  ASSERT_TRUE(server.StartPublication(0).ok());
  ASSERT_TRUE(server.IngestRecord(0, 5, Bytes(48, 0x05)).ok());
  auto decoded = net::DecodeIndexPublication(payload);
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(server.PublishIndexed(0, std::move(*decoded), payload).ok());
  const std::string path = TempPath("overflow_vs_evidence.bin");
  ASSERT_TRUE(server.SaveSnapshot(path).ok());
  ASSERT_TRUE(cloud::CloudServer::LoadSnapshot(path).ok());

  // The entry's own overflow segment comes before its evidence; flip the
  // last byte of its last slot (a ciphertext byte, not a length prefix).
  Bytes file;
  {
    std::ifstream in(path, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  auto at = std::search(file.begin(), file.end(), stored_overflow.begin(),
                        stored_overflow.end());
  ASSERT_NE(at, file.end());
  *(at + static_cast<std::ptrdiff_t>(stored_overflow.size()) - 1) ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(file.data()),
              static_cast<std::streamsize>(file.size()));
  }
  auto loaded = cloud::CloudServer::LoadSnapshot(path);
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(SnapshotTest, EmptyServerRoundTrips) {
  auto binning = index::DomainBinning::Create(0, 10, 1);
  cloud::CloudServer server(std::move(binning).ValueOrDie());
  std::string path = TempPath("empty_snapshot.bin");
  ASSERT_TRUE(server.SaveSnapshot(path).ok());
  auto restored = cloud::CloudServer::LoadSnapshot(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->num_publications(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fresque
