#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
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
  // The previous format, which stored each publication twice, is refused.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "FQSNAP02" << std::string(32, '\0');
  }
  EXPECT_TRUE(cloud::CloudServer::LoadSnapshot(path).status().IsCorruption());
  std::remove(path.c_str());
}

// An installed entry holds its publication's payload and nothing else of
// it: the index and overflow bytes appear in the file once, inside the
// payload, and the restored publication serves that payload as evidence.
TEST(SnapshotTest, StoresEachPublicationPayloadOnce) {
  auto binning = index::DomainBinning::Create(0, 32, 1);
  ASSERT_TRUE(binning.ok());
  crypto::SecureRandom rng(31);
  auto layout = index::IndexLayout::Create(32, 4);
  auto idx = index::HistogramIndex::FromLeafCounts(
      std::move(layout).ValueOrDie(), *binning, std::vector<int64_t>(32, 1));
  ASSERT_TRUE(idx.ok());
  index::OverflowArrays ovf(32, 2);
  ovf.ForEachEmptySlot([&](Bytes* slot) { *slot = rng.RandomBytes(24); });
  const Bytes overflow = ovf.Serialize();
  const Bytes mac_key(32, 0x44);
  auto payload = net::EncodeSignedIndexPublication(
      net::IndexPublication(std::move(idx).ValueOrDie(), std::move(ovf)),
      mac_key, 0,
      [](uint8_t*, std::span<const size_t>) { return Status::OK(); });
  ASSERT_TRUE(payload.ok());

  cloud::CloudServer server(*binning);
  ASSERT_TRUE(server.StartPublication(0).ok());
  ASSERT_TRUE(server.IngestRecord(0, 5, Bytes(48, 0x05)).ok());
  ASSERT_TRUE(
      server.PublishIndexed(0, std::make_shared<const Bytes>(*payload)).ok());
  const std::string path = TempPath("payload_once.bin");
  ASSERT_TRUE(server.SaveSnapshot(path).ok());

  Bytes file;
  {
    std::ifstream in(path, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  size_t copies = 0;
  for (auto at = file.begin();
       (at = std::search(at, file.end(), overflow.begin(), overflow.end())) !=
       file.end();
       ++at) {
    ++copies;
  }
  EXPECT_EQ(copies, 1u);
  auto loaded = cloud::CloudServer::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto evidence = (*loaded)->PublicationEvidence(0);
  ASSERT_TRUE(evidence.ok());
  EXPECT_EQ(*evidence, *payload);
  EXPECT_TRUE(net::VerifyIndexPublicationPayload(*evidence, mac_key).ok());
  auto inst = (*loaded)->CurrentView()->Find(0);
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(inst->overflow.buffer(), inst->evidence);
  std::remove(path.c_str());
}

// The format has no place for PINED-RQ++ tagged records, so a store
// holding them cannot be cut rather than lose them silently.
TEST(SnapshotTest, RefusesAnOpenPublicationWithTaggedRecords) {
  auto binning = index::DomainBinning::Create(0, 10, 1);
  cloud::CloudServer server(std::move(binning).ValueOrDie());
  ASSERT_TRUE(server.StartPublication(0).ok());
  ASSERT_TRUE(server.IngestRecord(0, 1, Bytes(48, 0x01)).ok());
  ASSERT_TRUE(server.CutSnapshot().ok());
  ASSERT_TRUE(server.StartPublication(1).ok());
  ASSERT_TRUE(server.IngestTagged(1, 0x7A6, Bytes(48, 0x02)).ok());

  EXPECT_TRUE(server.CutSnapshot().status().IsFailedPrecondition());
  const std::string path = TempPath("tagged_snapshot.bin");
  std::remove(path.c_str());
  EXPECT_TRUE(server.SaveSnapshot(path).IsFailedPrecondition());
  EXPECT_FALSE(std::ifstream(path).good()) << "a refused snapshot was written";
  // A cut that leaves the tagged publication out still succeeds.
  auto open_only = server.CutSnapshot(
      [](uint64_t pn, bool) { return pn == 0; });
  ASSERT_TRUE(open_only.ok());
  EXPECT_EQ(open_only->size(), 1u);
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
