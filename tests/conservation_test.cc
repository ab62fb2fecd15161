// System-wide conservation invariants: nothing the collector emits may be
// lost or duplicated on its way to the cloud.

#include <gtest/gtest.h>

#include "client/client.h"
#include "cloud/server.h"
#include "crypto/key_manager.h"
#include "engine/cloud_node.h"
#include "engine/fresque_collector.h"
#include "record/dataset.h"

namespace fresque {
namespace {

TEST(ConservationTest, EveryEmittedRecordReachesExactlyOnePlace) {
  auto spec = record::GowallaDataset();
  ASSERT_TRUE(spec.ok());
  auto binning = index::DomainBinning::Create(
      spec->domain_min, spec->domain_max, spec->bin_width);
  cloud::CloudServer server(std::move(binning).ValueOrDie());
  engine::CloudNode cloud_node(&server);
  cloud_node.Start();

  crypto::KeyManager keys(Bytes(32, 0x12));
  engine::CollectorConfig cfg;
  cfg.dataset = *spec;
  cfg.num_computing_nodes = 3;
  cfg.seed = 2024;
  engine::FresqueCollector collector(cfg, keys, cloud_node.inbox());
  ASSERT_TRUE(collector.Start().ok());

  auto gen = record::MakeGenerator(*spec, 66);
  constexpr uint64_t kRecords = 5000;
  for (uint64_t i = 0; i < kRecords; ++i) {
    collector.SetIntervalProgress(static_cast<double>(i) / kRecords);
    ASSERT_TRUE(collector.Ingest((*gen)->NextLine()).ok());
  }
  ASSERT_TRUE(collector.Publish().ok());
  ASSERT_TRUE(collector.Shutdown().ok());
  cloud_node.Shutdown();
  ASSERT_TRUE(cloud_node.first_error().ok());

  engine::PublishReport report{};
  for (const auto& r : collector.Reports()) {
    if (r.pn == 0) report = r;
  }
  ASSERT_EQ(report.real_records, kRecords);

  // Conservation at the cloud's streaming store:
  //   streamed records = reals forwarded + dummies
  //                    = (reals - removed) + dummies.
  uint64_t streamed = server.total_records();
  EXPECT_EQ(streamed,
            report.real_records - report.removed_records +
                report.dummy_records);
  // Nothing fell past the overflow arrays' delta-probability bound.
  EXPECT_EQ(collector.Metrics().overflow_drops, 0u);

  // The zero-copy iteration API agrees with the aggregate counters: every
  // stored ciphertext of publication 0 is visited exactly once, and the
  // bytes visited are a strict part of the store's byte total (which also
  // counts the index and overflow payloads on top of the records).
  uint64_t visited = 0;
  uint64_t visited_bytes = 0;
  ASSERT_TRUE(server
                  .ForEachStoredRecord(
                      0,
                      [&](const cloud::PhysicalAddress&, const uint8_t* data,
                          size_t size) {
                        EXPECT_NE(data, nullptr);
                        EXPECT_GT(size, 0u);
                        ++visited;
                        visited_bytes += size;
                        return Status::OK();
                      })
                  .ok());
  EXPECT_EQ(visited, streamed);
  EXPECT_GT(visited_bytes, 0u);
  EXPECT_LT(visited_bytes, server.total_bytes());
  EXPECT_TRUE(server.ForEachStoredRecord(99, [](const cloud::PhysicalAddress&,
                                                const uint8_t*, size_t) {
                        return Status::OK();
                      }).IsNotFound());

  // And the removed records are all recoverable through the client: a
  // full-domain query returns every real record whose leaf survived,
  // including the overflow-array residents.
  client::Client client(keys, &spec->parser->schema());
  index::RangeQuery q{spec->domain_min, spec->domain_max};
  auto records = client.Query(server, q);
  ASSERT_TRUE(records.ok());
  EXPECT_LE(records->size(), kRecords);              // no duplication
  EXPECT_GE(records->size(), kRecords * 7 / 10);     // no mass loss
}

TEST(ConservationTest, SameSeedSameNoiseDifferentSeedDifferentNoise) {
  auto spec = record::GowallaDataset();
  ASSERT_TRUE(spec.ok());
  auto run = [&](uint64_t seed) -> uint64_t {
    auto binning = index::DomainBinning::Create(
        spec->domain_min, spec->domain_max, spec->bin_width);
    cloud::CloudServer server(std::move(binning).ValueOrDie());
    engine::CloudNode cloud_node(&server);
    cloud_node.Start();
    crypto::KeyManager keys(Bytes(32, 0x13));
    engine::CollectorConfig cfg;
    cfg.dataset = *spec;
    cfg.num_computing_nodes = 2;
    cfg.seed = seed;
    engine::FresqueCollector collector(cfg, keys, cloud_node.inbox());
    (void)collector.Start();
    (void)collector.Publish();
    (void)collector.Shutdown();
    cloud_node.Shutdown();
    for (const auto& r : collector.Reports()) {
      if (r.pn == 0) return r.dummy_records;
    }
    return 0;
  };
  uint64_t a = run(42), b = run(42), c = run(43);
  EXPECT_EQ(a, b);   // reproducible noise
  EXPECT_NE(a, c);   // and genuinely seed-dependent
  EXPECT_GT(a, 0u);
}

}  // namespace
}  // namespace fresque
