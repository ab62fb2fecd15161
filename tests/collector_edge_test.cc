// Edge cases and failure-injection for the collector prototypes.

#include <gtest/gtest.h>

#include "client/client.h"
#include "cloud/server.h"
#include "crypto/key_manager.h"
#include "engine/cloud_node.h"
#include "engine/dummy_schedule.h"
#include "engine/fresque_collector.h"
#include "engine/pined_rq.h"
#include "engine/pined_rqpp.h"
#include "record/dataset.h"

namespace fresque {
namespace {

struct Rig {
  record::DatasetSpec spec;
  cloud::CloudServer server;
  engine::CloudNode cloud_node;
  crypto::KeyManager keys;

  Rig()
      : spec(std::move(record::GowallaDataset()).ValueOrDie()),
        server(MakeBinning(spec)),
        cloud_node(&server),
        keys(Bytes(32, 0x99)) {
    cloud_node.Start();
  }

  static index::DomainBinning MakeBinning(const record::DatasetSpec& s) {
    return std::move(index::DomainBinning::Create(s.domain_min, s.domain_max,
                                                  s.bin_width))
        .ValueOrDie();
  }

  engine::CollectorConfig Config(size_t k = 2) {
    engine::CollectorConfig c;
    c.dataset = spec;
    c.num_computing_nodes = k;
    c.seed = 321;
    return c;
  }
};

TEST(CollectorEdgeTest, EmptyIntervalStillPublishesNoiseOnlyIndex) {
  Rig rig;
  engine::FresqueCollector collector(rig.Config(), rig.keys,
                                     rig.cloud_node.inbox());
  ASSERT_TRUE(collector.Start().ok());
  ASSERT_TRUE(collector.Publish().ok());  // zero records
  ASSERT_TRUE(collector.Shutdown().ok());
  rig.cloud_node.Shutdown();
  EXPECT_TRUE(rig.cloud_node.first_error().ok())
      << rig.cloud_node.first_error().ToString();
  ASSERT_EQ(rig.cloud_node.matching_stats().size(), 1u);
  auto reports = collector.Reports();
  bool found = false;
  for (const auto& r : reports) {
    if (r.pn == 0) {
      EXPECT_EQ(r.real_records, 0u);
      EXPECT_GT(r.dummy_records, 0u);  // noise still materializes
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(CollectorEdgeTest, RapidFirePublishesAllComplete) {
  Rig rig;
  engine::FresqueCollector collector(rig.Config(), rig.keys,
                                     rig.cloud_node.inbox());
  ASSERT_TRUE(collector.Start().ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(collector.Publish().ok());
  }
  ASSERT_TRUE(collector.Shutdown().ok());
  rig.cloud_node.Shutdown();
  EXPECT_TRUE(rig.cloud_node.first_error().ok());
  EXPECT_EQ(rig.cloud_node.matching_stats().size(), 5u);
}

TEST(CollectorEdgeTest, GarbageLinesCountAsParseErrorsNotCrashes) {
  Rig rig;
  engine::FresqueCollector collector(rig.Config(), rig.keys,
                                     rig.cloud_node.inbox());
  ASSERT_TRUE(collector.Start().ok());
  ASSERT_TRUE(collector.Ingest("complete garbage").ok());
  ASSERT_TRUE(collector.Ingest("").ok());
  ASSERT_TRUE(collector.Ingest("1,2").ok());              // too few cells
  ASSERT_TRUE(collector.Ingest("1,99,3").ok());           // out of domain
  ASSERT_TRUE(collector.Ingest("1,1230769000,3").ok());   // valid
  ASSERT_TRUE(collector.Publish().ok());
  ASSERT_TRUE(collector.Shutdown().ok());
  rig.cloud_node.Shutdown();
  EXPECT_EQ(collector.Metrics().parse_errors, 4u);
  EXPECT_TRUE(rig.cloud_node.first_error().ok());
}

TEST(CollectorEdgeTest, ApiMisuseIsRejectedCleanly) {
  Rig rig;
  engine::FresqueCollector collector(rig.Config(), rig.keys,
                                     rig.cloud_node.inbox());
  EXPECT_FALSE(collector.Publish().ok());   // before Start
  EXPECT_FALSE(collector.Shutdown().ok());  // before Start
  ASSERT_TRUE(collector.Start().ok());
  EXPECT_FALSE(collector.Start().ok());     // double Start
  ASSERT_TRUE(collector.Shutdown().ok());
  EXPECT_TRUE(collector.Shutdown().ok());   // idempotent
  EXPECT_FALSE(collector.Ingest("1,1230769000,3").ok());  // after Shutdown
  EXPECT_FALSE(collector.Publish().ok());                 // after Shutdown
  rig.cloud_node.inbox()->Push([] {
    net::Message m;
    m.type = net::MessageType::kShutdown;
    return m;
  }());
  rig.cloud_node.Shutdown();
}

TEST(CollectorEdgeTest, ReportDummyCountsMatchRealizedNoise) {
  Rig rig;
  engine::FresqueCollector collector(rig.Config(), rig.keys,
                                     rig.cloud_node.inbox());
  ASSERT_TRUE(collector.Start().ok());
  auto gen = record::MakeGenerator(rig.spec, 1);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(collector.Ingest((*gen)->NextLine()).ok());
  }
  ASSERT_TRUE(collector.Publish().ok());
  ASSERT_TRUE(collector.Shutdown().ok());
  rig.cloud_node.Shutdown();

  for (const auto& r : collector.Reports()) {
    if (r.pn != 0) continue;
    EXPECT_EQ(r.real_records, 300u);
    // Realized dummies for Gowalla at eps=1, scale 4: E ~ 626*2 = 1252;
    // bound it loosely (10 sigma-ish).
    EXPECT_GT(r.dummy_records, 500u);
    EXPECT_LT(r.dummy_records, 4000u);
  }
}

TEST(CollectorEdgeTest, PinedRqPpEmptyIntervalPublishes) {
  Rig rig;
  engine::PinedRqPpCollector collector(rig.Config(), rig.keys,
                                       rig.cloud_node.inbox());
  ASSERT_TRUE(collector.Start().ok());
  ASSERT_TRUE(collector.Publish().ok());
  ASSERT_TRUE(collector.Shutdown().ok());
  rig.cloud_node.Shutdown();
  EXPECT_TRUE(rig.cloud_node.first_error().ok())
      << rig.cloud_node.first_error().ToString();
  EXPECT_EQ(rig.cloud_node.matching_stats().size(), 1u);
}

TEST(CollectorEdgeTest, PinedRqIngestBeforeStartFails) {
  Rig rig;
  engine::PinedRqCollector collector(rig.Config(), rig.keys,
                                     rig.cloud_node.inbox());
  EXPECT_FALSE(collector.Ingest("x").ok());
  EXPECT_FALSE(collector.Publish().ok());
  rig.cloud_node.inbox()->Push([] {
    net::Message m;
    m.type = net::MessageType::kShutdown;
    return m;
  }());
  rig.cloud_node.Shutdown();
}

TEST(DummyScheduleDistributionTest, SamplerDrivesReleaseTimes) {
  // A sampler clamped to [0.8, 0.9): all releases land late.
  crypto::SecureRandom rng(3);
  std::vector<int64_t> noise(100, 5);
  engine::DummySchedule sched(noise, [&] {
    return 0.8 + 0.1 * rng.NextDouble();
  });
  EXPECT_EQ(sched.total(), 500u);
  EXPECT_TRUE(sched.Due(0.79).empty());
  (void)sched.Due(0.95);
  EXPECT_EQ(sched.released(), 500u);
}

}  // namespace
}  // namespace fresque
