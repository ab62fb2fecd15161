#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "client/client.h"
#include "cloud/server.h"
#include "crypto/key_manager.h"
#include "engine/cloud_node.h"
#include "engine/fresque_collector.h"
#include "engine/pined_rq.h"
#include "engine/pined_rqpp.h"
#include "engine/pined_rqpp_parallel.h"
#include "record/dataset.h"

namespace fresque {
namespace {

struct Fixture {
  record::DatasetSpec spec;
  engine::CollectorConfig cfg;
  cloud::CloudServer server;
  engine::CloudNode cloud_node;
  crypto::KeyManager keys;
  std::vector<record::Record> truth;

  explicit Fixture(record::DatasetSpec s, size_t workers = 2)
      : spec(std::move(s)),
        cfg(MakeConfig()),
        server(MakeBinning()),
        cloud_node(&server),
        keys(Bytes(32, 0xAB)) {
    cfg.num_computing_nodes = workers;
    cloud_node.Start();
  }

  engine::CollectorConfig MakeConfig() {
    engine::CollectorConfig c;
    c.dataset = spec;
    c.epsilon = 1.0;
    c.delta = 0.99;
    c.seed = 4242;
    return c;
  }

  index::DomainBinning MakeBinning() {
    auto b = index::DomainBinning::Create(spec.domain_min, spec.domain_max,
                                          spec.bin_width);
    return std::move(b).ValueOrDie();
  }

  template <typename Collector>
  void Drive(Collector& collector, size_t n, int intervals) {
    auto gen = record::MakeGenerator(spec, 31337);
    ASSERT_TRUE(gen.ok());
    for (int iv = 0; iv < intervals; ++iv) {
      for (size_t i = 0; i < n; ++i) {
        std::string line = (*gen)->NextLine();
        auto rec = spec.parser->Parse(line);
        ASSERT_TRUE(rec.ok());
        truth.push_back(std::move(*rec));
        ASSERT_TRUE(collector.Ingest(line).ok());
      }
      ASSERT_TRUE(collector.Publish().ok());
    }
    ASSERT_TRUE(collector.Shutdown().ok());
    cloud_node.Shutdown();
    ASSERT_TRUE(cloud_node.first_error().ok())
        << cloud_node.first_error().ToString();
  }

  void CheckRecall(double min_recall) {
    client::Client client(keys, &spec.parser->schema());
    index::RangeQuery q{spec.domain_min, spec.domain_max};
    auto acc = client.QueryWithGroundTruth(server, q, truth);
    ASSERT_TRUE(acc.ok()) << acc.status().ToString();
    EXPECT_GT(acc->expected, 0u);
    EXPECT_GE(acc->Recall(), min_recall);
    EXPECT_LE(acc->Recall(), 1.0);
    EXPECT_EQ(acc->matched, acc->returned);
  }
};

TEST(PinedRqTest, BatchPublishAndQueryGowalla) {
  auto spec = record::GowallaDataset();
  ASSERT_TRUE(spec.ok());
  Fixture fx(*spec);
  engine::PinedRqCollector collector(fx.cfg, fx.keys, fx.cloud_node.inbox());
  ASSERT_TRUE(collector.Start().ok());
  fx.Drive(collector, 2000, 2);

  EXPECT_EQ(fx.server.num_publications(), 2u);
  EXPECT_EQ(collector.parse_errors(), 0u);
  auto reports = collector.Reports();
  ASSERT_EQ(reports.size(), 2u);
  // All the work happened at publish: the stall must be visible.
  EXPECT_GT(reports[0].dispatcher_millis, 0.0);
  EXPECT_EQ(reports[0].real_records, 2000u);
  fx.CheckRecall(0.75);
}

TEST(PinedRqTest, PublishEmptyIntervalStillPublishes) {
  auto spec = record::GowallaDataset();
  ASSERT_TRUE(spec.ok());
  Fixture fx(*spec);
  engine::PinedRqCollector collector(fx.cfg, fx.keys, fx.cloud_node.inbox());
  ASSERT_TRUE(collector.Start().ok());
  ASSERT_TRUE(collector.Publish().ok());  // pure-noise publication
  ASSERT_TRUE(collector.Shutdown().ok());
  fx.cloud_node.Shutdown();
  EXPECT_TRUE(fx.cloud_node.first_error().ok());
  EXPECT_EQ(fx.server.num_publications(), 1u);
  auto reports = collector.Reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].real_records, 0u);
  // Positive noise still materializes dummies in an empty publication.
  EXPECT_GT(reports[0].dummy_records, 0u);
}

TEST(PinedRqPpTest, StreamingPublishAndQueryGowalla) {
  auto spec = record::GowallaDataset();
  ASSERT_TRUE(spec.ok());
  Fixture fx(*spec);
  engine::PinedRqPpCollector collector(fx.cfg, fx.keys,
                                       fx.cloud_node.inbox());
  ASSERT_TRUE(collector.Start().ok());
  fx.Drive(collector, 2000, 2);

  EXPECT_EQ(collector.parse_errors(), 0u);
  // Tagged streaming: publications complete only after the matching
  // table arrives, and matching re-reads every stored record.
  auto stats = fx.cloud_node.matching_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_GT(stats[0].records_matched, 2000u);  // records + dummies
  fx.CheckRecall(0.75);
}

TEST(PinedRqPpTest, NasaParsingPathWorks) {
  auto spec = record::NasaDataset();
  ASSERT_TRUE(spec.ok());
  Fixture fx(*spec);
  engine::PinedRqPpCollector collector(fx.cfg, fx.keys,
                                       fx.cloud_node.inbox());
  ASSERT_TRUE(collector.Start().ok());
  fx.Drive(collector, 1500, 1);
  EXPECT_EQ(collector.parse_errors(), 0u);
  fx.CheckRecall(0.75);
}

class ParallelPpTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ParallelPpTest, EndToEndGowalla) {
  auto spec = record::GowallaDataset();
  ASSERT_TRUE(spec.ok());
  Fixture fx(*spec, GetParam());
  engine::ParallelPinedRqPpCollector collector(fx.cfg, fx.keys,
                                               fx.cloud_node.inbox());
  ASSERT_TRUE(collector.Start().ok());
  fx.Drive(collector, 2000, 2);
  EXPECT_EQ(collector.parse_errors(), 0u);
  ASSERT_EQ(fx.cloud_node.matching_stats().size(), 2u);
  fx.CheckRecall(0.75);
}

INSTANTIATE_TEST_SUITE_P(VaryWorkers, ParallelPpTest,
                         ::testing::Values(1, 3));

TEST(BaselineEquivalenceTest, AllPrototypesAnswerTheSameQuery) {
  // The four prototypes must agree (up to DP noise) on what a range query
  // returns: same workload, same seed, same epsilon. Each signs its
  // publication, so it verifies under the collector's keys and no other.
  auto spec = record::GowallaDataset();
  ASSERT_TRUE(spec.ok());
  constexpr size_t kN = 1500;
  index::RangeQuery q{spec->domain_min + 100 * 3600.0,
                      spec->domain_min + 500 * 3600.0};

  size_t expected = 0;
  std::vector<size_t> answers;
  for (int proto = 0; proto < 4; ++proto) {
    Fixture fx(*spec);
    switch (proto) {
      case 0: {
        engine::PinedRqCollector c(fx.cfg, fx.keys, fx.cloud_node.inbox());
        ASSERT_TRUE(c.Start().ok());
        fx.Drive(c, kN, 1);
        break;
      }
      case 1: {
        engine::PinedRqPpCollector c(fx.cfg, fx.keys, fx.cloud_node.inbox());
        ASSERT_TRUE(c.Start().ok());
        fx.Drive(c, kN, 1);
        break;
      }
      case 2: {
        engine::ParallelPinedRqPpCollector c(fx.cfg, fx.keys,
                                             fx.cloud_node.inbox());
        ASSERT_TRUE(c.Start().ok());
        fx.Drive(c, kN, 1);
        break;
      }
      case 3: {
        engine::FresqueCollector c(fx.cfg, fx.keys, fx.cloud_node.inbox());
        ASSERT_TRUE(c.Start().ok());
        fx.Drive(c, kN, 1);
        break;
      }
    }
    client::Client client(fx.keys, &fx.spec.parser->schema());
    Status verified = client.VerifyPublication(fx.server, 0);
    EXPECT_TRUE(verified.ok()) << "prototype " << proto << ": "
                               << verified.ToString();
    client::Client stranger(crypto::KeyManager(Bytes(32, 0xAC)),
                            &fx.spec.parser->schema());
    EXPECT_TRUE(stranger.VerifyPublication(fx.server, 0).IsCorruption())
        << "prototype " << proto;
    auto acc = client.QueryWithGroundTruth(fx.server, q, fx.truth);
    ASSERT_TRUE(acc.ok());
    expected = acc->expected;
    answers.push_back(acc->matched);
  }
  ASSERT_GT(expected, 0u);
  for (size_t a : answers) {
    EXPECT_NEAR(static_cast<double>(a), static_cast<double>(expected),
                0.25 * static_cast<double>(expected));
  }
}

}  // namespace
}  // namespace fresque
