// Parameterized end-to-end sweeps: the FRESQUE pipeline's correctness
// invariants must hold across the privacy/config space, not just at the
// paper defaults.

#include <gtest/gtest.h>

#include <tuple>

#include "client/client.h"
#include "cloud/server.h"
#include "crypto/key_manager.h"
#include "engine/cloud_node.h"
#include "engine/fresque_collector.h"
#include "record/dataset.h"

namespace fresque {
namespace {

struct SweepPoint {
  double epsilon;
  size_t fanout;
  double alpha;
};

class FresqueSweepTest : public ::testing::TestWithParam<SweepPoint> {};

TEST_P(FresqueSweepTest, InvariantsHoldAcrossParameterSpace) {
  const auto& p = GetParam();
  auto spec = record::GowallaDataset();
  ASSERT_TRUE(spec.ok());

  auto binning = index::DomainBinning::Create(
      spec->domain_min, spec->domain_max, spec->bin_width);
  cloud::CloudServer server(std::move(binning).ValueOrDie());
  engine::CloudNode cloud_node(&server);
  cloud_node.Start();

  crypto::KeyManager keys(Bytes(32, 0x44));
  engine::CollectorConfig cfg;
  cfg.dataset = *spec;
  cfg.num_computing_nodes = 2;
  cfg.epsilon = p.epsilon;
  cfg.fanout = p.fanout;
  cfg.alpha = p.alpha;
  cfg.seed = 1234;
  engine::FresqueCollector collector(cfg, keys, cloud_node.inbox());
  ASSERT_TRUE(collector.Start().ok());

  auto gen = record::MakeGenerator(*spec, 99);
  std::vector<record::Record> truth;
  constexpr int kRecords = 2500;
  for (int i = 0; i < kRecords; ++i) {
    std::string line = (*gen)->NextLine();
    auto rec = spec->parser->Parse(line);
    ASSERT_TRUE(rec.ok());
    truth.push_back(std::move(*rec));
    collector.SetIntervalProgress(static_cast<double>(i) / kRecords);
    ASSERT_TRUE(collector.Ingest(line).ok());
  }
  ASSERT_TRUE(collector.Publish().ok());
  ASSERT_TRUE(collector.Shutdown().ok());
  cloud_node.Shutdown();

  // Invariant 1: the pipeline never errors.
  EXPECT_TRUE(cloud_node.first_error().ok())
      << cloud_node.first_error().ToString();
  EXPECT_EQ(collector.Metrics().parse_errors, 0u);
  ASSERT_EQ(cloud_node.matching_stats().size(), 1u);

  // Invariant 2: zero false positives, and recall degrades gracefully
  // with the privacy level (never catastrophically at eps >= 0.5).
  client::Client client(keys, &spec->parser->schema());
  index::RangeQuery q{spec->domain_min, spec->domain_max};
  auto acc = client.QueryWithGroundTruth(server, q, truth);
  ASSERT_TRUE(acc.ok()) << acc.status().ToString();
  EXPECT_EQ(acc->matched, acc->returned);
  EXPECT_LE(acc->Recall(), 1.0);
  double min_recall = p.epsilon >= 1.0 ? 0.6 : 0.4;
  EXPECT_GE(acc->Recall(), min_recall)
      << "eps=" << p.epsilon << " fanout=" << p.fanout;

  // Invariant 3: the publication is integrity-verifiable.
  EXPECT_TRUE(client.VerifyPublication(server, 0).ok());

  // Invariant 4: the report is internally consistent.
  for (const auto& r : collector.Reports()) {
    if (r.pn != 0) continue;
    EXPECT_EQ(r.real_records, static_cast<uint64_t>(kRecords));
    EXPECT_LE(r.removed_records, r.real_records);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParameterSpace, FresqueSweepTest,
    ::testing::Values(SweepPoint{0.5, 16, 2.0}, SweepPoint{1.0, 16, 2.0},
                      SweepPoint{2.0, 16, 2.0}, SweepPoint{1.0, 4, 2.0},
                      SweepPoint{1.0, 64, 2.0}, SweepPoint{1.0, 16, 8.0},
                      SweepPoint{0.5, 4, 4.0}),
    [](const ::testing::TestParamInfo<SweepPoint>& info) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "eps%zu_fan%zu_alpha%zu",
                    static_cast<size_t>(info.param.epsilon * 10),
                    info.param.fanout,
                    static_cast<size_t>(info.param.alpha));
      return std::string(buf);
    });

}  // namespace
}  // namespace fresque
