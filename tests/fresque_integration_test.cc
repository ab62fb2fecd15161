#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "client/client.h"
#include "cloud/server.h"
#include "crypto/key_manager.h"
#include "engine/cloud_node.h"
#include "engine/config.h"
#include "engine/fresque_collector.h"
#include "index/binning.h"
#include "record/dataset.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace fresque {
namespace {

engine::CollectorConfig MakeConfig(const record::DatasetSpec& spec,
                                   size_t num_cns) {
  engine::CollectorConfig cfg;
  cfg.dataset = spec;
  cfg.num_computing_nodes = num_cns;
  cfg.epsilon = 1.0;
  cfg.delta = 0.99;
  cfg.alpha = 2.0;
  cfg.seed = 12345;
  return cfg;
}

index::DomainBinning BinningOf(const record::DatasetSpec& spec) {
  auto b = index::DomainBinning::Create(spec.domain_min, spec.domain_max,
                                        spec.bin_width);
  EXPECT_TRUE(b.ok());
  return std::move(b).ValueOrDie();
}

class FresqueEndToEndTest : public ::testing::TestWithParam<size_t> {};

TEST_P(FresqueEndToEndTest, IngestPublishQueryNasa) {
  auto spec = record::NasaDataset();
  ASSERT_TRUE(spec.ok());
  auto cfg = MakeConfig(*spec, GetParam());

  cloud::CloudServer server(BinningOf(*spec));
  engine::CloudNode cloud_node(&server);
  cloud_node.Start();

  crypto::KeyManager keys(Bytes(32, 0x55));
  engine::FresqueCollector collector(cfg, keys, cloud_node.inbox());
  ASSERT_TRUE(collector.Start().ok());

  // Generate, remember ground truth, ingest.
  auto gen = record::MakeGenerator(*spec, 777);
  ASSERT_TRUE(gen.ok());
  std::vector<record::Record> truth;
  constexpr size_t kRecords = 3000;
  for (size_t i = 0; i < kRecords; ++i) {
    std::string line = (*gen)->NextLine();
    auto rec = spec->parser->Parse(line);
    ASSERT_TRUE(rec.ok()) << line;
    truth.push_back(std::move(*rec));
    collector.SetIntervalProgress(static_cast<double>(i) / kRecords);
    ASSERT_TRUE(collector.Ingest(line).ok());
  }
  ASSERT_TRUE(collector.Publish().ok());
  ASSERT_TRUE(collector.Shutdown().ok());
  cloud_node.Shutdown();

  EXPECT_TRUE(cloud_node.first_error().ok())
      << cloud_node.first_error().ToString();
  EXPECT_EQ(collector.Metrics().parse_errors, 0u);

  // Publication 0 must be fully published with matching stats.
  auto stats = cloud_node.matching_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].pn, 0u);

  // Query a wide range and check recall against ground truth. DP noise
  // can prune negative leaves, so recall is high but not exactly 1.
  client::Client client(keys, &spec->parser->schema());
  index::RangeQuery q{0, 200 * 1024.0};
  auto acc = client.QueryWithGroundTruth(server, q, truth);
  ASSERT_TRUE(acc.ok()) << acc.status().ToString();
  EXPECT_GT(acc->expected, 0u);
  // DP prunes leaves whose noisy count went negative, so a few percent of
  // records in sparse leaves are unreachable by design.
  EXPECT_GE(acc->Recall(), 0.90);
  EXPECT_LE(acc->Recall(), 1.0);
  // No false positives after client-side post-filtering.
  EXPECT_EQ(acc->matched, acc->returned);
}

INSTANTIATE_TEST_SUITE_P(VaryComputingNodes, FresqueEndToEndTest,
                         ::testing::Values(1, 2, 4));

TEST(FresqueCollectorTest, MultiplePublicationsAllArrive) {
  auto spec = record::GowallaDataset();
  ASSERT_TRUE(spec.ok());
  auto cfg = MakeConfig(*spec, 2);

  cloud::CloudServer server(BinningOf(*spec));
  engine::CloudNode cloud_node(&server);
  cloud_node.Start();

  crypto::KeyManager keys(Bytes(32, 0x66));
  engine::FresqueCollector collector(cfg, keys, cloud_node.inbox());
  ASSERT_TRUE(collector.Start().ok());

  auto gen = record::MakeGenerator(*spec, 888);
  ASSERT_TRUE(gen.ok());
  constexpr int kIntervals = 3;
  constexpr int kPerInterval = 500;
  for (int interval = 0; interval < kIntervals; ++interval) {
    for (int i = 0; i < kPerInterval; ++i) {
      collector.SetIntervalProgress(static_cast<double>(i) / kPerInterval);
      ASSERT_TRUE(collector.Ingest((*gen)->NextLine()).ok());
    }
    ASSERT_TRUE(collector.Publish().ok());
  }
  EXPECT_EQ(collector.current_publication(), 3u);
  ASSERT_TRUE(collector.Shutdown().ok());
  cloud_node.Shutdown();

  EXPECT_TRUE(cloud_node.first_error().ok())
      << cloud_node.first_error().ToString();
  EXPECT_EQ(cloud_node.matching_stats().size(), 3u);
  // Publication 3 was opened but never published: 4 publications known.
  EXPECT_EQ(server.num_publications(), 4u);

  // Reports carry all component timings for the three closed intervals.
  auto reports = collector.Reports();
  int complete = 0;
  for (const auto& r : reports) {
    if (r.pn < 3) {
      EXPECT_GT(r.real_records, 0u) << "pn " << r.pn;
      ++complete;
    }
  }
  EXPECT_EQ(complete, 3);
}

TEST(FresqueCollectorTest, ShutdownDrainsAndPublishesOpenPublication) {
  auto spec = record::GowallaDataset();
  ASSERT_TRUE(spec.ok());
  auto cfg = MakeConfig(*spec, 2);
  // Small delta => small randomer buffer, so records spill to the cloud
  // mid-interval; the drain-time publication must install the index over
  // that already-streamed metadata.
  cfg.delta = 0.51;

  cloud::CloudServer server(BinningOf(*spec));
  engine::CloudNode cloud_node(&server);

  crypto::KeyManager keys(Bytes(32, 0x77));
  engine::FresqueCollector collector(cfg, keys, cloud_node.inbox());
  cloud_node.ReportPublicationsTo(collector.publications());
  cloud_node.Start();
  ASSERT_TRUE(collector.Start().ok());

  auto gen = record::MakeGenerator(*spec, 999);
  ASSERT_TRUE(gen.ok());
  std::vector<record::Record> truth;
  for (int i = 0; i < 3000; ++i) {
    std::string line = (*gen)->NextLine();
    auto rec = spec->parser->Parse(line);
    ASSERT_TRUE(rec.ok());
    truth.push_back(std::move(*rec));
    ASSERT_TRUE(collector.Ingest(line).ok());
  }
  // No Publish(): Shutdown() drains — the open publication (including the
  // records still inside the randomer buffer) is published, not lost.
  ASSERT_TRUE(collector.Shutdown().ok());
  Status acked =
      collector.WaitForPublication(0, std::chrono::milliseconds(15000));
  EXPECT_TRUE(acked.ok()) << acked.ToString();
  cloud_node.Shutdown();

  ASSERT_EQ(cloud_node.matching_stats().size(), 1u);

  // The drain itself lost nothing: everything ingested left the
  // collector, and conservation holds at the cloud.
  engine::PublishReport report{};
  for (const auto& r : collector.Reports()) {
    if (r.pn == 0) report = r;
  }
  EXPECT_EQ(report.real_records, 3000u);
  EXPECT_EQ(server.total_records(),
            report.real_records - report.removed_records +
                report.dummy_records);

  client::Client client(keys, &spec->parser->schema());
  index::RangeQuery q{spec->domain_min, spec->domain_max};
  auto acc = client.QueryWithGroundTruth(server, q, truth);
  ASSERT_TRUE(acc.ok()) << acc.status().ToString();
  // δ=0.51 sizes the overflow arrays to fit each leaf's removed records
  // with only 51% probability, so some removed records drop at the
  // merger by design — but every drop is counted. Matched results plus
  // counted drops must cover the interval (the remainder is DP pruning
  // of negative leaves), which would fail loudly if Shutdown() lost the
  // randomer buffer instead.
  auto metrics = collector.Metrics();
  EXPECT_GE(acc->matched + metrics.overflow_drops,
            static_cast<uint64_t>(0.90 * acc->expected))
      << "matched=" << acc->matched
      << " overflow_drops=" << metrics.overflow_drops;
  EXPECT_EQ(acc->matched, acc->returned);  // no false positives
}

TEST(FresqueCollectorTest, IngestBeforeStartFails) {
  auto spec = record::GowallaDataset();
  ASSERT_TRUE(spec.ok());
  auto cfg = MakeConfig(*spec, 1);
  cloud::CloudServer server(BinningOf(*spec));
  engine::CloudNode cloud_node(&server);
  cloud_node.Start();
  crypto::KeyManager keys(Bytes(32, 0x01));
  engine::FresqueCollector collector(cfg, keys, cloud_node.inbox());
  EXPECT_FALSE(collector.Ingest("1,1230768000,2").ok());
  cloud_node.inbox()->Push([] {
    net::Message m;
    m.type = net::MessageType::kShutdown;
    return m;
  }());
  cloud_node.Shutdown();
}

TEST(FresqueCollectorTest, ZeroComputingNodesRejected) {
  auto spec = record::GowallaDataset();
  ASSERT_TRUE(spec.ok());
  auto cfg = MakeConfig(*spec, 0);
  cloud::CloudServer server(BinningOf(*spec));
  engine::CloudNode cloud_node(&server);
  crypto::KeyManager keys(Bytes(32, 0x01));
  engine::FresqueCollector collector(cfg, keys, cloud_node.inbox());
  EXPECT_FALSE(collector.Start().ok());
}

// Record conservation across the whole pipeline, as seen by the metrics
// registry and the collector's drop counts: after a full drain, every
// ingested frame (real or dummy) must be accounted for — accepted by the
// cloud, rejected by the cloud, or dropped at a named pipeline stage. A
// leak on either side of the ledger means a counter is missing or a
// record vanished silently.
TEST(TelemetryInvariantsTest, RecordCountersConserveAcrossPipeline) {
  telemetry::Registry::Global()->ResetForTest();

  auto spec = record::NasaDataset();
  ASSERT_TRUE(spec.ok());
  auto cfg = MakeConfig(*spec, 3);

  cloud::CloudServer server(BinningOf(*spec));
  engine::CloudNode cloud_node(&server);
  cloud_node.Start();

  crypto::KeyManager keys(Bytes(32, 0x55));
  engine::FresqueCollector collector(cfg, keys, cloud_node.inbox());
  ASSERT_TRUE(collector.Start().ok());

  auto gen = record::MakeGenerator(*spec, 4242);
  ASSERT_TRUE(gen.ok());
  constexpr size_t kRecords = 2000;
  constexpr size_t kIntervals = 2;
  for (size_t interval = 0; interval < kIntervals; ++interval) {
    for (size_t i = 0; i < kRecords; ++i) {
      collector.SetIntervalProgress(static_cast<double>(i) / kRecords);
      ASSERT_TRUE(collector.Ingest((*gen)->NextLine()).ok());
    }
    ASSERT_TRUE(collector.Publish().ok());
  }
  ASSERT_TRUE(collector.Shutdown().ok());
  cloud_node.Shutdown();
  ASSERT_TRUE(cloud_node.first_error().ok())
      << cloud_node.first_error().ToString();

  telemetry::MetricsSnapshot snap =
      telemetry::Registry::Global()->Snapshot();
  auto counter = [&snap](const std::string& name) -> uint64_t {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return v;
    }
    return 0;
  };

  const uint64_t in = counter("ingest.records_in");
  const uint64_t dummies = counter("ingest.dummy_records");
  const uint64_t arrived = counter("cloud.records_in");
  const uint64_t rejected = counter("cloud.records_rejected");
  const uint64_t removed = counter("collector.records_removed");
  const engine::CollectorMetrics cm = collector.Metrics();
  const uint64_t dropped =
      cm.parse_errors + cm.codec_failures + cm.pending_dropped;
  EXPECT_EQ(in, static_cast<uint64_t>(kRecords) * kIntervals);
  EXPECT_EQ(in + dummies, arrived + rejected + removed + dropped)
      << "records leaked: in=" << in << " dummies=" << dummies
      << " arrived=" << arrived << " rejected=" << rejected
      << " removed=" << removed << " dropped=" << dropped;
  EXPECT_EQ(counter("collector.publications_shipped"),
            counter("cloud.publications_installed") +
                counter("cloud.publications_failed"));
  EXPECT_EQ(counter("cloud.publications_failed"), 0u);

  // The end-to-end latency histogram must have seen every accepted record.
  for (const auto& h : snap.histograms) {
    if (h.name == "pipeline.record_e2e_ns") {
      EXPECT_EQ(h.count, arrived);
    }
  }
}

}  // namespace
}  // namespace fresque
