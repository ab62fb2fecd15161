// Overload control: config validation and admission shedding at the
// ingest boundary — including a sustained way-over-capacity run that must
// shed instead of stall and still balance the conservation ledger over
// admitted records.

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "cloud/server.h"
#include "crypto/key_manager.h"
#include "engine/cloud_node.h"
#include "engine/config.h"
#include "engine/fresque_collector.h"
#include "net/message.h"
#include "record/dataset.h"

namespace fresque {
namespace {

// ---------------------------------------------------------------------------
// Config validation

engine::CollectorConfig ValidConfig() {
  auto spec = record::GowallaDataset();
  engine::CollectorConfig cfg;
  cfg.dataset = *spec;
  cfg.num_computing_nodes = 2;
  return cfg;
}

TEST(ConfigValidationTest, DefaultsAreValid) {
  EXPECT_TRUE(ValidConfig().Validate().ok());
}

TEST(ConfigValidationTest, RejectsZeroCapacityMailbox) {
  auto cfg = ValidConfig();
  cfg.mailbox_capacity = 0;
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());
}

TEST(ConfigValidationTest, RejectsZeroComputingNodes) {
  auto cfg = ValidConfig();
  cfg.num_computing_nodes = 0;
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());
}

TEST(ConfigValidationTest, RejectsBadAdmissionWatermarks) {
  auto cfg = ValidConfig();
  cfg.admission.enabled = true;
  EXPECT_TRUE(cfg.Validate().ok());  // defaults are sane
  cfg.admission.shed_low_watermark = 0.9;
  cfg.admission.shed_high_watermark = 0.5;  // low must shed first
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());
  cfg.admission.shed_low_watermark = 0;
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());
  cfg.admission.shed_low_watermark = 0.5;
  cfg.admission.shed_high_watermark = 1.5;
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());
  cfg.admission.shed_high_watermark = 0.9;
  cfg.admission.rate_records_per_sec = -1;
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());
  cfg.admission.rate_records_per_sec = 100;
  cfg.admission.burst_records = 0;
  EXPECT_TRUE(cfg.Validate().IsInvalidArgument());
}

TEST(ConfigValidationTest, StartSurfacesValidationError) {
  auto cfg = ValidConfig();
  cfg.mailbox_capacity = 0;
  crypto::KeyManager keys(Bytes(32, 0x01));
  engine::FresqueCollector collector(cfg, keys, net::MakeMailbox(16));
  Status st = collector.Start();
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("mailbox_capacity"), std::string::npos);
}

TEST(ConfigValidationTest, RejectsAlphaBelowTwo) {
  // A randomer smaller than 2T cannot hide the dummies (paper §5.2); such
  // a config must fail at startup, not run with a token buffer.
  auto cfg = ValidConfig();
  cfg.alpha = 2.0;
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.alpha = 1.5;
  Status st = cfg.Validate();
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("alpha"), std::string::npos);
  EXPECT_NE(st.message().find("§5.2"), std::string::npos);
  EXPECT_FALSE(engine::RandomerBufferSize(cfg).ok());

  crypto::KeyManager keys(Bytes(32, 0x01));
  engine::FresqueCollector collector(cfg, keys, net::MakeMailbox(16));
  EXPECT_TRUE(collector.Start().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Admission control

TEST(AdmissionTest, TokenBucketShedsAndSurfacesOverloaded) {
  auto spec = record::GowallaDataset();
  ASSERT_TRUE(spec.ok());
  auto binning = index::DomainBinning::Create(
      spec->domain_min, spec->domain_max, spec->bin_width);
  cloud::CloudServer server(std::move(binning).ValueOrDie());
  engine::CloudNode cloud_node(&server);
  cloud_node.Start();
  crypto::KeyManager keys(Bytes(32, 0x21));
  auto cfg = ValidConfig();
  cfg.admission.enabled = true;
  cfg.admission.rate_records_per_sec = 100;  // far below the loop's rate
  cfg.admission.burst_records = 8;
  engine::FresqueCollector collector(cfg, keys, cloud_node.inbox());
  ASSERT_TRUE(collector.Start().ok());

  auto gen = record::MakeGenerator(*spec, 7);
  uint64_t overloaded = 0;
  for (int i = 0; i < 1000; ++i) {
    Status st = collector.Ingest((*gen)->NextLine());
    if (!st.ok()) {
      ASSERT_TRUE(st.IsOverloaded()) << st.ToString();
      ++overloaded;
    }
  }
  // A tight 1000-iteration loop offers far more than 100 rec/s: the
  // bucket must have run dry.
  EXPECT_GT(overloaded, 0u);
  EXPECT_EQ(collector.shed_records(), overloaded);
  EXPECT_EQ(collector.shed_records(engine::IngestPriority::kNormal),
            overloaded);
  auto metrics = collector.Metrics();
  EXPECT_EQ(metrics.shed_records, overloaded);
  EXPECT_EQ(metrics.shed_normal, overloaded);
  // Sheds are not drops: nothing entered the pipeline and was lost.
  EXPECT_EQ(metrics.TotalDrops(), 0u);

  EXPECT_TRUE(collector.Shutdown().ok());
  cloud_node.Shutdown();
}

TEST(AdmissionTest, HighPriorityOverdrawsTheBucket) {
  auto spec = record::GowallaDataset();
  ASSERT_TRUE(spec.ok());
  auto binning = index::DomainBinning::Create(
      spec->domain_min, spec->domain_max, spec->bin_width);
  cloud::CloudServer server(std::move(binning).ValueOrDie());
  engine::CloudNode cloud_node(&server);
  cloud_node.Start();
  crypto::KeyManager keys(Bytes(32, 0x22));
  auto cfg = ValidConfig();
  cfg.admission.enabled = true;
  cfg.admission.rate_records_per_sec = 10;
  cfg.admission.burst_records = 1;
  engine::FresqueCollector collector(cfg, keys, cloud_node.inbox());
  ASSERT_TRUE(collector.Start().ok());

  auto gen = record::MakeGenerator(*spec, 8);
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(collector
                    .Ingest((*gen)->NextLine(),
                            engine::IngestPriority::kHigh)
                    .ok());
  }
  EXPECT_EQ(collector.shed_records(), 0u);
  EXPECT_TRUE(collector.Shutdown().ok());
  cloud_node.Shutdown();
}

TEST(AdmissionTest, DisabledAdmissionNeverSheds) {
  auto spec = record::GowallaDataset();
  ASSERT_TRUE(spec.ok());
  auto binning = index::DomainBinning::Create(
      spec->domain_min, spec->domain_max, spec->bin_width);
  cloud::CloudServer server(std::move(binning).ValueOrDie());
  engine::CloudNode cloud_node(&server);
  cloud_node.Start();
  crypto::KeyManager keys(Bytes(32, 0x23));
  auto cfg = ValidConfig();  // admission.enabled defaults to false
  engine::FresqueCollector collector(cfg, keys, cloud_node.inbox());
  ASSERT_TRUE(collector.Start().ok());
  auto gen = record::MakeGenerator(*spec, 9);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(collector.Ingest((*gen)->NextLine()).ok());
  }
  EXPECT_EQ(collector.shed_records(), 0u);
  EXPECT_TRUE(collector.Shutdown().ok());
  cloud_node.Shutdown();
}

// ---------------------------------------------------------------------------
// Sustained overload end-to-end

TEST(OverloadPipelineTest, SheddingKeepsPipelineLiveAndLedgerBalanced) {
  auto spec = record::GowallaDataset();
  ASSERT_TRUE(spec.ok());
  auto binning = index::DomainBinning::Create(
      spec->domain_min, spec->domain_max, spec->bin_width);
  cloud::CloudServer server(std::move(binning).ValueOrDie());
  cloud::CloudServer* srv = &server;
  engine::CloudNode cloud_node(srv);

  crypto::KeyManager keys(Bytes(32, 0x24));
  auto cfg = ValidConfig();
  cfg.num_computing_nodes = 2;
  // A closed tight loop offers effectively unbounded rate — far beyond
  // 120% of capacity. The bucket caps the admitted rate well below the
  // loop rate, and the watermarks back it up if queues still build.
  cfg.admission.enabled = true;
  cfg.admission.rate_records_per_sec = 20000;
  cfg.admission.burst_records = 256;
  cfg.admission.shed_high_watermark = 0.8;
  cfg.admission.shed_low_watermark = 0.4;
  engine::FresqueCollector collector(cfg, keys, cloud_node.inbox());
  cloud_node.ReportPublicationsTo(collector.publications());
  cloud_node.Start();
  ASSERT_TRUE(collector.Start().ok());

  auto gen = record::MakeGenerator(*spec, 10);
  constexpr uint64_t kOffered = 30000;
  uint64_t admitted = 0;
  for (uint64_t i = 0; i < kOffered; ++i) {
    collector.SetIntervalProgress(static_cast<double>(i) / kOffered);
    Status st = collector.Ingest((*gen)->NextLine());
    if (st.ok()) {
      ++admitted;
    } else {
      ASSERT_TRUE(st.IsOverloaded()) << st.ToString();
    }
  }
  EXPECT_GT(collector.shed_records(), 0u);
  EXPECT_EQ(admitted + collector.shed_records(), kOffered);

  ASSERT_TRUE(collector.Publish().ok());
  // Publishes on time despite the overload: the admitted stream is
  // within capacity, so the publication completes well inside the
  // timeout.
  EXPECT_TRUE(
      collector.WaitForPublication(0, std::chrono::milliseconds(20000)).ok());
  ASSERT_TRUE(collector.Shutdown().ok());
  cloud_node.Shutdown();
  ASSERT_TRUE(cloud_node.first_error().ok());

  // Conservation over *admitted* records: every admitted record is
  // either stored at the cloud or removed into an overflow array;
  // dummies add on top. Shed records appear nowhere downstream.
  engine::PublishReport report{};
  for (const auto& r : collector.Reports()) {
    if (r.pn == 0) report = r;
  }
  EXPECT_EQ(report.real_records, admitted);
  // Shedding must not lose an admitted record to a parse, codec or
  // pending-template drop. overflow_drops is left out on purpose: it
  // counts removed records that did not fit their leaf's overflow array,
  // whose size is the δ-probability bound on negative noise. That is a
  // DP outcome, not something shedding can cause, and the ledger below
  // already counts those records as removed.
  const auto metrics = collector.Metrics();
  EXPECT_EQ(metrics.parse_errors, 0u);
  EXPECT_EQ(metrics.codec_failures, 0u);
  EXPECT_EQ(metrics.pending_dropped, 0u);
  EXPECT_EQ(srv->total_records(),
            report.real_records - report.removed_records +
                report.dummy_records);
}

}  // namespace
}  // namespace fresque
