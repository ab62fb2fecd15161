// Regression tests for the graceful drain-and-complete protocol:
// Shutdown() must publish the open interval (zero record loss),
// WaitForPublication() must bound publication latency, the drained
// publication must survive a cloud restart once completed (completion
// implies durability), and the checking node must survive a lost template
// without wedging a publication or leaking its buffers.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>

#include "client/client.h"
#include "cloud/server.h"
#include "crypto/key_manager.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "engine/cloud_node.h"
#include "engine/collector_nodes.h"
#include "engine/fresque_collector.h"
#include "index/index.h"
#include "record/dataset.h"

namespace fresque {
namespace {

using std::chrono::milliseconds;

struct Rig {
  record::DatasetSpec spec;
  cloud::CloudServer server;
  engine::CloudNode cloud_node;
  crypto::KeyManager keys;

  Rig()
      : spec(std::move(record::GowallaDataset()).ValueOrDie()),
        server(MakeBinning(spec)),
        cloud_node(&server),
        keys(Bytes(32, 0x5D)) {}

  /// Pairs the cloud node with `collector`'s publications, then starts it.
  void StartCloudFor(const engine::FresqueCollector& collector) {
    cloud_node.ReportPublicationsTo(collector.publications());
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
    c.seed = 777;
    return c;
  }
};

TEST(DrainShutdownTest, OpenIntervalSurvivesShutdownWithZeroLoss) {
  Rig rig;
  engine::FresqueCollector collector(rig.Config(3), rig.keys,
                                     rig.cloud_node.inbox());
  rig.StartCloudFor(collector);
  ASSERT_TRUE(collector.Start().ok());

  auto gen = record::MakeGenerator(rig.spec, 4242);
  ASSERT_TRUE(gen.ok());
  constexpr uint64_t kRecords = 1000;
  for (uint64_t i = 0; i < kRecords; ++i) {
    collector.SetIntervalProgress(static_cast<double>(i) / kRecords);
    ASSERT_TRUE(collector.Ingest((*gen)->NextLine()).ok());
  }

  // No explicit Publish(): Shutdown() must drain the open interval.
  ASSERT_TRUE(collector.Shutdown().ok());
  Status acked = collector.WaitForPublication(0, milliseconds(15000));
  EXPECT_TRUE(acked.ok()) << acked.ToString();
  rig.cloud_node.Shutdown();

  ASSERT_TRUE(rig.cloud_node.first_error().ok())
      << rig.cloud_node.first_error().ToString();
  auto stats = rig.cloud_node.matching_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].pn, 0u);

  // Every ingested record made it out of the collector...
  engine::PublishReport report{};
  for (const auto& r : collector.Reports()) {
    if (r.pn == 0) report = r;
  }
  EXPECT_EQ(report.real_records, kRecords);
  EXPECT_GT(report.dummy_records, 0u);  // padded dummies flushed too

  // ...and conservation holds at the cloud: streamed = reals forwarded
  // (reals minus removed) plus dummies. Nothing died in the randomer.
  EXPECT_EQ(rig.server.total_records(),
            report.real_records - report.removed_records +
                report.dummy_records);

  auto metrics = collector.Metrics();
  EXPECT_EQ(metrics.TotalDrops(), 0u);
  EXPECT_EQ(metrics.publications_completed, 1u);
  EXPECT_EQ(metrics.publications_failed, 0u);
}

TEST(DrainShutdownTest, UntouchedOpenIntervalIsNotPublished) {
  Rig rig;
  engine::FresqueCollector collector(rig.Config(), rig.keys,
                                     rig.cloud_node.inbox());
  rig.StartCloudFor(collector);
  ASSERT_TRUE(collector.Start().ok());
  // Nothing ingested: drain has nothing to save, so no publication (and
  // no privacy budget burned on a noise-only index nobody asked for).
  ASSERT_TRUE(collector.Shutdown().ok());
  Status acked = collector.WaitForPublication(0, milliseconds(200));
  EXPECT_TRUE(acked.IsDeadlineExceeded()) << acked.ToString();
  rig.cloud_node.Shutdown();
  EXPECT_TRUE(rig.cloud_node.matching_stats().empty());
}

TEST(DrainShutdownTest, ExplicitPublishAndDrainedIntervalBothAck) {
  Rig rig;
  engine::FresqueCollector collector(rig.Config(), rig.keys,
                                     rig.cloud_node.inbox());
  rig.StartCloudFor(collector);
  ASSERT_TRUE(collector.Start().ok());

  auto gen = record::MakeGenerator(rig.spec, 11);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(collector.Ingest((*gen)->NextLine()).ok());
  }
  ASSERT_TRUE(collector.Publish().ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(collector.Ingest((*gen)->NextLine()).ok());
  }
  ASSERT_TRUE(collector.Shutdown().ok());

  EXPECT_TRUE(collector.WaitForPublication(0, milliseconds(15000)).ok());
  EXPECT_TRUE(collector.WaitForPublication(1, milliseconds(15000)).ok());
  rig.cloud_node.Shutdown();

  ASSERT_TRUE(rig.cloud_node.first_error().ok());
  EXPECT_EQ(rig.cloud_node.matching_stats().size(), 2u);
  auto metrics = collector.Metrics();
  EXPECT_EQ(metrics.publications_completed, 2u);
  // All pipeline threads have wound down; their counters add up.
  for (const auto& n : metrics.nodes) {
    EXPECT_FALSE(n.running) << n.name;
    EXPECT_GT(n.frames_processed, 0u) << n.name;
  }
}

TEST(DrainShutdownTest, DrainedIntervalSurvivesCloudRestart) {
  // The drain path with durability attached: the publication created by
  // Shutdown() (never explicitly Publish()ed) completes only after its WAL
  // install committed, so stopping the cloud and recovering from disk
  // must reproduce it — same conservation totals, same query answers.
  std::string dir = std::string(::testing::TempDir()) + "/drain_restart";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  auto spec = record::GowallaDataset();
  ASSERT_TRUE(spec.ok());
  auto binning = index::DomainBinning::Create(spec->domain_min,
                                              spec->domain_max,
                                              spec->bin_width);
  cloud::CloudServer server(std::move(binning).ValueOrDie());
  engine::CloudNode cloud_node(&server);

  durability::WalOptions wopts;
  wopts.dir = dir;
  wopts.fsync_policy = durability::FsyncPolicy::kNever;  // speed; the test
  // models a clean stop, not a power cut — crash cuts live in
  // crash_recovery_test.cc.
  auto wal = durability::Wal::Open(std::move(wopts));
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_TRUE(cloud_node.AttachDurability(wal->get()).ok());

  crypto::KeyManager keys(Bytes(32, 0x5D));
  engine::CollectorConfig cfg;
  cfg.dataset = *spec;
  cfg.num_computing_nodes = 3;
  cfg.seed = 777;
  engine::FresqueCollector collector(cfg, keys, cloud_node.inbox());
  cloud_node.ReportPublicationsTo(collector.publications());
  cloud_node.Start();
  ASSERT_TRUE(collector.Start().ok());

  auto gen = record::MakeGenerator(*spec, 4242);
  ASSERT_TRUE(gen.ok());
  constexpr uint64_t kRecords = 600;
  for (uint64_t i = 0; i < kRecords; ++i) {
    collector.SetIntervalProgress(static_cast<double>(i) / kRecords);
    ASSERT_TRUE(collector.Ingest((*gen)->NextLine()).ok());
  }
  // No explicit Publish(): only the drain produces publication 0.
  ASSERT_TRUE(collector.Shutdown().ok());
  ASSERT_TRUE(collector.WaitForPublication(0, milliseconds(15000)).ok());
  cloud_node.Shutdown();
  ASSERT_TRUE(cloud_node.first_error().ok())
      << cloud_node.first_error().ToString();

  engine::PublishReport report{};
  for (const auto& r : collector.Reports()) {
    if (r.pn == 0) report = r;
  }
  EXPECT_EQ(report.real_records, kRecords);

  // "Restart": rebuild the cloud purely from the durability directory.
  auto recovered = durability::RecoveryManager::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->stats.installs_replayed, 1u);
  ASSERT_EQ(recovered->server->num_publications(), 1u);

  // Conservation survives the restart: the recovered store holds exactly
  // what the collector streamed (reals minus removed, plus dummies).
  EXPECT_EQ(recovered->server->total_records(),
            report.real_records - report.removed_records +
                report.dummy_records);
  EXPECT_EQ(recovered->server->total_records(), server.total_records());
  EXPECT_EQ(recovered->server->total_bytes(), server.total_bytes());

  // Re-query after the restart: several sub-ranges answer identically to
  // the pre-restart server, and the integrity evidence still verifies.
  client::Client client(keys, &spec->parser->schema());
  const double lo = spec->domain_min;
  const double hi = spec->domain_max;
  const double span = hi - lo;
  const index::RangeQuery queries[] = {
      {lo, hi},
      {lo, lo + span / 3},
      {lo + span / 4, lo + span / 2},
      {hi - span / 5, hi},
  };
  for (const auto& q : queries) {
    auto before = client.Query(server, q);
    auto after = client.Query(*recovered->server, q);
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(before->size(), after->size()) << "[" << q.lo << ", " << q.hi << "]";
  }
  EXPECT_TRUE(client.VerifyPublication(*recovered->server, 0).ok());
  std::filesystem::remove_all(dir);
}

TEST(DrainShutdownTest, WaitForPublicationTimesOutOnUnknownPn) {
  Rig rig;
  engine::FresqueCollector collector(rig.Config(), rig.keys,
                                     rig.cloud_node.inbox());
  rig.cloud_node.Start();
  EXPECT_TRUE(collector.WaitForPublication(5).IsFailedPrecondition());
  ASSERT_TRUE(collector.Start().ok());
  Status st = collector.WaitForPublication(5, milliseconds(50));
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  ASSERT_TRUE(collector.Shutdown().ok());
  rig.cloud_node.inbox()->Push([] {
    net::Message m;
    m.type = net::MessageType::kShutdown;
    return m;
  }());
  rig.cloud_node.Shutdown();
}

// --- Checking-node barrier hardening, driven directly through its inbox.

net::Message TaggedRecord(uint64_t pn) {
  net::Message m;
  m.type = net::MessageType::kTaggedRecord;
  m.pn = pn;
  m.leaf = 0;
  return m;
}

net::Message Barrier(net::MessageType type, uint64_t pn) {
  net::Message m;
  m.type = type;
  m.pn = pn;
  return m;
}

TEST(CheckingNodeTest, LostTemplateCompletesBarrierAndEvictsPending) {
  engine::CollectorConfig cfg;
  cfg.num_computing_nodes = 2;
  cfg.max_pending_per_publication = 8;  // small cap to exercise the bound
  auto merger = net::MakeMailbox(64);
  auto cloud = net::MakeMailbox(64);
  engine::PublicationTracker publications;
  engine::internal::CheckingNodeImpl node(cfg, /*randomer_buffer=*/16, merger,
                                          cloud, &publications);
  node.Start();

  // 13 records for a publication whose template never arrives: 8 buffer,
  // 5 hit the kMaxPending bound and drop immediately.
  for (int i = 0; i < 13; ++i) node.inbox()->Push(TaggedRecord(0));
  // The publish barrier completes despite the missing interval state...
  for (int i = 0; i < 2; ++i) {
    node.inbox()->Push(Barrier(net::MessageType::kPublish, 0));
  }
  for (int i = 0; i < 2; ++i) {
    node.inbox()->Push(Barrier(net::MessageType::kShutdown, 0));
  }
  node.Join();

  // ...dropping the buffered records (counted, not leaked) and completing
  // the publication as failed so no WaitForPublication() wedges on it.
  EXPECT_EQ(node.pending_dropped(), 13u);
  EXPECT_EQ(node.publications_failed(), 1u);
  EXPECT_EQ(node.publications_flushed(), 0u);

  Status outcome = publications.Wait(0, milliseconds(0));
  EXPECT_FALSE(outcome.ok());
  EXPECT_FALSE(outcome.IsDeadlineExceeded()) << outcome.ToString();
  EXPECT_FALSE(outcome.message().empty());
  EXPECT_EQ(publications.completed_failed(), 1u);

  // The merger saw only the forwarded shutdown — no AL snapshot for a
  // publication that never existed.
  auto fwd = merger->TryPop();
  ASSERT_TRUE(fwd.has_value());
  EXPECT_EQ(fwd->type, net::MessageType::kShutdown);
  EXPECT_FALSE(merger->TryPop().has_value());
  EXPECT_FALSE(cloud->TryPop().has_value());
}

TEST(CheckingNodeTest, LaterBarrierEvictsEarlierOrphanedPending) {
  engine::CollectorConfig cfg;
  cfg.num_computing_nodes = 1;
  auto merger = net::MakeMailbox(64);
  auto cloud = net::MakeMailbox(64);
  engine::PublicationTracker publications;
  engine::internal::CheckingNodeImpl node(cfg, /*randomer_buffer=*/16, merger,
                                          cloud, &publications);
  node.Start();

  // Records of publication 3 whose template is lost; the barrier of the
  // later publication 7 proves template 3 can never arrive anymore.
  for (int i = 0; i < 4; ++i) node.inbox()->Push(TaggedRecord(3));
  node.inbox()->Push(Barrier(net::MessageType::kPublish, 7));
  node.inbox()->Push(Barrier(net::MessageType::kShutdown, 0));
  node.Join();

  EXPECT_EQ(node.pending_dropped(), 4u);
  // Publication 7 is completed as failed (no state); 3 never completed a
  // barrier, so its loss surfaces through the metric alone.
  EXPECT_EQ(node.publications_failed(), 1u);
  Status outcome = publications.Wait(7, milliseconds(0));
  EXPECT_FALSE(outcome.ok());
  EXPECT_FALSE(outcome.IsDeadlineExceeded()) << outcome.ToString();
  EXPECT_EQ(publications.completed_failed(), 1u);
}

}  // namespace
}  // namespace fresque
