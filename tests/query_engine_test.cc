// Unit coverage for the query engine (src/query, DESIGN.md §15):
// view manager, scan, and the CloudServer integration
// (snapshot-consistent ExecuteQuery, deadlines, view rebuild after
// SaveSnapshot/LoadSnapshot, the PINED-RQ++ join).

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <vector>

#include "cloud/server.h"
#include "index/matching.h"
#include "net/payloads.h"
#include "payload_util.h"
#include "query/context.h"
#include "query/scan.h"
#include "query/view.h"

namespace fresque {
namespace query {
namespace {

// -------------------------------------------------------------- ViewManager

std::shared_ptr<const InstalledPublication> MakeInstalled(
    uint64_t pn, const index::DomainBinning& binning) {
  auto layout = index::IndexLayout::Create(binning.num_bins(), 4);
  auto idx = index::HistogramIndex::FromLeafCounts(
      std::move(layout).ValueOrDie(), binning,
      std::vector<int64_t>(binning.num_bins(), 1));
  return std::make_shared<const InstalledPublication>(
      pn, cloud::SegmentStorage(), std::move(idx).ValueOrDie(),
      index::OverflowArrays(binning.num_bins(), 1),
      std::vector<std::vector<cloud::PhysicalAddress>>(binning.num_bins()),
      nullptr);
}

TEST(ViewManagerTest, InstallAdvancesEpochAndKeepsOldViewsImmutable) {
  auto binning =
      std::move(index::DomainBinning::Create(0, 10, 1)).ValueOrDie();
  ViewManager views;
  auto v0 = views.Current();
  EXPECT_EQ(v0->epoch(), 0u);
  EXPECT_EQ(v0->num_publications(), 0u);

  EXPECT_EQ(views.Install(MakeInstalled(5, binning)), 1u);
  auto v1 = views.Current();
  EXPECT_EQ(v1->num_publications(), 1u);
  // The previously pinned view is untouched.
  EXPECT_EQ(v0->num_publications(), 0u);

  EXPECT_EQ(views.Install(MakeInstalled(2, binning)), 2u);
  auto v2 = views.Current();
  ASSERT_EQ(v2->num_publications(), 2u);
  // Sorted by pn.
  EXPECT_EQ(v2->publications()[0]->pn, 2u);
  EXPECT_EQ(v2->publications()[1]->pn, 5u);
  EXPECT_NE(v2->Find(5), nullptr);
  EXPECT_EQ(v2->Find(7), nullptr);
}

TEST(ViewManagerTest, ReinstallReplacesAndPinnedViewKeepsTheOld) {
  auto binning =
      std::move(index::DomainBinning::Create(0, 10, 1)).ValueOrDie();
  ViewManager views;
  (void)views.Install(MakeInstalled(1, binning));
  auto pinned = views.Current();
  auto old = pinned->Find(1);
  (void)views.Install(MakeInstalled(1, binning));  // replace, not append
  EXPECT_EQ(views.Current()->num_publications(), 1u);
  EXPECT_NE(views.Current()->Find(1), old);
  // A pinned older view keeps serving the replaced publication.
  EXPECT_EQ(pinned->Find(1), old);
}

TEST(ViewManagerTest, ReplacedPublicationFreedOnlyWhenLastPinDrops) {
  auto binning =
      std::move(index::DomainBinning::Create(0, 10, 1)).ValueOrDie();
  ViewManager views;
  (void)views.Install(MakeInstalled(3, binning));
  auto pinned = views.Current();
  std::weak_ptr<const InstalledPublication> weak = pinned->Find(3);
  ASSERT_FALSE(weak.expired());
  (void)views.Install(MakeInstalled(3, binning));
  EXPECT_FALSE(weak.expired());  // pinned view still references it
  pinned.reset();
  EXPECT_TRUE(weak.expired());  // last reference gone => GC'd
}

// ------------------------------------------- CloudServer + query engine

index::DomainBinning TinyBinning() {
  return std::move(index::DomainBinning::Create(0, 10, 1)).ValueOrDie();
}

TEST(CloudServerViewTest, InstallPublishesViewEpochs) {
  cloud::CloudServer server(TinyBinning());
  EXPECT_EQ(server.view_epoch(), 0u);
  EXPECT_EQ(server.CurrentView()->num_publications(), 0u);

  ASSERT_TRUE(server.StartPublication(0).ok());
  (void)server.IngestRecord(0, 2, Bytes{1});
  EXPECT_EQ(server.view_epoch(), 0u);  // open pub: not in the view yet

  std::vector<int64_t> counts(10, 0);
  counts[2] = 1;
  ASSERT_TRUE(
      server.PublishIndexed(0, MakePublication(server.binning(), counts))
          .ok());
  EXPECT_EQ(server.view_epoch(), 1u);
  auto view = server.CurrentView();
  ASSERT_EQ(view->num_publications(), 1u);
  EXPECT_EQ(view->publications()[0]->pn, 0u);
  EXPECT_EQ(view->publications()[0]->storage.num_records(), 1u);
}

TEST(CloudServerViewTest, PinnedViewIsolatedFromLaterInstalls) {
  cloud::CloudServer server(TinyBinning());
  std::vector<int64_t> counts(10, 0);
  counts[5] = 1;
  ASSERT_TRUE(server.StartPublication(0).ok());
  (void)server.IngestRecord(0, 5, Bytes{0xA});
  ASSERT_TRUE(
      server.PublishIndexed(0, MakePublication(server.binning(), counts))
          .ok());

  auto pinned = server.CurrentView();

  ASSERT_TRUE(server.StartPublication(1).ok());
  (void)server.IngestRecord(1, 5, Bytes{0xB});
  ASSERT_TRUE(
      server.PublishIndexed(1, MakePublication(server.binning(), counts))
          .ok());

  // The pinned snapshot still sees exactly one publication; a fresh scan
  // of it returns only pn 0's record.
  EXPECT_EQ(pinned->num_publications(), 1u);
  QueryResult out;
  ASSERT_TRUE(ScanView(*pinned, {5.0, 5.9}, QueryContext{}, &out).ok());
  ASSERT_EQ(out.indexed_records.size(), 1u);
  EXPECT_EQ(out.indexed_records[0].pn, 0u);
  // The current view sees both.
  EXPECT_EQ(server.CurrentView()->num_publications(), 2u);
}

// A deadline that does not fire leaves the answer as an unbounded query
// gives it.
TEST(CloudServerViewTest, UnexpiredDeadlineQueryMatchesUnboundedQuery) {
  cloud::CloudServer server(TinyBinning());
  std::vector<int64_t> counts(10, 0);
  counts[3] = 2;
  counts[7] = 1;
  ASSERT_TRUE(server.StartPublication(0).ok());
  (void)server.IngestRecord(0, 3, Bytes{1});
  (void)server.IngestRecord(0, 3, Bytes{2});
  (void)server.IngestRecord(0, 7, Bytes{3});
  ASSERT_TRUE(
      server.PublishIndexed(0, MakePublication(server.binning(), counts))
          .ok());
  // Leave a second publication open so the unindexed path is exercised.
  ASSERT_TRUE(server.StartPublication(1).ok());
  (void)server.IngestRecord(1, 3, Bytes{9});

  QueryContext far;
  far.deadline_ns = std::numeric_limits<int64_t>::max();
  auto unbounded = server.ExecuteQuery({3.0, 3.9});
  auto bounded = server.ExecuteQuery({3.0, 3.9}, far);
  ASSERT_TRUE(unbounded.ok());
  ASSERT_TRUE(bounded.ok());
  EXPECT_EQ(unbounded->indexed_records.size(),
            bounded->indexed_records.size());
  EXPECT_EQ(unbounded->unindexed_records.size(),
            bounded->unindexed_records.size());
  EXPECT_EQ(unbounded->indexed_records.size(), 2u);
  EXPECT_EQ(unbounded->unindexed_records.size(), 1u);
}

TEST(CloudServerViewTest, ExpiredDeadlineSurfacesFromScan) {
  cloud::CloudServer server(TinyBinning());
  std::vector<int64_t> counts(10, 1);
  ASSERT_TRUE(server.StartPublication(0).ok());
  for (uint32_t leaf = 0; leaf < 10; ++leaf) {
    (void)server.IngestRecord(0, leaf, Bytes{static_cast<uint8_t>(leaf)});
  }
  ASSERT_TRUE(
      server.PublishIndexed(0, MakePublication(server.binning(), counts))
          .ok());
  QueryContext ctx;
  ctx.deadline_ns = 1;  // epoch + 1ns: expired long ago
  auto r = server.ExecuteQuery({0.0, 9.9}, ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(CloudServerViewTest, SnapshotRoundTripRebuildsView) {
  std::string path = ::testing::TempDir() + "/query_view_snapshot.bin";
  {
    cloud::CloudServer server(TinyBinning());
    std::vector<int64_t> counts(10, 0);
    counts[4] = 2;
    ASSERT_TRUE(server.StartPublication(0).ok());
    (void)server.IngestRecord(0, 4, Bytes{0x1});
    (void)server.IngestRecord(0, 4, Bytes{0x2});
    ASSERT_TRUE(
        server.PublishIndexed(0, MakePublication(server.binning(), counts))
            .ok());
    ASSERT_TRUE(server.StartPublication(1).ok());  // open at save time
    (void)server.IngestRecord(1, 4, Bytes{0x3});
    ASSERT_TRUE(server.SaveSnapshot(path).ok());
  }
  auto restored = cloud::CloudServer::LoadSnapshot(path);
  ASSERT_TRUE(restored.ok());
  // The installed publication is back in the view; the open one is not.
  EXPECT_EQ((*restored)->CurrentView()->num_publications(), 1u);
  EXPECT_GE((*restored)->view_epoch(), 1u);
  auto r = (*restored)->ExecuteQuery({4.0, 4.9}, QueryContext{});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->indexed_records.size(), 2u);
  EXPECT_EQ(r->unindexed_records.size(), 1u);
  EXPECT_EQ((*restored)->total_records(), 3u);
  std::remove(path.c_str());
}

// A streamed tag with no table entry joins to nothing: its record stays
// stored but unreachable.
TEST(CloudServerViewTest, AbsentTagsJoinToNothing) {
  cloud::CloudServer server(TinyBinning());
  ASSERT_TRUE(server.StartPublication(0).ok());
  index::MatchingTable table;
  for (uint64_t t = 0; t < 512; ++t) {
    ASSERT_TRUE(table.Add(t, static_cast<uint32_t>(t % 10)).ok());
  }
  // Half the streamed tags have table entries, half do not.
  for (uint64_t t = 0; t < 64; ++t) {
    (void)server.IngestTagged(0, t, Bytes{static_cast<uint8_t>(t)});
    (void)server.IngestTagged(0, 1u << 20 | t, Bytes{0xFF});
  }
  std::vector<int64_t> counts(10, 7);
  auto stats = server.PublishWithMatchingTable(
      0, MakePublication(server.binning(), counts), table);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records_matched, 64u);
}

}  // namespace
}  // namespace query
}  // namespace fresque
