// Unit coverage for the concurrent query engine (src/query, DESIGN.md
// §15): tag filter, leaf-descriptor cache, view manager, executor, and
// the CloudServer integration (snapshot-consistent ExecuteQuery, view
// rebuild after SaveSnapshot/LoadSnapshot).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <set>
#include <thread>
#include <vector>

#include "cloud/server.h"
#include "index/matching.h"
#include "net/payloads.h"
#include "query/context.h"
#include "query/executor.h"
#include "query/leaf_cache.h"
#include "query/scan.h"
#include "query/tag_filter.h"
#include "query/view.h"

namespace fresque {
namespace query {
namespace {

// ---------------------------------------------------------------- TagFilter

TEST(TagFilterTest, EmptyFilterNeverExcludes) {
  TagFilter f;
  EXPECT_TRUE(f.empty());
  EXPECT_TRUE(f.MayContain(0));
  EXPECT_TRUE(f.MayContain(0xdeadbeef));
}

TEST(TagFilterTest, NoFalseNegatives) {
  index::MatchingTable table;
  for (uint64_t t = 0; t < 5000; ++t) {
    ASSERT_TRUE(table.Add(t * 0x9e3779b97f4a7c15ULL + 7, t % 64).ok());
  }
  TagFilter f = TagFilter::Build(table);
  EXPECT_EQ(f.keys(), table.size());
  for (const auto& [tag, leaf] : table.entries()) {
    (void)leaf;
    EXPECT_TRUE(f.MayContain(tag)) << "false negative for tag " << tag;
  }
}

TEST(TagFilterTest, FalsePositiveRateIsBounded) {
  index::MatchingTable table;
  for (uint64_t t = 0; t < 10000; ++t) {
    ASSERT_TRUE(table.Add(t, 0).ok());
  }
  TagFilter f = TagFilter::Build(table);
  size_t fp = 0;
  const size_t probes = 20000;
  for (size_t i = 0; i < probes; ++i) {
    uint64_t absent = 1000000 + i;  // disjoint from inserted range
    if (f.MayContain(absent)) ++fp;
  }
  // ~12 bits/key with 4 probe bits in one word: a few percent FP. The
  // bound is loose on purpose — this guards against a broken hash, not a
  // drifting constant.
  EXPECT_LT(static_cast<double>(fp) / probes, 0.15);
}

// ---------------------------------------------------------------- LeafCache

TEST(LeafCacheTest, HitMissAndEvictionAccounting) {
  LeafCache cache(2);
  auto build = [](double lo) {
    return [lo] {
      LeafDescriptor d;
      d.lo = lo;
      return d;
    };
  };
  EXPECT_EQ(cache.GetOrBuild(1, 0, build(10)).lo, 10);  // miss
  EXPECT_EQ(cache.GetOrBuild(1, 0, build(99)).lo, 10);  // hit: cached value
  EXPECT_EQ(cache.GetOrBuild(1, 1, build(20)).lo, 20);  // miss, cache full
  EXPECT_EQ(cache.GetOrBuild(1, 2, build(30)).lo, 30);  // miss, evicts (1,0)
  EXPECT_EQ(cache.GetOrBuild(1, 0, build(55)).lo, 55);  // rebuilt after evict

  auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 4u);
  EXPECT_GE(s.evictions, 2u);
  EXPECT_LE(s.size, 2u);
  EXPECT_EQ(s.capacity, 2u);
  EXPECT_GT(s.HitRatio(), 0.0);
}

TEST(LeafCacheTest, LruKeepsRecentlyTouchedEntries) {
  LeafCache cache(2);
  auto make = [](double lo) {
    return [lo] {
      LeafDescriptor d;
      d.lo = lo;
      return d;
    };
  };
  (void)cache.GetOrBuild(0, 0, make(1));
  (void)cache.GetOrBuild(0, 1, make(2));
  (void)cache.GetOrBuild(0, 0, make(1));   // touch (0,0): now most recent
  (void)cache.GetOrBuild(0, 2, make(3));   // evicts (0,1)
  uint64_t misses_before = cache.stats().misses;
  (void)cache.GetOrBuild(0, 0, make(1));   // still cached
  EXPECT_EQ(cache.stats().misses, misses_before);
}

TEST(LeafCacheTest, InvalidateDropsOnePublication) {
  LeafCache cache(16);
  auto d = [] { return LeafDescriptor{}; };
  (void)cache.GetOrBuild(1, 0, d);
  (void)cache.GetOrBuild(1, 1, d);
  (void)cache.GetOrBuild(2, 0, d);
  cache.Invalidate(1);
  EXPECT_EQ(cache.stats().size, 1u);
  uint64_t misses_before = cache.stats().misses;
  (void)cache.GetOrBuild(2, 0, d);  // survivor still hits
  EXPECT_EQ(cache.stats().misses, misses_before);
}

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
      nullptr, TagFilter());
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

TEST(ViewManagerTest, ReinstallReplacesAndRetireRemoves) {
  auto binning =
      std::move(index::DomainBinning::Create(0, 10, 1)).ValueOrDie();
  ViewManager views;
  (void)views.Install(MakeInstalled(1, binning));
  (void)views.Install(MakeInstalled(1, binning));  // replace, not append
  EXPECT_EQ(views.Current()->num_publications(), 1u);

  auto pinned = views.Current();
  EXPECT_TRUE(views.Retire(1));
  EXPECT_FALSE(views.Retire(1));
  EXPECT_EQ(views.Current()->num_publications(), 0u);
  // A pinned older view keeps serving the retired publication.
  EXPECT_NE(pinned->Find(1), nullptr);
}

TEST(ViewManagerTest, RetiredPublicationFreedOnlyWhenLastPinDrops) {
  auto binning =
      std::move(index::DomainBinning::Create(0, 10, 1)).ValueOrDie();
  ViewManager views;
  (void)views.Install(MakeInstalled(3, binning));
  auto pinned = views.Current();
  std::weak_ptr<const InstalledPublication> weak = pinned->Find(3);
  ASSERT_FALSE(weak.expired());
  (void)views.Retire(3);
  EXPECT_FALSE(weak.expired());  // pinned view still references it
  pinned.reset();
  EXPECT_TRUE(weak.expired());  // last reference gone => GC'd
}

// ------------------------------------------------------------ QueryExecutor

TEST(QueryExecutorTest, ExecutesThroughHandler) {
  QueryExecutor exec(
      [](const index::RangeQuery& q, const QueryContext&) {
        QueryResult r;
        r.indexed_records.push_back(
            {static_cast<uint64_t>(q.lo), Bytes{0x1}});
        return Result<QueryResult>(std::move(r));
      });
  auto r = exec.Execute({4.0, 5.0});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->indexed_records.size(), 1u);
  EXPECT_EQ(r->indexed_records[0].pn, 4u);
  exec.Shutdown();
  auto m = exec.metrics();
  EXPECT_EQ(m.submitted, 1u);
  EXPECT_EQ(m.executed, 1u);
  EXPECT_EQ(m.inflight, 0);
}

TEST(QueryExecutorTest, DeadlineExpiredInQueueNeverRuns) {
  std::atomic<int> runs{0};
  QueryExecutor exec([&](const index::RangeQuery&, const QueryContext&) {
    ++runs;
    return Result<QueryResult>(QueryResult{});
  });
  QueryOptions opts;
  opts.deadline = std::chrono::nanoseconds(1);
  // The deadline is in the past by the time a worker pops the ticket.
  auto r = exec.Execute({0, 1}, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  exec.Shutdown();
  EXPECT_EQ(runs.load(), 0);
  EXPECT_EQ(exec.metrics().deadline_exceeded, 1u);
}

TEST(QueryExecutorTest, DeadlineAbortsMidScan) {
  QueryExecutor exec(
      [](const index::RangeQuery&,
         const QueryContext& ctx) -> Result<QueryResult> {
        // Simulate a long batched scan that honors ctx between batches.
        for (int i = 0; i < 1000; ++i) {
          FRESQUE_RETURN_NOT_OK(ctx.Check());
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return QueryResult{};
      });
  QueryOptions opts;
  opts.deadline = std::chrono::milliseconds(20);
  auto r = exec.Execute({0, 1}, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  exec.Shutdown();
}

TEST(QueryExecutorTest, CancellationAbortsCooperatively) {
  std::atomic<bool> entered{false};
  QueryExecutor exec(
      [&](const index::RangeQuery&,
          const QueryContext& ctx) -> Result<QueryResult> {
        entered = true;
        while (true) {
          FRESQUE_RETURN_NOT_OK(ctx.Check());
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
  auto ticket = exec.Submit({0, 1});
  ASSERT_TRUE(ticket.ok());
  while (!entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  (*ticket)->Cancel();
  auto r = (*ticket)->Wait();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  exec.Shutdown();
  EXPECT_EQ(exec.metrics().cancelled, 1u);
}

TEST(QueryExecutorTest, AdmissionShedsWhenQueueFull) {
  std::atomic<bool> release{false};
  ExecutorOptions opts;
  opts.num_threads = 1;
  opts.queue_capacity = 1;
  QueryExecutor exec(
      [&](const index::RangeQuery&, const QueryContext&) {
        while (!release.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return Result<QueryResult>(QueryResult{});
      },
      opts);

  // Saturate: one running (after the worker pops it), one queued, then
  // submissions must shed. Submit until we observe Overloaded.
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  bool shed = false;
  for (int i = 0; i < 50 && !shed; ++i) {
    auto t = exec.Submit({0, 1});
    if (t.ok()) {
      tickets.push_back(*t);
    } else {
      EXPECT_EQ(t.status().code(), StatusCode::kOverloaded);
      shed = true;
    }
  }
  EXPECT_TRUE(shed);
  EXPECT_GE(exec.metrics().shed, 1u);
  release = true;
  for (auto& t : tickets) (void)t->Wait();
  exec.Shutdown();
}

TEST(QueryExecutorTest, SubmitAfterShutdownFails) {
  QueryExecutor exec([](const index::RangeQuery&, const QueryContext&) {
    return Result<QueryResult>(QueryResult{});
  });
  exec.Shutdown();
  exec.Shutdown();  // idempotent
  auto t = exec.Submit({0, 1});
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kFailedPrecondition);
}

// ------------------------------------------- CloudServer + query engine

index::DomainBinning TinyBinning() {
  return std::move(index::DomainBinning::Create(0, 10, 1)).ValueOrDie();
}

net::IndexPublication MakePublication(const index::DomainBinning& binning,
                                      const std::vector<int64_t>& counts) {
  auto layout = index::IndexLayout::Create(binning.num_bins(), 4);
  auto idx = index::HistogramIndex::FromLeafCounts(
      std::move(layout).ValueOrDie(), binning, counts);
  index::OverflowArrays ovf(binning.num_bins(), 1);
  return net::IndexPublication(std::move(idx).ValueOrDie(), std::move(ovf));
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
  ASSERT_TRUE(
      ScanView(*pinned, {5.0, 5.9}, QueryContext{}, nullptr, &out).ok());
  ASSERT_EQ(out.indexed_records.size(), 1u);
  EXPECT_EQ(out.indexed_records[0].pn, 0u);
  // The current view sees both.
  EXPECT_EQ(server.CurrentView()->num_publications(), 2u);
}

TEST(CloudServerViewTest, ContextualQueryMatchesLegacyQuery) {
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

  auto legacy = server.ExecuteQuery({3.0, 3.9});
  auto ctxful = server.ExecuteQuery({3.0, 3.9}, QueryContext{});
  ASSERT_TRUE(legacy.ok());
  ASSERT_TRUE(ctxful.ok());
  EXPECT_EQ(legacy->indexed_records.size(), ctxful->indexed_records.size());
  EXPECT_EQ(legacy->unindexed_records.size(),
            ctxful->unindexed_records.size());
  EXPECT_EQ(legacy->indexed_records.size(), 2u);
  EXPECT_EQ(legacy->unindexed_records.size(), 1u);
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

TEST(CloudServerViewTest, LeafCacheServesRepeatQueries) {
  cloud::CloudServer server(TinyBinning());
  std::vector<int64_t> counts(10, 1);
  ASSERT_TRUE(server.StartPublication(0).ok());
  for (uint32_t leaf = 0; leaf < 10; ++leaf) {
    (void)server.IngestRecord(0, leaf, Bytes{static_cast<uint8_t>(leaf)});
  }
  ASSERT_TRUE(
      server.PublishIndexed(0, MakePublication(server.binning(), counts))
          .ok());
  ASSERT_TRUE(server.ExecuteQuery({0.0, 9.9}).ok());
  uint64_t misses_after_first = server.leaf_cache().stats().misses;
  EXPECT_GT(misses_after_first, 0u);
  ASSERT_TRUE(server.ExecuteQuery({0.0, 9.9}).ok());
  auto s = server.leaf_cache().stats();
  EXPECT_EQ(s.misses, misses_after_first);  // all hits the second time
  EXPECT_GT(s.hits, 0u);
}

TEST(CloudServerViewTest, TagFilterCountsAbsentTags) {
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
  // Most absent tags are screened by the filter without a table probe
  // (false positives may leak a few through to the hash lookup).
  EXPECT_GT(stats->filter_negatives, 32u);
  EXPECT_LE(stats->filter_negatives, 64u);
}

}  // namespace
}  // namespace query
}  // namespace fresque
