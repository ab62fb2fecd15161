// Races the query engine against publication installs (DESIGN.md §15).
// Run under TSan via scripts/tsan_tests.sh. The central invariant is
// snapshot consistency: a query pins one view inside the server's install
// critical section, so every publication it observes is either fully
// open (all records unindexed) or fully installed (all records indexed)
// — never a partial mix, never missing, never double-counted.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "cloud/server.h"
#include "net/payloads.h"
#include "query/context.h"
#include "query/executor.h"
#include "query/view.h"

namespace fresque {
namespace query {
namespace {

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

TEST(QueryConcurrencyTest, QueriesRaceInstallsConserveRecords) {
  constexpr int kPublications = 12;
  constexpr int kRecordsPerPub = 64;
  cloud::CloudServer server(TinyBinning());

  // Stage every publication open, fully ingested.
  std::vector<int64_t> counts(10, 0);
  for (uint32_t leaf = 0; leaf < 10; ++leaf) {
    counts[leaf] = kRecordsPerPub / 10 + 1;
  }
  for (uint64_t pn = 0; pn < kPublications; ++pn) {
    ASSERT_TRUE(server.StartPublication(pn).ok());
    for (int i = 0; i < kRecordsPerPub; ++i) {
      ASSERT_TRUE(
          server
              .IngestRecord(pn, static_cast<uint32_t>(i % 10),
                            Bytes{static_cast<uint8_t>(pn),
                                  static_cast<uint8_t>(i)})
              .ok());
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> violations{0};
  std::atomic<uint64_t> queries{0};
  auto reader = [&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto r = server.ExecuteQuery({0.0, 9.9}, QueryContext{});
      if (!r.ok()) {
        ++violations;
        continue;
      }
      ++queries;
      // Conservation per publication: all kRecordsPerPub records appear
      // exactly once, either all indexed or all unindexed.
      std::map<uint64_t, std::pair<size_t, size_t>> per_pn;
      for (const auto& rr : r->indexed_records) ++per_pn[rr.pn].first;
      for (const auto& rr : r->unindexed_records) ++per_pn[rr.pn].second;
      if (per_pn.size() != kPublications) ++violations;
      for (const auto& [pn, io] : per_pn) {
        (void)pn;
        const auto& [indexed, unindexed] = io;
        if (indexed + unindexed != kRecordsPerPub ||
            (indexed != 0 && unindexed != 0)) {
          ++violations;
        }
      }
    }
  };
  std::thread r1(reader), r2(reader);

  // Install publications one by one while the readers hammer.
  for (uint64_t pn = 0; pn < kPublications; ++pn) {
    ASSERT_TRUE(
        server.PublishIndexed(pn, MakePublication(server.binning(), counts))
            .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  stop = true;
  r1.join();
  r2.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(queries.load(), 0u);
  EXPECT_EQ(server.view_epoch(), static_cast<uint64_t>(kPublications));
  // After all installs, everything is indexed.
  auto final = server.ExecuteQuery({0.0, 9.9});
  ASSERT_TRUE(final.ok());
  EXPECT_EQ(final->indexed_records.size(),
            static_cast<size_t>(kPublications * kRecordsPerPub));
  EXPECT_EQ(final->unindexed_records.size(), 0u);
}

TEST(QueryConcurrencyTest, ViewGCUnderInstallRetireChurn) {
  auto binning = TinyBinning();
  ViewManager views;
  auto make_installed = [&](uint64_t pn) {
    auto layout = index::IndexLayout::Create(binning.num_bins(), 4);
    auto idx = index::HistogramIndex::FromLeafCounts(
        std::move(layout).ValueOrDie(), binning,
        std::vector<int64_t>(binning.num_bins(), 1));
    return std::make_shared<const InstalledPublication>(
        pn, cloud::SegmentStorage(), std::move(idx).ValueOrDie(),
        index::OverflowArrays(binning.num_bins(), 1),
        std::vector<std::vector<cloud::PhysicalAddress>>(binning.num_bins()),
        nullptr, TagFilter());
  };

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> pins{0};
  auto reader = [&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto view = views.Current();
      // Touch every publication through the pinned view; the churner may
      // retire them concurrently, but the pin keeps them valid.
      for (const auto& pub : view->publications()) {
        if (pub->pn > 1u << 20) ++pins;  // never taken; forces the read
      }
      ++pins;
    }
  };
  std::thread r1(reader), r2(reader);

  std::vector<std::weak_ptr<const InstalledPublication>> weaks;
  for (uint64_t round = 0; round < 200; ++round) {
    uint64_t pn = round % 8;
    auto pub = make_installed(pn);
    weaks.emplace_back(pub);
    views.Install(std::move(pub));
    if (round % 3 == 0) views.Retire((round + 1) % 8);
    // Yield periodically so the readers interleave with the churn even on
    // a single-CPU box.
    if (round % 16 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Make sure the readers actually overlapped the churn (on a single-CPU
  // box the 200 rounds above can finish before a reader is scheduled).
  while (pins.load() < 100) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop = true;
  r1.join();
  r2.join();
  EXPECT_GT(pins.load(), 0u);

  // Quiesce: only publications in the final view may still be alive.
  auto final_view = views.Current();
  size_t alive = 0;
  for (const auto& w : weaks) {
    if (auto p = w.lock()) {
      ++alive;
      EXPECT_NE(final_view->Find(p->pn), nullptr)
          << "leaked publication " << p->pn;
      EXPECT_EQ(final_view->Find(p->pn).get(), p.get());
    }
  }
  EXPECT_EQ(alive, final_view->num_publications());
}

TEST(QueryConcurrencyTest, ExecutorStressAccountsEveryQuery) {
  std::atomic<uint64_t> handled{0};
  ExecutorOptions opts;
  opts.num_threads = 3;
  opts.queue_capacity = 8;
  QueryExecutor exec(
      [&](const index::RangeQuery&, const QueryContext& ctx) -> Result<QueryResult> {
        FRESQUE_RETURN_NOT_OK(ctx.Check());
        ++handled;
        return QueryResult{};
      },
      opts);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::atomic<uint64_t> ok{0}, shed{0}, deadline{0}, other{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        QueryOptions qo;
        if ((t + i) % 5 == 0) qo.deadline = std::chrono::nanoseconds(1);
        auto r = exec.Execute({0, 1}, qo);
        if (r.ok()) {
          ++ok;
        } else if (r.status().code() == StatusCode::kOverloaded) {
          ++shed;
        } else if (r.status().code() == StatusCode::kDeadlineExceeded) {
          ++deadline;
        } else {
          ++other;
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  exec.Shutdown();

  EXPECT_EQ(other.load(), 0u);
  EXPECT_EQ(ok.load() + shed.load() + deadline.load(),
            static_cast<uint64_t>(kThreads * kPerThread));
  auto m = exec.metrics();
  EXPECT_EQ(m.executed, ok.load());
  EXPECT_EQ(m.shed, shed.load());
  EXPECT_EQ(m.deadline_exceeded, deadline.load());
  EXPECT_EQ(m.submitted, m.executed + m.deadline_exceeded + m.cancelled);
  EXPECT_EQ(m.inflight, 0);
  EXPECT_EQ(handled.load(), ok.load());
}

TEST(QueryConcurrencyTest, ShutdownResolvesQueuedQueries) {
  std::atomic<bool> release{false};
  ExecutorOptions opts;
  opts.num_threads = 1;
  opts.queue_capacity = 8;
  QueryExecutor exec(
      [&](const index::RangeQuery&, const QueryContext&) {
        while (!release.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return Result<QueryResult>(QueryResult{});
      },
      opts);
  // One query occupies the worker; several more sit in the queue.
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (int i = 0; i < 5; ++i) {
    auto t = exec.Submit({0, 1});
    if (t.ok()) tickets.push_back(*t);
  }
  release = true;
  exec.Shutdown();
  // Every ticket resolves — no waiter hangs forever.
  for (auto& t : tickets) {
    auto r = t->Wait();
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
    }
  }
}

}  // namespace
}  // namespace query
}  // namespace fresque
