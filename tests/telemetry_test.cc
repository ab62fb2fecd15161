#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/queue.h"
#include "json_syntax.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace fresque {
namespace telemetry {
namespace {

// ---------------------------------------------------------------------------
// Registry basics

TEST(RegistryTest, SameNameReturnsSamePointer) {
  Registry reg;
  Counter* a = reg.GetCounter("test.counter");
  Counter* b = reg.GetCounter("test.counter");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, reg.GetCounter("test.other"));
  EXPECT_EQ(reg.GetGauge("g"), reg.GetGauge("g"));
  EXPECT_EQ(reg.GetHistogram("h"), reg.GetHistogram("h"));
}

TEST(RegistryTest, SnapshotReflectsWrites) {
  Registry reg;
  reg.GetCounter("c1")->Add(3);
  reg.GetCounter("c1")->Add(4);
  reg.GetGauge("g1")->Set(-17);
  reg.GetHistogram("h1")->Record(1000);
  reg.GetHistogram("h1")->Record(2000);

  MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "c1");
  EXPECT_EQ(snap.counters[0].second, 7u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, -17);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 2u);
  EXPECT_EQ(snap.histograms[0].sum, 3000u);
}

TEST(RegistryTest, ResetForTestZeroesButKeepsPointers) {
  Registry reg;
  Counter* c = reg.GetCounter("c");
  c->Add(5);
  reg.GetHistogram("h")->Record(9);
  reg.ResetForTest();
  EXPECT_EQ(c, reg.GetCounter("c"));
  EXPECT_EQ(c->Value(), 0u);
  MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 0u);
}

// ---------------------------------------------------------------------------
// Histogram bucket boundaries

TEST(HistogramTest, BucketIndexEdgeValues) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  for (size_t k = 0; k < 64; ++k) {
    EXPECT_EQ(Histogram::BucketIndex(uint64_t{1} << k), k + 1)
        << "v=2^" << k;
  }
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), 64u);
}

TEST(HistogramTest, BucketBoundsPartitionTheRange) {
  // Buckets must tile [0, UINT64_MAX] with no gaps or overlaps, and every
  // bound must map back into its own bucket.
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(64), UINT64_MAX);
  for (size_t b = 0; b < Histogram::kBucketCount; ++b) {
    const uint64_t lo = Histogram::BucketLowerBound(b);
    const uint64_t hi = Histogram::BucketUpperBound(b);
    EXPECT_LE(lo, hi) << "bucket " << b;
    EXPECT_EQ(Histogram::BucketIndex(lo), b) << "lower bound of " << b;
    EXPECT_EQ(Histogram::BucketIndex(hi), b) << "upper bound of " << b;
    if (b + 1 < Histogram::kBucketCount) {
      EXPECT_EQ(Histogram::BucketLowerBound(b + 1), hi + 1)
          << "gap between buckets " << b << " and " << b + 1;
    }
  }
}

TEST(HistogramTest, RecordLandsInComputedBucket) {
  Histogram h;
  const uint64_t samples[] = {0, 1, 2, 3, 1023, 1024, UINT64_MAX};
  for (uint64_t v : samples) h.Record(v);
  for (uint64_t v : samples) {
    EXPECT_GE(h.BucketValue(Histogram::BucketIndex(v)), 1u) << "v=" << v;
  }
  EXPECT_EQ(h.Count(), 7u);
  // Sum wraps modulo 2^64 (7 + UINT64_MAX + ... ); just check it moved.
  EXPECT_NE(h.Sum(), 0u);
  h.RecordNanos(-5);  // clamps to 0
  EXPECT_EQ(h.BucketValue(0), 2u);
}

TEST(HistogramTest, RecordManyMatchesRecordLoop) {
  std::vector<uint64_t> samples = {0, 1, 2, 3, 7, 8, 1023, 1024, 1 << 20};
  for (uint64_t v = 0; v < 5000; ++v) samples.push_back(v * 7919 % 100003);
  Histogram one;
  Histogram many;
  for (uint64_t v : samples) one.Record(v);
  many.RecordMany(samples.data(), 3);  // split calls, and an empty one
  many.RecordMany(samples.data() + 3, 0);
  many.RecordMany(samples.data() + 3, samples.size() - 3);
  for (size_t b = 0; b < Histogram::kBucketCount; ++b) {
    EXPECT_EQ(many.BucketValue(b), one.BucketValue(b)) << "bucket " << b;
  }
  EXPECT_EQ(many.Sum(), one.Sum());
  EXPECT_EQ(many.Count(), samples.size());
}

// ---------------------------------------------------------------------------
// Registry under concurrency (exactness + TSan cleanliness)

TEST(RegistryConcurrencyTest, ParallelWritersAndSnapshotReader) {
  Registry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      MetricsSnapshot snap = reg.Snapshot();
      for (const auto& [name, v] : snap.counters) {
        EXPECT_LE(v, static_cast<uint64_t>(kThreads) * kIters);
      }
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg, t] {
      // Half the threads share one metric, half use per-thread names, so
      // both contended and uncontended registration paths are exercised.
      Counter* shared = reg.GetCounter("conc.shared");
      Counter* own = reg.GetCounter("conc.t" + std::to_string(t));
      Histogram* h = reg.GetHistogram("conc.hist");
      for (int i = 0; i < kIters; ++i) {
        shared->Add(1);
        own->Add(1);
        h->Record(static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  MetricsSnapshot snap = reg.Snapshot();
  uint64_t shared = 0, own_total = 0;
  for (const auto& [name, v] : snap.counters) {
    if (name == "conc.shared") {
      shared = v;
    } else {
      own_total += v;
    }
  }
  EXPECT_EQ(shared, static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(own_total, static_cast<uint64_t>(kThreads) * kIters);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count,
            static_cast<uint64_t>(kThreads) * kIters);
}

// ---------------------------------------------------------------------------
// Exporters: Prometheus text and the metrics file

TEST(ExportTest, PrometheusTextShape) {
  Registry reg;
  reg.GetCounter("ingest.records_in")->Add(42);
  reg.GetGauge("node.cn0.queue_depth")->Set(7);
  reg.GetHistogram("wal.fsync_ns")->Record(1500);

  const std::string text = ToPrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("# TYPE fresque_ingest_records_in counter"),
            std::string::npos);
  EXPECT_NE(text.find("fresque_ingest_records_in 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fresque_node_cn0_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("fresque_node_cn0_queue_depth 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fresque_wal_fsync_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("fresque_wal_fsync_ns_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("fresque_wal_fsync_ns_sum 1500"), std::string::npos);
  EXPECT_NE(text.find("fresque_wal_fsync_ns_count 1"), std::string::npos);
}

TEST(ExportTest, PrometheusBucketsAreCumulative) {
  Registry reg;
  Histogram* h = reg.GetHistogram("cum");
  h->Record(1);    // bucket 1
  h->Record(100);  // bucket 7
  const std::string text = ToPrometheusText(reg.Snapshot());
  // Every le="..." count must be <= the final +Inf count of 2, and the
  // series must end at 2.
  EXPECT_NE(text.find("fresque_cum_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("fresque_cum_bucket{le=\"1\"} 1"), std::string::npos);
}

// --metrics-out writes the bytes /metrics serves, whatever the file is
// called.
TEST(ExportTest, MetricsFileIsThePrometheusText) {
  Registry reg;
  reg.GetCounter("a.b")->Add(123);
  reg.GetGauge("g")->Set(-5);
  Histogram* h = reg.GetHistogram("lat");
  h->Record(0);
  h->Record(999);
  const MetricsSnapshot snap = reg.Snapshot();
  const std::string dir = ::testing::TempDir();
  for (const std::string name : {"export_test.json", "export_test.prom"}) {
    const std::string path = dir + "/" + name;
    ASSERT_TRUE(WriteMetricsFile(snap, path).ok()) << path;
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(text, ToPrometheusText(snap)) << path;
    std::remove(path.c_str());
  }
}

// The grammar check the obs tests run their JSON bodies through.
TEST(ExportTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(ValidateJsonSyntax("{\"a\": }").ok());
  EXPECT_FALSE(ValidateJsonSyntax("{\"a\": 1} trailing").ok());
  EXPECT_TRUE(ValidateJsonSyntax("{\"a\": [1, 2.5e3, true, null]}").ok());
}

// ---------------------------------------------------------------------------
// BoundedQueue wait hook

TEST(QueueWaitHookTest, SampledItemsReportTheirWait) {
  BoundedQueue<int> q(/*capacity=*/4);
  std::vector<int64_t> waits;
  q.SetWaitHook([&waits](int64_t ns) { waits.push_back(ns); });

  // The first item after attach is sampled; the next stride-1 are not.
  q.Push(1);
  q.Push(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  (void)q.TryPop();
  (void)q.TryPop();
  ASSERT_EQ(waits.size(), 1u);
  EXPECT_GE(waits[0], 1'000'000) << "slept 2ms before popping";

  // One full stride later the sampler fires again.
  waits.clear();
  for (uint64_t i = 0; i < BoundedQueue<int>::kWaitSampleStride; ++i) {
    q.Push(static_cast<int>(i));
    (void)q.TryPop();
  }
  EXPECT_EQ(waits.size(), 1u);

  // Detach: further pops must not touch the (soon destroyed) vector.
  q.SetWaitHook(nullptr);
  waits.clear();
  for (int i = 0; i < 3; ++i) {
    q.Push(i);
    (void)q.TryPop();
  }
  EXPECT_TRUE(waits.empty());
}

TEST(QueueWaitHookTest, ItemsPresentAtAttachAreStamped) {
  BoundedQueue<int> q(/*capacity=*/4);
  q.Push(1);  // enqueued before any hook exists
  int calls = 0;
  q.SetWaitHook([&calls](int64_t ns) {
    ++calls;
    EXPECT_GE(ns, 0);
  });
  (void)q.TryPop();
  EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------------------------
// Macro layer

TEST(MacroTest, CounterMacroAccumulates) {
  Counter* c = Registry::Global()->GetCounter("macro.test_counter");
  const uint64_t before = c->Value();
  FRESQUE_COUNTER_ADD("macro.test_counter", 2);
  FRESQUE_COUNTER_ADD("macro.test_counter", 3);
  EXPECT_EQ(c->Value(), before + 5);
}

}  // namespace
}  // namespace telemetry
}  // namespace fresque
