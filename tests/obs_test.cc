// Unit tests for the live observability plane (DESIGN.md §16): the
// streaming quantile sketch, the crash-safe flight recorder, the embedded
// HTTP server, the background sampler, and the ObsServer endpoint wiring.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "net/tcp.h"
#include "obs/flight_recorder.h"
#include "obs/http.h"
#include "obs/quantiles.h"
#include "obs/sampler.h"
#include "obs/server.h"
#include "telemetry/metrics.h"

namespace fresque {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// StreamingQuantiles

TEST(StreamingQuantilesTest, EmptySketchAnswersZero) {
  StreamingQuantiles sk;
  EXPECT_EQ(sk.Count(), 0u);
  EXPECT_EQ(sk.Query(0.5), 0u);
  EXPECT_TRUE(sk.QueryMany({0.5, 0.99}).empty() ||
              sk.QueryMany({0.5, 0.99}) ==
                  std::vector<uint64_t>({0, 0}));
}

TEST(StreamingQuantilesTest, SmallInsertIsExact) {
  // Fewer samples than one stripe buffer: nothing has been compacted, so
  // the answer is the exact order statistic.
  StreamingQuantiles sk;
  for (uint64_t v = 1; v <= 100; ++v) sk.Insert(v);
  EXPECT_EQ(sk.Count(), 100u);
  EXPECT_EQ(sk.TotalWeight(), 100u);
  uint64_t p50 = sk.Query(0.50);
  EXPECT_GE(p50, 45u);
  EXPECT_LE(p50, 55u);
  EXPECT_EQ(sk.Query(1.0), 100u);
}

TEST(StreamingQuantilesTest, LargeStreamQuantilesWithinKllError) {
  StreamingQuantiles sk;
  const uint64_t n = 200000;
  std::vector<uint64_t> vals(n);
  for (uint64_t i = 0; i < n; ++i) vals[i] = i + 1;
  std::mt19937_64 rng(42);
  std::shuffle(vals.begin(), vals.end(), rng);
  for (uint64_t v : vals) sk.Insert(v);

  EXPECT_EQ(sk.Count(), n);
  EXPECT_EQ(sk.TotalWeight(), n);  // compaction conserves weight exactly

  auto qs = sk.QueryMany({0.50, 0.95, 0.99});
  ASSERT_EQ(qs.size(), 3u);
  // KLL with k=256 lands well within 2% rank error at this scale; assert
  // a loose 5% so the test never flakes on compaction randomness.
  EXPECT_NEAR(static_cast<double>(qs[0]), 0.50 * n, 0.05 * n);
  EXPECT_NEAR(static_cast<double>(qs[1]), 0.95 * n, 0.05 * n);
  EXPECT_NEAR(static_cast<double>(qs[2]), 0.99 * n, 0.05 * n);
}

TEST(StreamingQuantilesTest, ConcurrentInsertConservesEverySample) {
  StreamingQuantiles sk;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sk, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        sk.Insert(static_cast<uint64_t>(t) * kPerThread + i + 1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(sk.Count(), kThreads * kPerThread);
  EXPECT_EQ(sk.TotalWeight(), kThreads * kPerThread);
  // Uniform 1..400k stream: the median estimate must land mid-range.
  uint64_t p50 = sk.Query(0.5);
  EXPECT_GT(p50, kThreads * kPerThread * 40 / 100);
  EXPECT_LT(p50, kThreads * kPerThread * 60 / 100);
}

TEST(StreamingQuantilesTest, InsertManyMatchesInsertLoop) {
  const uint64_t n = 100000;
  std::vector<uint64_t> vals(n);
  for (uint64_t i = 0; i < n; ++i) vals[i] = i + 1;
  std::mt19937_64 rng(7);
  std::shuffle(vals.begin(), vals.end(), rng);

  StreamingQuantiles one;
  StreamingQuantiles many;
  for (uint64_t v : vals) one.Insert(v);
  // Runs of every length from 0 up, crossing the stripe buffer boundary
  // inside a call.
  for (size_t at = 0, len = 0; at < n; at += len, ++len) {
    len = std::min<size_t>(len, n - at);
    many.InsertMany(vals.data() + at, len);
  }
  EXPECT_EQ(many.Count(), n);
  EXPECT_EQ(many.TotalWeight(), many.Count());
  const std::vector<double> qs = {0.01, 0.25, 0.50, 0.95, 0.99};
  const auto a = one.QueryMany(qs);
  const auto b = many.QueryMany(qs);
  for (size_t i = 0; i < qs.size(); ++i) {
    // Both are within the sketch's rank error of the true quantile.
    EXPECT_NEAR(static_cast<double>(b[i]), qs[i] * n, 0.02 * n) << qs[i];
    EXPECT_NEAR(static_cast<double>(b[i]), static_cast<double>(a[i]),
                0.03 * n)
        << qs[i];
  }
}

/// The sketch before its levels were kept sorted: a full buffer folds in
/// unsorted and every compaction sorts its whole level. One writer, so one
/// buffer stands for the stripes.
class WholeLevelSortSketch {
 public:
  void Insert(uint64_t v) {
    buf_.push_back(v);
    if (buf_.size() < StreamingQuantiles::kBufferLen) return;
    levels_[0].insert(levels_[0].end(), buf_.begin(), buf_.end());
    buf_.clear();
    for (size_t i = 0; i + 1 < levels_.size(); ++i) {
      auto& cur = levels_[i];
      if (cur.size() < StreamingQuantiles::kLevelCapacity) break;
      std::sort(cur.begin(), cur.end());
      const size_t pairs = cur.size() / 2;
      rng_ ^= rng_ << 13;
      rng_ ^= rng_ >> 7;
      rng_ ^= rng_ << 17;
      const size_t offset = static_cast<size_t>(rng_ & 1);
      auto& up = levels_[i + 1];
      for (size_t p = 0; p < pairs; ++p) up.push_back(cur[2 * p + offset]);
      if (cur.size() % 2 != 0) {
        cur[0] = cur.back();
        cur.resize(1);
      } else {
        cur.clear();
      }
    }
  }

  /// The summary as sorted (value, weight) pairs, as QueryMany walks it.
  std::vector<std::pair<uint64_t, uint64_t>> Items() const {
    std::vector<std::pair<uint64_t, uint64_t>> items;
    for (uint64_t v : buf_) items.emplace_back(v, 1);
    for (size_t i = 0; i < levels_.size(); ++i) {
      for (uint64_t v : levels_[i]) items.emplace_back(v, uint64_t{1} << i);
    }
    std::sort(items.begin(), items.end());
    return items;
  }

  std::vector<uint64_t> QueryMany(const std::vector<double>& qs) const {
    const auto items = Items();
    uint64_t total = 0;
    for (const auto& it : items) total += it.second;
    std::vector<uint64_t> out;
    size_t cursor = 0;
    uint64_t seen = 0;
    for (double q : qs) {
      const auto target = static_cast<uint64_t>(q * static_cast<double>(total));
      while (cursor < items.size() && seen + items[cursor].second < target) {
        seen += items[cursor].second;
        ++cursor;
      }
      out.push_back(items[std::min(cursor, items.size() - 1)].first);
    }
    return out;
  }

  uint64_t TotalWeight() const {
    uint64_t total = 0;
    for (const auto& it : Items()) total += it.second;
    return total;
  }

 private:
  std::vector<uint64_t> buf_;
  std::vector<std::vector<uint64_t>> levels_ =
      std::vector<std::vector<uint64_t>>(StreamingQuantiles::kMaxLevels);
  uint64_t rng_ = 0x9e3779b97f4a7c15ull;
};

TEST(StreamingQuantilesTest, SortedLevelsAnswerAsWholeLevelSorts) {
  // A sorted multiset has one order, so keeping every level sorted leaves
  // the summary, and every answer, as sorting each level before its
  // compaction did.
  StreamingQuantiles sketch;
  WholeLevelSortSketch reference;
  std::vector<double> qs;
  for (int i = 0; i <= 200; ++i) qs.push_back(i / 200.0);
  std::mt19937_64 rng(20261018);
  std::vector<uint64_t> batch(64);
  constexpr size_t kSamples = size_t{4} << 20;
  for (size_t done = 0; done < kSamples; done += batch.size()) {
    for (uint64_t& v : batch) {
      const uint64_t r = rng();
      v = r >> (r % 48);  // heavy-tailed, with many repeats
      reference.Insert(v);
    }
    sketch.InsertMany(batch.data(), batch.size());
    if ((done + batch.size()) % (size_t{1} << 20) == 0) {
      ASSERT_EQ(sketch.QueryMany(qs), reference.QueryMany(qs)) << done;
    }
  }
  EXPECT_EQ(sketch.Count(), kSamples);
  EXPECT_EQ(sketch.TotalWeight(), reference.TotalWeight());
  EXPECT_EQ(sketch.TotalWeight(), kSamples);
}

TEST(StreamingQuantilesTest, ResetForTestEmptiesTheSketch) {
  StreamingQuantiles sk;
  for (uint64_t v = 0; v < 5000; ++v) sk.Insert(v);
  sk.ResetForTest();
  EXPECT_EQ(sk.Count(), 0u);
  EXPECT_EQ(sk.TotalWeight(), 0u);
  EXPECT_EQ(sk.Query(0.99), 0u);
}

// ---------------------------------------------------------------------------
// FlightRecorder

TEST(FlightRecorderTest, RecordsInOrderWithMonotonicSeq) {
  FlightRecorder rec(64);
  rec.Record(FlightCategory::kLifecycle, "first", 1, 2, 3);
  rec.Record(FlightCategory::kPublication, "second", 4);
  auto events = rec.SnapshotEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_STREQ(events[0].msg, "first");
  EXPECT_EQ(events[0].a0, 1);
  EXPECT_EQ(events[0].a2, 3);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[1].cat, FlightCategory::kPublication);
  EXPECT_GE(events[1].ns, events[0].ns);
}

TEST(FlightRecorderTest, RingWrapsKeepingNewestEvents) {
  FlightRecorder rec(64);
  for (int i = 0; i < 200; ++i) {
    rec.Record(FlightCategory::kShed, "evt", i);
  }
  EXPECT_EQ(rec.Recorded(), 200u);
  EXPECT_EQ(rec.Dropped(), 200u - 64u);
  auto events = rec.SnapshotEvents();
  ASSERT_EQ(events.size(), 64u);
  // Oldest surviving event is 200-64; snapshot is oldest-first.
  EXPECT_EQ(events.front().a0, 200 - 64);
  EXPECT_EQ(events.back().a0, 199);
}

TEST(FlightRecorderTest, DumpJsonIsWellFormed) {
  FlightRecorder rec(64);
  rec.Record(FlightCategory::kRecovery, "quote\"and\\slash", 7, 8, 9);
  std::string json = rec.DumpJson();
  EXPECT_TRUE(telemetry::ValidateJsonSyntax(json).ok()) << json;
  EXPECT_NE(json.find("\"recovery\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":0"), std::string::npos);
}

TEST(FlightRecorderTest, DumpToFdIsReadableText) {
  FlightRecorder rec(64);
  rec.Record(FlightCategory::kDurability, "wal segment opened", 17, 1, 0);
  char path[] = "/tmp/fresque_flight_test_XXXXXX";
  int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  rec.DumpTo(fd);
  ::lseek(fd, 0, SEEK_SET);
  char buf[4096];
  ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
  ASSERT_GT(n, 0);
  buf[n] = '\0';
  std::string text(buf);
  ::close(fd);
  ::unlink(path);
  EXPECT_NE(text.find("wal segment opened"), std::string::npos);
  EXPECT_NE(text.find("args=17,1,0"), std::string::npos);
}

TEST(FlightRecorderTest, ConcurrentRecordersNeverTearEvents) {
  FlightRecorder rec(128);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::atomic<bool> stop{false};
  std::thread reader([&rec, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const auto& e : rec.SnapshotEvents()) {
        // A torn slot would mix the payloads of two writers; each writer
        // stamps all three args with its own value.
        ASSERT_EQ(e.a0, e.a1);
        ASSERT_EQ(e.a0 + 1, e.a2);
      }
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&rec, t] {
      for (int i = 0; i < kPerThread; ++i) {
        int64_t v = static_cast<int64_t>(t) * kPerThread + i;
        rec.Record(FlightCategory::kObs, "w", v, v, v + 1);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(rec.Recorded(), static_cast<uint64_t>(kThreads) * kPerThread);
}

// ---------------------------------------------------------------------------
// ParseObsAddr

TEST(ParseObsAddrTest, AcceptsTheDocumentedShapes) {
  auto p = ParseObsAddr("9464");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->first, "127.0.0.1");
  EXPECT_EQ(p->second, 9464);

  p = ParseObsAddr("0.0.0.0:8080");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->first, "0.0.0.0");
  EXPECT_EQ(p->second, 8080);

  p = ParseObsAddr("localhost:0");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->first, "localhost");
  EXPECT_EQ(p->second, 0);

  p = ParseObsAddr("localhost");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->second, 0);  // bare host: ephemeral
}

TEST(ParseObsAddrTest, RejectsGarbage) {
  EXPECT_FALSE(ParseObsAddr("").ok());
  EXPECT_FALSE(ParseObsAddr("host:port").ok());
  EXPECT_FALSE(ParseObsAddr("127.0.0.1:99999").ok());
  EXPECT_FALSE(ParseObsAddr("127.0.0.1:").ok());
}

// ---------------------------------------------------------------------------
// HttpServer — raw-socket client helper.

std::string HttpRequest(uint16_t port, const std::string& raw) {
  auto conn = net::TcpConnect(port);
  if (!conn.ok()) return "";
  if (!conn->WriteRaw(reinterpret_cast<const uint8_t*>(raw.data()),
                      raw.size())
           .ok()) {
    return "";
  }
  std::string response;
  uint8_t buf[4096];
  for (;;) {
    auto n = conn->ReadSome(buf, sizeof(buf));
    if (!n.ok() || *n == 0) break;
    response.append(reinterpret_cast<const char*>(buf), *n);
  }
  return response;
}

std::string HttpGet(uint16_t port, const std::string& path) {
  return HttpRequest(port, "GET " + path +
                               " HTTP/1.1\r\nHost: localhost\r\n"
                               "Connection: close\r\n\r\n");
}

TEST(HttpServerTest, ServesRegisteredRoutes) {
  HttpServer server;
  server.Handle("/hello", [](const std::string&) {
    HttpResponse r;
    r.body = "world";
    return r;
  });
  ASSERT_TRUE(server.Start("127.0.0.1", 0).ok());
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);

  std::string resp = HttpGet(server.port(), "/hello");
  EXPECT_NE(resp.find("HTTP/1.1 200"), std::string::npos) << resp;
  EXPECT_NE(resp.find("world"), std::string::npos);
  EXPECT_NE(resp.find("Connection: close"), std::string::npos);

  EXPECT_NE(HttpGet(server.port(), "/nope").find("HTTP/1.1 404"),
            std::string::npos);
  // Query strings are stripped before route match.
  EXPECT_NE(HttpGet(server.port(), "/hello?x=1").find("HTTP/1.1 200"),
            std::string::npos);

  std::string post = HttpRequest(
      server.port(), "POST /hello HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405"), std::string::npos);

  std::string head = HttpRequest(
      server.port(),
      "HEAD /hello HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  EXPECT_NE(head.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_EQ(head.find("world"), std::string::npos);  // no body on HEAD

  std::string bad = HttpRequest(server.port(), "BOGUS\r\n\r\n");
  EXPECT_NE(bad.find("HTTP/1.1 400"), std::string::npos);

  EXPECT_GE(server.requests(), 6u);
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

// ---------------------------------------------------------------------------
// Sampler

TEST(SamplerTest, NoteE2eSampleFeedsSloAndSketch) {
  ResetE2eStateForTest();
  telemetry::Registry::Global()->ResetForTest();

  SetSloE2eTargetNs(1000000);  // 1 ms
  SetE2eSamplingActive(true);
  NoteE2eSample(500000);       // under target
  NoteE2eSample(2000000);      // violation
  NoteE2eSample(3000000);      // violation

  auto* reg = telemetry::Registry::Global();
  EXPECT_EQ(reg->GetCounter("slo.e2e_samples")->Value(), 3u);
  EXPECT_EQ(reg->GetCounter("slo.e2e_violations")->Value(), 2u);
  EXPECT_EQ(GlobalE2eSketch()->Count(), 3u);
  EXPECT_GT(LastE2eSampleNanos(), 0);

  // Dormant mode: freshness still stamps, sketch does not grow.
  SetE2eSamplingActive(false);
  NoteE2eSample(700000);
  EXPECT_EQ(GlobalE2eSketch()->Count(), 3u);
  EXPECT_EQ(reg->GetCounter("slo.e2e_samples")->Value(), 4u);

  ResetE2eStateForTest();
}

TEST(SamplerTest, NoteE2eSamplesCountsEverySampleOfARun) {
  ResetE2eStateForTest();
  telemetry::Registry::Global()->ResetForTest();

  SetSloE2eTargetNs(1000000);  // 1 ms
  SetE2eSamplingActive(true);
  const uint64_t run[] = {500000, 2000000, 3000000, 1000000};
  NoteE2eSamples(run, 4, /*now_ns=*/12345);
  NoteE2eSamples(run, 0, /*now_ns=*/99999);  // empty run: no effect

  auto* reg = telemetry::Registry::Global();
  EXPECT_EQ(reg->GetCounter("slo.e2e_samples")->Value(), 4u);
  EXPECT_EQ(reg->GetCounter("slo.e2e_violations")->Value(), 2u);
  EXPECT_EQ(GlobalE2eSketch()->Count(), 4u);
  EXPECT_EQ(GlobalE2eSketch()->Query(1.0), 3000000u);
  EXPECT_EQ(LastE2eSampleNanos(), 12345);

  ResetE2eStateForTest();
}

TEST(SamplerTest, FoldExportsQuantileGauges) {
  ResetE2eStateForTest();
  telemetry::Registry::Global()->ResetForTest();
  SetE2eSamplingActive(true);
  for (uint64_t i = 1; i <= 1000; ++i) NoteE2eSample(static_cast<int64_t>(i));

  std::atomic<int> fold_calls{0};
  ObsSampler sampler(3600 * 1000, [&fold_calls] { ++fold_calls; });
  sampler.FoldOnce();
  EXPECT_EQ(fold_calls.load(), 1);

  auto* reg = telemetry::Registry::Global();
  int64_t p50 = reg->GetGauge("pipeline.e2e_p50_ns")->Value();
  int64_t p99 = reg->GetGauge("pipeline.e2e_p99_ns")->Value();
  EXPECT_GT(p50, 400);
  EXPECT_LT(p50, 600);
  EXPECT_GE(p99, p50);
  EXPECT_GE(reg->GetGauge("ingest.lag_ms")->Value(), 0);

  SetE2eSamplingActive(false);
  ResetE2eStateForTest();
}

TEST(SamplerTest, BackgroundThreadFoldsPeriodically) {
  ResetE2eStateForTest();
  ObsSampler sampler(1);  // 1 ms cadence
  sampler.Start();
  for (int spins = 0; sampler.folds() < 3 && spins < 2000; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sampler.Stop();
  EXPECT_GE(sampler.folds(), 3u);
  ResetE2eStateForTest();
}

// ---------------------------------------------------------------------------
// ObsServer — endpoint wiring end to end.

TEST(ObsServerTest, ServesAllFiveEndpoints) {
  ResetE2eStateForTest();
  telemetry::Registry::Global()->ResetForTest();
  telemetry::Registry::Global()->GetCounter("query.obs_test_marker")->Add(7);

  std::atomic<bool> ready{false};
  ObsServerOptions opts;
  opts.host = "127.0.0.1";
  opts.port = 0;
  opts.sample_interval_ms = 3600 * 1000;  // fold manually via scrape
  opts.ready_source = [&ready] { return ready.load(); };
  opts.status_source = [] {
    StatusSnapshot s;
    s.nodes.push_back({"cn0", 3, 64, 17, 1234});
    s.shards.push_back({0, 900, 2, 8192, 41, 9, 4, 870});
    s.shards.push_back({1, 100, 0, 8192, 7, 9, 4, 95});
    s.view_epoch = 9;
    s.publications = 4;
    s.open_publication = 5;
    s.total_records = 4321;
    return s;
  };
  ObsServer server(std::move(opts));
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(E2eSamplingActive());  // Start switches sampling on
  const uint16_t port = server.port();

  std::string metrics = HttpGet(port, "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(metrics.find("fresque_query_obs_test_marker 7"),
            std::string::npos)
      << metrics;

  EXPECT_NE(HttpGet(port, "/healthz").find("ok"), std::string::npos);
  EXPECT_NE(HttpGet(port, "/readyz").find("HTTP/1.1 503"),
            std::string::npos);
  ready.store(true);
  EXPECT_NE(HttpGet(port, "/readyz").find("HTTP/1.1 200"),
            std::string::npos);

  std::string statusz = HttpGet(port, "/statusz");
  const size_t body_at = statusz.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  std::string body = statusz.substr(body_at + 4);
  EXPECT_TRUE(telemetry::ValidateJsonSyntax(body).ok()) << body;
  EXPECT_NE(body.find("\"view_epoch\":9"), std::string::npos);
  EXPECT_NE(body.find("\"open_publication\":5"), std::string::npos);
  EXPECT_NE(body.find("\"cn0\""), std::string::npos);
  EXPECT_NE(body.find("\"queue_depth\":3"), std::string::npos);
  // The shard table (DESIGN.md §17): one row per collector shard.
  EXPECT_NE(body.find("\"shards\":[{\"shard\":0,\"routed\":900"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("\"ingress_watermark\":7"), std::string::npos);

  std::string flightz = HttpGet(port, "/flightz");
  const size_t fbody_at = flightz.find("\r\n\r\n");
  ASSERT_NE(fbody_at, std::string::npos);
  EXPECT_TRUE(
      telemetry::ValidateJsonSyntax(flightz.substr(fbody_at + 4)).ok());

  EXPECT_GE(server.requests(), 6u);
  server.Stop();
  EXPECT_FALSE(E2eSamplingActive());  // Stop switches sampling off
  ResetE2eStateForTest();
}

}  // namespace
}  // namespace obs
}  // namespace fresque
