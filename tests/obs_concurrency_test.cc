// Concurrent exporter test (DESIGN.md §16): writer threads hammer
// counters, gauges and histograms while a scraper loops over /metrics and
// /statusz. Every scrape must parse, and counter values must be monotonic
// scrape-over-scrape — a torn read would show up as a parse failure or a
// counter running backwards. Runs under TSan in CI (scripts/tsan_tests.sh).

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "json_syntax.h"
#include "net/tcp.h"
#include "obs/quantiles.h"
#include "obs/sampler.h"
#include "obs/server.h"
#include "telemetry/metrics.h"

namespace fresque {
namespace obs {
namespace {

std::string HttpGet(uint16_t port, const std::string& path) {
  auto conn = net::TcpConnect(port);
  if (!conn.ok()) return "";
  std::string raw = "GET " + path +
                    " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
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

std::string Body(const std::string& response) {
  const size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? std::string() : response.substr(at + 4);
}

// Parses one Prometheus exposition body; returns false on any malformed
// line. Fills `value` with the sample for `metric` when present.
bool ParsePrometheus(const std::string& body, const std::string& metric,
                     uint64_t* value) {
  bool found = false;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    const std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0 ||
        space + 1 >= line.size()) {
      return false;  // a sample line is always "series value"
    }
    const std::string series = line.substr(0, space);
    const std::string val = line.substr(space + 1);
    if (val.find_first_not_of("0123456789.eE+-") != std::string::npos) {
      return false;
    }
    if (series == metric) {
      found = true;
      *value = std::stoull(val);
    }
  }
  return found;
}

TEST(ObsConcurrencyTest, ScrapesStayParseableAndMonotonicUnderLoad) {
  telemetry::Registry::Global()->ResetForTest();
  ResetE2eStateForTest();

  std::atomic<uint64_t> status_calls{0};
  ObsServerOptions opts;
  opts.host = "127.0.0.1";
  opts.port = 0;
  opts.sample_interval_ms = 5;  // fold aggressively while writers run
  opts.status_source = [&status_calls] {
    StatusSnapshot s;
    s.view_epoch = status_calls.fetch_add(1, std::memory_order_relaxed);
    s.nodes.push_back({"cn0", 1, 64, 2, 3});
    return s;
  };
  ObsServer server(std::move(opts));
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  constexpr int kWriters = 8;
  constexpr int kOpsPerWriter = 30000;
  std::atomic<bool> go{false};
  std::atomic<int> finished{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  auto* reg = telemetry::Registry::Global();
  // Pre-register so the first scrape sees the series at 0 rather than
  // racing the writers' lazy registration.
  reg->GetCounter("pipeline.obs_cc_ops");
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([reg, &go, &finished, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      auto* counter = reg->GetCounter("pipeline.obs_cc_ops");
      auto* gauge = reg->GetGauge("pipeline.obs_cc_depth");
      auto* hist = reg->GetHistogram("pipeline.obs_cc_ns");
      for (int i = 0; i < kOpsPerWriter; ++i) {
        counter->Add(1);
        gauge->Set(i);
        hist->Record(static_cast<uint64_t>(i) * 37 + t);
        NoteE2eSample(i * 1000 + 1);
      }
      finished.fetch_add(1, std::memory_order_release);
    });
  }

  go.store(true, std::memory_order_release);
  uint64_t last_ops = 0;
  int scrapes = 0;
  // Scrape continuously while the writers run.
  while (finished.load(std::memory_order_acquire) < kWriters &&
         scrapes < 5000) {
    ++scrapes;
    std::string metrics = Body(HttpGet(port, "/metrics"));
    ASSERT_FALSE(metrics.empty());
    uint64_t ops = 0;
    ASSERT_TRUE(ParsePrometheus(metrics, "fresque_pipeline_obs_cc_ops",
                                &ops))
        << metrics.substr(0, 400);
    ASSERT_GE(ops, last_ops) << "counter ran backwards";
    last_ops = ops;

    std::string statusz = Body(HttpGet(port, "/statusz"));
    ASSERT_TRUE(ValidateJsonSyntax(statusz).ok()) << statusz;
  }
  for (auto& w : writers) w.join();

  // Final scrape observes the complete total exactly.
  uint64_t ops = 0;
  ASSERT_TRUE(ParsePrometheus(Body(HttpGet(port, "/metrics")),
                              "fresque_pipeline_obs_cc_ops", &ops));
  EXPECT_EQ(ops, static_cast<uint64_t>(kWriters) * kOpsPerWriter);
  EXPECT_GT(scrapes, 1);

  server.Stop();
  // The sampler folded the writers' e2e samples into quantile gauges.
  EXPECT_GT(reg->GetGauge("pipeline.e2e_p99_ns")->Value(), 0);
  ResetE2eStateForTest();
  telemetry::Registry::Global()->ResetForTest();
}

// Sketch-focused stress: all writers into one sketch while a reader
// queries; exact weight conservation must hold at the end.
TEST(ObsConcurrencyTest, SketchSurvivesWritersPlusReader) {
  StreamingQuantiles sk;
  constexpr int kWriters = 8;
  constexpr uint64_t kPerWriter = 40000;
  std::atomic<bool> stop{false};
  std::thread reader([&sk, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)sk.QueryMany({0.5, 0.95, 0.99});
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&sk] {
      for (uint64_t i = 1; i <= kPerWriter; ++i) sk.Insert(i);
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(sk.Count(), kWriters * kPerWriter);
  EXPECT_EQ(sk.TotalWeight(), kWriters * kPerWriter);
}

// Batch writers (the cloud node's per-run InsertMany) racing a reader,
// alongside single-sample writers on the same stripes.
TEST(ObsConcurrencyTest, InsertManyWritersPlusReader) {
  StreamingQuantiles sk;
  constexpr int kBatchWriters = 4;
  constexpr int kSingleWriters = 2;
  constexpr uint64_t kPerWriter = 40000;
  std::atomic<bool> stop{false};
  std::thread reader([&sk, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)sk.QueryMany({0.5, 0.95, 0.99});
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kBatchWriters; ++t) {
    writers.emplace_back([&sk, t] {
      std::vector<uint64_t> run;
      uint64_t next = 1;
      size_t len = static_cast<size_t>(t) + 1;
      while (next <= kPerWriter) {
        run.clear();
        for (size_t i = 0; i < len && next <= kPerWriter; ++i) {
          run.push_back(next++);
        }
        sk.InsertMany(run.data(), run.size());
        len = len % 300 + 1;  // 1..300, crossing the stripe buffer
      }
    });
  }
  for (int t = 0; t < kSingleWriters; ++t) {
    writers.emplace_back([&sk] {
      for (uint64_t i = 1; i <= kPerWriter; ++i) sk.Insert(i);
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  constexpr uint64_t kTotal = (kBatchWriters + kSingleWriters) * kPerWriter;
  EXPECT_EQ(sk.Count(), kTotal);
  EXPECT_EQ(sk.TotalWeight(), kTotal);
  const uint64_t p50 = sk.Query(0.5);
  EXPECT_GT(p50, kPerWriter * 40 / 100);
  EXPECT_LT(p50, kPerWriter * 60 / 100);
}

}  // namespace
}  // namespace obs
}  // namespace fresque
