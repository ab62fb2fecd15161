// Observability-plane microbenchmarks (DESIGN.md §16): the cost of every
// hook the obs plane puts on or near the hot path, plus the scrape cost a
// live /metrics + /statusz endpoint pays while the pipeline is being
// hammered. Emits obs.json in the working directory so the numbers land
// next to the other results/ artifacts.
//
// The numbers to watch:
//   note_e2e_dormant  — paid per record even with no obs server
//                       running; must stay a few ns (three relaxed atomic
//                       ops, no clock read).
//   scrape_metrics_*  — wall-clock of GET /metrics under write load; the
//                       sampler folds quantiles off-scrape, so this must
//                       scale with registry size, not with sample count.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "net/tcp.h"
#include "obs/flight_recorder.h"
#include "obs/quantiles.h"
#include "obs/sampler.h"
#include "obs/server.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

using Clock = std::chrono::steady_clock;

namespace {

template <typename T>
inline void Keep(const T& value) {
  asm volatile("" : : "r,m"(value) : );
}

struct BenchResult {
  std::string name;
  uint64_t iterations;
  double ns_per_op;
};

template <typename Fn>
BenchResult Bench(const std::string& name, uint64_t iterations, Fn&& fn) {
  fn();  // warmup: lazy registration happens outside the timed region
  auto t0 = Clock::now();
  for (uint64_t i = 0; i < iterations; ++i) fn();
  double ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  return {name, iterations, ns / static_cast<double>(iterations)};
}

std::string HttpGet(uint16_t port, const std::string& path) {
  auto conn = fresque::net::TcpConnect(port);
  if (!conn.ok()) return "";
  std::string raw = "GET " + path +
                    " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  if (!conn->WriteRaw(reinterpret_cast<const uint8_t*>(raw.data()),
                      raw.size())
           .ok()) {
    return "";
  }
  std::string response;
  uint8_t buf[8192];
  for (;;) {
    auto n = conn->ReadSome(buf, sizeof(buf));
    if (!n.ok() || *n == 0) break;
    response.append(reinterpret_cast<const char*>(buf), *n);
  }
  return response;
}

}  // namespace

int main() {
  using fresque::obs::FlightCategory;
  using fresque::obs::FlightRecorder;
  using fresque::obs::StreamingQuantiles;

  constexpr uint64_t kIters = 5'000'000;
  std::vector<BenchResult> results;

  // --- NoteE2eSample in its three states -------------------------------
  // Two-arg form, exactly as the e2e site calls it: the caller passes the
  // clock it already read to compute e2e, so dormant pays no clock read.
  fresque::obs::ResetE2eStateForTest();
  int64_t ns = 1;
  results.push_back(Bench("note_e2e_dormant", kIters, [&] {
    ns += 977;
    fresque::obs::NoteE2eSample(ns, ns);
  }));

  fresque::obs::SetSloE2eTargetNs(1'000'000);
  results.push_back(Bench("note_e2e_slo_counting", kIters, [&] {
    ns += 977;
    fresque::obs::NoteE2eSample(ns, ns);
  }));

  fresque::obs::SetE2eSamplingActive(true);
  results.push_back(Bench("note_e2e_active_sketch", kIters, [&] {
    ns += 977;
    fresque::obs::NoteE2eSample(ns, ns);
  }));
  fresque::obs::ResetE2eStateForTest();

  // --- sketch primitives ------------------------------------------------
  {
    StreamingQuantiles sk;
    uint64_t v = 0;
    results.push_back(
        Bench("sketch_insert", kIters, [&] { sk.Insert(v += 977); }));
    results.push_back(Bench("sketch_query_p50_p95_p99", 2000, [&] {
      Keep(sk.QueryMany({0.5, 0.95, 0.99}).size());
    }));
  }
  {
    // Contended insert: 8 writers into one sketch; per-op cost includes
    // stripe contention and the shared-compactor folds.
    StreamingQuantiles sk;
    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 2'000'000;
    auto t0 = Clock::now();
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&sk] {
        for (uint64_t i = 1; i <= kPerThread; ++i) sk.Insert(i);
      });
    }
    for (auto& th : threads) th.join();
    double total_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
    results.push_back({"sketch_insert_8writers", kThreads * kPerThread,
                       total_ns / (kThreads * kPerThread)});
  }

  // --- flight recorder --------------------------------------------------
  {
    FlightRecorder rec(4096);
    int64_t i = 0;
    results.push_back(Bench("flight_record", kIters, [&] {
      rec.Record(FlightCategory::kPublication, "bench event", ++i, 2, 3);
    }));
  }

  // --- live scrape under write load -------------------------------------
  auto* reg = fresque::telemetry::Registry::Global();
  // Realistic registry population (the live pipeline registers ~100).
  for (int i = 0; i < 48; ++i) {
    reg->GetCounter("bench.obs.c" + std::to_string(i))->Add(1);
    reg->GetHistogram("bench.obs.h" + std::to_string(i))->Record(i);
  }

  fresque::obs::ObsServerOptions opts;
  opts.host = "127.0.0.1";
  opts.port = 0;
  opts.sample_interval_ms = 10;
  opts.status_source = [] {
    fresque::obs::StatusSnapshot s;
    for (int i = 0; i < 6; ++i) {
      s.nodes.push_back({"cn" + std::to_string(i), 17, 8192, 4096, 123456});
    }
    s.view_epoch = 42;
    return s;
  };
  fresque::obs::ObsServer server(std::move(opts));
  if (!server.Start().ok()) {
    std::cerr << "obs server failed to start\n";
    return 1;
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(8);
  for (int t = 0; t < 8; ++t) {
    writers.emplace_back([reg, &stop] {
      auto* c = reg->GetCounter("bench.obs.hot");
      auto* h = reg->GetHistogram("bench.obs.hot_ns");
      uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        c->Add(1);
        h->Record(++i * 37);
        fresque::obs::NoteE2eSample(static_cast<int64_t>(i) * 11 + 1,
                                    static_cast<int64_t>(i));
      }
    });
  }

  constexpr int kScrapes = 300;
  std::vector<double> metrics_ms, statusz_ms;
  metrics_ms.reserve(kScrapes);
  statusz_ms.reserve(kScrapes);
  size_t body_bytes = 0;
  for (int i = 0; i < kScrapes; ++i) {
    auto t0 = Clock::now();
    std::string resp = HttpGet(server.port(), "/metrics");
    metrics_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count());
    body_bytes = resp.size();
    t0 = Clock::now();
    Keep(HttpGet(server.port(), "/statusz").size());
    statusz_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count());
  }
  stop.store(true, std::memory_order_release);
  for (auto& w : writers) w.join();
  server.Stop();
  fresque::obs::ResetE2eStateForTest();

  std::sort(metrics_ms.begin(), metrics_ms.end());
  std::sort(statusz_ms.begin(), statusz_ms.end());
  const double scrape_p50 = fresque::bench::Percentile(metrics_ms, 0.50);
  const double scrape_p99 = fresque::bench::Percentile(metrics_ms, 0.99);
  const double status_p50 = fresque::bench::Percentile(statusz_ms, 0.50);
  const double status_p99 = fresque::bench::Percentile(statusz_ms, 0.99);

  fresque::bench::TableWriter table(
      "Observability plane cost",
      {"op", "iterations", "ns_per_op"});
  for (const auto& r : results) {
    table.Row({r.name, std::to_string(r.iterations),
               fresque::bench::Fmt(r.ns_per_op, "%.2f")});
  }
  std::cout << "scrape /metrics under load: p50 " << scrape_p50
            << " ms, p99 " << scrape_p99 << " ms (" << body_bytes
            << " B body)\n"
            << "scrape /statusz under load: p50 " << status_p50
            << " ms, p99 " << status_p99 << " ms\n";

  std::ofstream json("obs.json");
  json << "{\n  \"primitives\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    json << "    {\"op\": \"" << r.name
         << "\", \"iterations\": " << r.iterations
         << ", \"ns_per_op\": " << r.ns_per_op << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"scrape_under_load\": {\n"
       << "    \"writer_threads\": 8,\n    \"scrapes\": " << kScrapes
       << ",\n    \"metrics_p50_ms\": " << scrape_p50
       << ",\n    \"metrics_p99_ms\": " << scrape_p99
       << ",\n    \"metrics_body_bytes\": " << body_bytes
       << ",\n    \"statusz_p50_ms\": " << status_p50
       << ",\n    \"statusz_p99_ms\": " << status_p99 << "\n  }\n}\n";
  std::cout << "[json] obs.json\n";
  return 0;
}
