// Telemetry hot-path microbenchmarks (not a paper figure): ns/op for the
// instrumentation primitives that sit inside the ingest path (DESIGN.md
// §11). Emits telemetry.json in the working directory so the numbers land
// next to the figure CSVs in results/.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

using Clock = std::chrono::steady_clock;

namespace {

// Keeps the measured expression's result alive without a memory fence,
// so the loop body is not optimized away.
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
  // One warmup pass so lazy registration (function-local statics) is paid
  // before the timed region.
  fn();
  auto t0 = Clock::now();
  for (uint64_t i = 0; i < iterations; ++i) fn();
  double ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  return {name, iterations, ns / static_cast<double>(iterations)};
}

}  // namespace

int main() {
  using fresque::telemetry::Counter;
  using fresque::telemetry::Gauge;
  using fresque::telemetry::Histogram;
  using fresque::telemetry::Registry;

  constexpr uint64_t kIters = 5'000'000;
  std::vector<BenchResult> results;

  Registry reg;
  Counter* counter = reg.GetCounter("bench.counter");
  Gauge* gauge = reg.GetGauge("bench.gauge");
  Histogram* hist = reg.GetHistogram("bench.hist");

  results.push_back(Bench("counter_add", kIters, [&] { counter->Add(1); }));
  results.push_back(Bench("gauge_set", kIters, [&] { gauge->Set(42); }));
  uint64_t v = 0;
  results.push_back(
      Bench("histogram_record", kIters, [&] { hist->Record(v += 977); }));

  // The macro path adds the function-local-static load on top of the raw
  // atomic; this is what the pipeline call sites actually pay.
  results.push_back(Bench("counter_macro", kIters, [] {
    FRESQUE_COUNTER_ADD("bench.macro_counter", 1);
  }));
  results.push_back(Bench("histogram_macro", kIters, [] {
    FRESQUE_HISTOGRAM_RECORD("bench.macro_hist", 12345);
  }));

  results.push_back(Bench("now_nanos", kIters, [] {
    Keep(fresque::telemetry::NowNanos());
  }));

  // Snapshot/export scale with registry size, not ingest rate; measured
  // at a realistic metric population so the dump-interval cost is known.
  for (int i = 0; i < 64; ++i) {
    reg.GetCounter("bench.pop.c" + std::to_string(i))->Add(1);
    reg.GetHistogram("bench.pop.h" + std::to_string(i))->Record(i);
  }
  results.push_back(Bench("snapshot_128_metrics", 2000, [&] {
    Keep(reg.Snapshot().counters.size());
  }));
  results.push_back(Bench("prometheus_export_128_metrics", 500, [&] {
    Keep(fresque::telemetry::ToPrometheusText(reg.Snapshot()).size());
  }));

  fresque::bench::TableWriter table(
      "Telemetry primitive cost (single thread, uncontended)",
      {"op", "iterations", "ns_per_op"});
  for (const auto& r : results) {
    table.Row({r.name, std::to_string(r.iterations),
               fresque::bench::Fmt(r.ns_per_op, "%.2f")});
  }

  std::ofstream json("telemetry.json");
  json << "{\n  \"primitives\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    json << "    {\"op\": \"" << r.name
         << "\", \"iterations\": " << r.iterations
         << ", \"ns_per_op\": " << r.ns_per_op << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "[json] telemetry.json\n";
  return 0;
}
