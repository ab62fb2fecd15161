// Mixed workload: range queries served *during* ingest (DESIGN.md §15).
//
// The concurrent query engine's pitch is that serving reads must not
// stall the ingestion pipeline: queries pin an immutable view and scan
// it lock-free, touching the server mutex only to copy the open
// publication's matching pairs. This bench quantifies that. It first
// measures ingest-only throughput over a pre-populated store (the
// query-off baseline), then repeats the identical ingest run with a
// closed-loop query thread issuing Zipf-skewed ranges at a fixed rate
// through a QueryExecutor, and reports the ingest degradation plus the
// query latency distribution.
//
// Every stage shares the bench host's 4 cores, so the degradation
// numbers are an upper bound: any CPU a query burns is CPU ingest
// cannot use. The acceptance bar is <= 5% ingest degradation at the
// configured read rates.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/arrivals.h"
#include "bench/bench_util.h"
#include "bench/drivers.h"
#include "common/clock.h"
#include "query/executor.h"

using fresque::Stopwatch;
using fresque::bench::BinningOf;
using fresque::bench::Fmt;
using fresque::bench::MakeConfig;
using fresque::bench::Median;
using fresque::bench::Percentile;
using fresque::bench::TableWriter;
using fresque::bench::ValueOrExit;
using fresque::bench::ZipfKeySampler;

namespace {

constexpr double kSelectivity = 0.001;  // 0.1% of the domain per query

/// Workload sizing. The defaults give a ~2 s measured window per run —
/// long enough that a 5% ingest delta is signal, not scheduler noise.
/// FRESQUE_BENCH_SMOKE=1 shrinks everything for sanitizer CI runs, where
/// the point is exercising the concurrent ingest+query path, not the
/// throughput numbers.
struct BenchConfig {
  int prepop_intervals = 2;
  int prepop_records_per_interval = 20000;
  int measured_records = 2000000;
  // Publish every 1/Nth of the measured batch (both modes): the open
  // publication's matching pairs are scanned under the server mutex, so
  // an unbounded open set would make query cost grow with ingest
  // progress — real deployments publish on a cadence for this reason.
  int measured_publishes = 8;
  int reps = 5;
  std::vector<double> qps_points{20.0, 50.0};
};

BenchConfig MakeBenchConfig() {
  BenchConfig c;
  const char* smoke = std::getenv("FRESQUE_BENCH_SMOKE");
  if (smoke != nullptr && smoke[0] == '1') {
    c.prepop_records_per_interval = 5000;
    c.measured_records = 60000;
    c.measured_publishes = 2;
    c.reps = 1;
    c.qps_points = {50.0};
  }
  return c;
}

/// Zipf-ranked query origin over 64 hot spots (bench/arrivals.h sampler,
/// theta 0.99 ~ the 1/r shape), so a handful of leaf runs absorb most
/// queries — the skew the leaf-descriptor cache is built for.
class ZipfRanges {
 public:
  ZipfRanges(double domain_min, double domain_max, uint64_t seed)
      : lo_(domain_min),
        span_(domain_max - domain_min),
        sampler_(/*num_keys=*/64, /*theta=*/0.99, seed) {}

  fresque::index::RangeQuery Next() {
    double start = ZipfKeySampler::KeyForRank(
        sampler_.NextRank(), lo_, lo_ + span_ * (1.0 - kSelectivity));
    return {start, start + kSelectivity * span_};
  }

 private:
  double lo_;
  double span_;
  ZipfKeySampler sampler_;
};

struct MixedResult {
  double ingest_rps = 0;
  std::vector<double> query_ms;  ///< sorted on return
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t executed = 0;
};

/// One full run: populate the store from `prepop`, then ingest `lines`
/// while (optionally) a closed-loop reader issues `qps` queries per
/// second. Both line batches are generated once by the caller so every
/// run — baseline or mixed — ingests byte-identical input.
MixedResult RunMixed(const fresque::record::DatasetSpec& spec,
                     const BenchConfig& bc,
                     const std::vector<std::string>& prepop,
                     const std::vector<std::string>& lines, double qps) {
  fresque::cloud::CloudServer server(BinningOf(spec));
  fresque::engine::CloudNode cloud_node(&server);
  cloud_node.Start();
  fresque::crypto::KeyManager keys(fresque::Bytes(32, 0x42));
  auto cfg = MakeConfig(spec, 4);
  cfg.delta = 0.51;
  fresque::engine::FresqueCollector collector(cfg, keys, cloud_node.inbox());
  (void)collector.Start();

  for (size_t i = 0; i < prepop.size(); ++i) {
    (void)collector.Ingest(prepop[i]);
    if ((i + 1) % bc.prepop_records_per_interval == 0) {
      (void)collector.Publish();
    }
  }

  MixedResult out;
  std::atomic<bool> stop{false};
  std::thread reader;
  fresque::query::ExecutorOptions eo;
  eo.num_threads = 1;
  eo.queue_capacity = 16;
  eo.default_deadline = std::chrono::milliseconds(100);
  fresque::query::QueryExecutor executor(
      [&server](const fresque::index::RangeQuery& q,
                const fresque::query::QueryContext& ctx) {
        return server.ExecuteQuery(q, ctx);
      },
      eo);

  if (qps > 0) {
    reader = std::thread([&] {
      ZipfRanges ranges(spec.domain_min, spec.domain_max, 4242);
      auto t0 = std::chrono::steady_clock::now();
      uint64_t issued = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto next = t0 + std::chrono::nanoseconds(
                             static_cast<int64_t>(issued * 1e9 / qps));
        std::this_thread::sleep_until(next);
        if (stop.load(std::memory_order_relaxed)) break;
        ++issued;
        Stopwatch w;
        auto r = executor.Execute(ranges.Next());
        if (r.ok()) out.query_ms.push_back(w.ElapsedMillis());
      }
    });
  }

  const size_t publish_every = lines.size() / bc.measured_publishes;
  Stopwatch watch;
  for (size_t i = 0; i < lines.size(); ++i) {
    (void)collector.Ingest(lines[i]);
    if ((i + 1) % publish_every == 0) (void)collector.Publish();
  }
  (void)collector.Shutdown();  // waits for the pipeline to drain
  double seconds = watch.ElapsedSeconds();

  stop = true;
  if (reader.joinable()) reader.join();
  executor.Shutdown();
  cloud_node.Shutdown();

  auto m = executor.metrics();
  out.shed = m.shed;
  out.deadline_exceeded = m.deadline_exceeded;
  out.executed = m.executed;
  out.ingest_rps = static_cast<double>(bc.measured_records) / seconds;
  std::sort(out.query_ms.begin(), out.query_ms.end());
  return out;
}

}  // namespace

int main() {
  fresque::bench::PrintEnvironmentHeader();
  auto spec = ValueOrExit(fresque::record::GowallaDataset());
  BenchConfig bc = MakeBenchConfig();

  TableWriter table(
      "Mixed workload: ingest throughput with concurrent range queries",
      {"mode", "qps", "ingest_rps", "ingest_delta_pct", "query_p50_ms",
       "query_p99_ms", "queries_ok", "shed", "deadline_exceeded"});

  // Generate every input line once: baseline and mixed runs ingest
  // byte-identical batches, so the only difference between modes is the
  // query load itself.
  auto prepop = fresque::bench::GenerateLines(
      spec,
      static_cast<size_t>(bc.prepop_intervals) *
          static_cast<size_t>(bc.prepop_records_per_interval),
      99);
  auto lines = fresque::bench::GenerateLines(
      spec, static_cast<size_t>(bc.measured_records), 100);

  // Interleaved measurement: baseline and mixed runs alternate within
  // each rep, and the reported degradation compares the medians of the
  // interleaved samples. A baseline measured minutes before the mixed
  // runs would let slow machine-state drift masquerade as query
  // overhead (or hide it); interleaving cancels the drift and the
  // median discards scheduler outliers.
  (void)RunMixed(spec, bc, prepop, lines, 0);  // warmup, discarded
  std::vector<double> base_rps;
  struct QpsAgg {
    std::vector<double> rps, query_ms;
    uint64_t executed = 0, shed = 0, deadline_exceeded = 0;
  };
  std::vector<QpsAgg> agg(bc.qps_points.size());
  for (int rep = 0; rep < bc.reps; ++rep) {
    base_rps.push_back(RunMixed(spec, bc, prepop, lines, 0).ingest_rps);
    for (size_t i = 0; i < bc.qps_points.size(); ++i) {
      MixedResult m = RunMixed(spec, bc, prepop, lines, bc.qps_points[i]);
      agg[i].rps.push_back(m.ingest_rps);
      agg[i].query_ms.insert(agg[i].query_ms.end(), m.query_ms.begin(),
                             m.query_ms.end());
      agg[i].executed += m.executed;
      agg[i].shed += m.shed;
      agg[i].deadline_exceeded += m.deadline_exceeded;
    }
  }

  double base_med = Median(base_rps);
  table.Row({"ingest-only", "0", Fmt(base_med, "%.0f"), "0.0", "-", "-", "0",
             "0", "0"});
  for (size_t i = 0; i < bc.qps_points.size(); ++i) {
    std::sort(agg[i].query_ms.begin(), agg[i].query_ms.end());
    double med = Median(agg[i].rps);
    table.Row({"mixed", Fmt(bc.qps_points[i], "%.0f"), Fmt(med, "%.0f"),
               Fmt((base_med - med) / base_med * 100.0, "%.1f"),
               Fmt(Percentile(agg[i].query_ms, 0.50), "%.2f"),
               Fmt(Percentile(agg[i].query_ms, 0.99), "%.2f"),
               std::to_string(agg[i].executed), std::to_string(agg[i].shed),
               std::to_string(agg[i].deadline_exceeded)});
  }
  table.WriteCsv("mixed_workload");
  return 0;
}
