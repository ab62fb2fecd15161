// Live-mode throughput: drives the *real threaded* collectors (not the
// simulator) as fast as this host can feed them and reports sustained
// records/second. The stages share the host's 4 cores, so this measures
// each prototype's per-record CPU cost under that contention, not the
// paper's 17-node parallelism — those shapes come from the calibrated
// simulator (Figs 9-12). Current live numbers for the reference workloads
// come from bench/fresque_bench.

#include "bench/bench_util.h"
#include "bench/drivers.h"
#include "common/clock.h"

using fresque::Stopwatch;
using fresque::bench::BinningOf;
using fresque::bench::Fmt;
using fresque::bench::MakeConfig;
using fresque::bench::TableWriter;
using fresque::bench::ValueOrExit;

namespace {

template <typename Collector>
double LiveThroughput(const fresque::engine::CollectorConfig& cfg,
                      const fresque::record::DatasetSpec& spec,
                      uint64_t records) {
  fresque::cloud::CloudServer server(BinningOf(spec));
  fresque::engine::CloudNode cloud_node(&server, cfg.mailbox_capacity);
  cloud_node.Start();
  fresque::crypto::KeyManager keys(fresque::Bytes(32, 0x42));
  Collector collector(cfg, keys, cloud_node.inbox());
  (void)collector.Start();

  auto lines = fresque::bench::GenerateLines(spec, records, 555);

  Stopwatch watch;
  for (auto& line : lines) (void)collector.Ingest(line);
  (void)collector.Publish();
  (void)collector.Shutdown();  // waits for the pipeline to drain
  double seconds = watch.ElapsedSeconds();
  cloud_node.Shutdown();
  return static_cast<double>(records) / seconds;
}

}  // namespace

int main() {
  fresque::bench::PrintEnvironmentHeader();
  auto nasa = ValueOrExit(fresque::record::NasaDataset());
  auto gowalla = ValueOrExit(fresque::record::GowallaDataset());
  constexpr uint64_t kRecords = 100000;

  TableWriter table(
      "Live threaded pipeline throughput on this host (records/s)",
      {"prototype", "nasa_rps", "gowalla_rps"});
  auto cfg_n = MakeConfig(nasa, 4);
  auto cfg_g = MakeConfig(gowalla, 4);

  table.Row({"fresque(k=4)",
             Fmt(LiveThroughput<fresque::engine::FresqueCollector>(
                     cfg_n, nasa, kRecords),
                 "%.0f"),
             Fmt(LiveThroughput<fresque::engine::FresqueCollector>(
                     cfg_g, gowalla, kRecords),
                 "%.0f")});
  table.Row(
      {"parallel-pp(k=4)",
       Fmt(LiveThroughput<fresque::engine::ParallelPinedRqPpCollector>(
               cfg_n, nasa, kRecords),
           "%.0f"),
       Fmt(LiveThroughput<fresque::engine::ParallelPinedRqPpCollector>(
               cfg_g, gowalla, kRecords),
           "%.0f")});
  table.Row({"pined-rq++",
             Fmt(LiveThroughput<fresque::engine::PinedRqPpCollector>(
                     cfg_n, nasa, kRecords),
                 "%.0f"),
             Fmt(LiveThroughput<fresque::engine::PinedRqPpCollector>(
                     cfg_g, gowalla, kRecords),
                 "%.0f")});
  table.Row({"pined-rq(batch)",
             Fmt(LiveThroughput<fresque::engine::PinedRqCollector>(
                     cfg_n, nasa, kRecords),
                 "%.0f"),
             Fmt(LiveThroughput<fresque::engine::PinedRqCollector>(
                     cfg_g, gowalla, kRecords),
                 "%.0f")});
  table.WriteCsv("live_throughput");
  return 0;
}
