// Shard scale-out (DESIGN.md §17): aggregate ingest throughput of the
// sharded pipeline as the shard count grows, plus the per-shard queue
// imbalance under Zipf-skewed keys.
//
// Two evidence tiers, like every throughput figure in this repo:
//
//  - "live" rows drive the real ShardedPipeline threads on this host.
//    All shards share its 4 cores, so live rows show functionality,
//    1-shard parity with the unsharded collector, the skew -> watermark
//    relationship and what scaling 4 cores allow — not the paper's
//    cluster. bench/fresque_bench has the current live numbers.
//  - "sim" rows replay the shard topology (one router station in front
//    of N full pipelines) in the calibrated simulator over costs
//    measured from the real component code — the established
//    substitution for multi-node scaling on this host (DESIGN.md §2).
//    The acceptance bar is >= 2.5x aggregate throughput at 4 shards.
//
// Skewed sim rows weight shard placement with the *empirical* per-shard
// mass of the Zipf key stream (sampled through the real ShardPlacement),
// so imbalance is measured, not assumed.

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/arrivals.h"
#include "bench/bench_util.h"
#include "bench/drivers.h"
#include "common/clock.h"
#include "shard/pipeline.h"
#include "sim/pipeline.h"

using fresque::Stopwatch;
using fresque::bench::Fmt;
using fresque::bench::MakeConfig;
using fresque::bench::TableWriter;
using fresque::bench::ValueOrExit;
using fresque::bench::ZipfKeyedLineGen;
using fresque::bench::ZipfKeySampler;

namespace {

constexpr size_t kZipfKeys = 1024;
constexpr double kZipfTheta = 0.99;

struct LiveOutcome {
  double rps = 0;
  uint64_t routed = 0;
  uint64_t fallbacks = 0;
  size_t max_watermark = 0;
  std::vector<size_t> watermarks;
  size_t cloud_records = 0;
};

/// One live run: ingest `lines` through a ShardedPipeline of `shards`
/// range shards and report throughput + per-shard ingress watermarks.
LiveOutcome RunLive(const fresque::record::DatasetSpec& spec, size_t shards,
                    const std::vector<std::string>& lines) {
  fresque::shard::ShardedPipelineConfig cfg;
  // 2 computing nodes per shard: with every shard on the same 4 cores,
  // more threads add scheduler churn, not capacity, and the sim rows own
  // the k sweep.
  cfg.collector = MakeConfig(spec, 2);
  cfg.shard.num_shards = shards;
  cfg.shard.shard_by = fresque::shard::ShardBy::kRange;
  fresque::crypto::KeyManager keys(fresque::Bytes(32, 0x42));
  fresque::shard::ShardedPipeline pipe(cfg, keys);
  auto st = pipe.Start();
  if (!st.ok()) {
    std::cerr << "sharded pipeline start failed: " << st.ToString() << "\n";
    std::exit(1);
  }
  Stopwatch watch;
  for (const auto& line : lines) (void)pipe.Ingest(line);
  (void)pipe.Shutdown();  // drains + publishes every shard's open interval
  const double seconds = watch.ElapsedSeconds();

  LiveOutcome out;
  out.rps = static_cast<double>(lines.size()) / seconds;
  auto m = pipe.Metrics();
  out.routed = m.router.routed;
  out.fallbacks = m.router.extract_fallbacks;
  for (const auto& s : m.shards) {
    out.watermarks.push_back(s.ingress_high_watermark);
    out.max_watermark = std::max(out.max_watermark, s.ingress_high_watermark);
  }
  out.cloud_records = pipe.cloud()->total_records();
  if (!pipe.first_error().ok()) {
    std::cerr << "shard error: " << pipe.first_error().ToString() << "\n";
  }
  return out;
}

/// Unsharded baseline for the 1-shard parity row, measured exactly like
/// bench_live_throughput.
double DirectThroughput(const fresque::record::DatasetSpec& spec,
                        const std::vector<std::string>& lines) {
  auto cfg = MakeConfig(spec, 2);
  fresque::cloud::CloudServer server(fresque::bench::BinningOf(spec));
  fresque::engine::CloudNode cloud_node(&server, cfg.mailbox_capacity);
  cloud_node.Start();
  fresque::crypto::KeyManager keys(fresque::Bytes(32, 0x42));
  fresque::engine::FresqueCollector collector(cfg, keys, cloud_node.inbox());
  (void)collector.Start();
  Stopwatch watch;
  for (const auto& line : lines) (void)collector.Ingest(line);
  (void)collector.Publish();
  (void)collector.Shutdown();
  const double seconds = watch.ElapsedSeconds();
  cloud_node.Shutdown();
  return static_cast<double>(lines.size()) / seconds;
}

std::vector<std::string> ZipfLines(const fresque::record::DatasetSpec& spec,
                                   size_t n, uint64_t seed) {
  auto base = ValueOrExit(fresque::record::MakeGenerator(spec, seed));
  ZipfKeyedLineGen gen(spec, std::move(base), kZipfKeys, kZipfTheta, seed);
  std::vector<std::string> lines;
  lines.reserve(n);
  for (size_t i = 0; i < n; ++i) lines.push_back(gen.NextLine());
  return lines;
}

/// Empirical per-shard mass of the Zipf key stream through the real
/// placement — the weights the skewed sim rows use.
std::vector<double> ZipfShardWeights(const fresque::record::DatasetSpec& spec,
                                     size_t shards) {
  fresque::shard::ShardOptions opts;
  opts.num_shards = shards;
  auto placement =
      ValueOrExit(fresque::shard::ShardPlacement::Create(spec, opts));
  ZipfKeySampler sampler(kZipfKeys, kZipfTheta, /*seed=*/7);
  std::vector<double> w(shards, 0);
  constexpr size_t kSamples = 100000;
  for (size_t i = 0; i < kSamples; ++i) {
    const double key = ZipfKeySampler::KeyForRank(
        sampler.NextRank(), spec.domain_min, spec.domain_max - 1);
    w[placement.ShardOf(key)] += 1.0;
  }
  return w;
}

std::string JoinWatermarks(const std::vector<size_t>& w) {
  std::string s;
  for (size_t i = 0; i < w.size(); ++i) {
    if (i) s += "|";
    s += std::to_string(w[i]);
  }
  return s;
}

}  // namespace

int main() {
  fresque::bench::PrintEnvironmentHeader();
  const char* smoke_env = std::getenv("FRESQUE_BENCH_SMOKE");
  const bool smoke = smoke_env != nullptr && smoke_env[0] == '1';
  const size_t live_records = smoke ? 20000 : 120000;

  auto nasa = ValueOrExit(fresque::record::NasaDataset());

  TableWriter table("Shard scale-out: aggregate ingest throughput",
                    {"mode", "dataset", "keys", "shards", "k", "rps",
                     "speedup", "bottleneck", "ingress_watermarks",
                     "router_fallbacks"});

  // ---- live rows (this 4-core host: functionality + parity) -----------
  auto uniform_lines = fresque::bench::GenerateLines(nasa, live_records, 555);
  const double direct = DirectThroughput(nasa, uniform_lines);
  table.Row({"live", "nasa", "uniform", "0(unsharded)", "2",
             Fmt(direct, "%.0f"), "1.00", "-", "-", "0"});
  double live1 = 0;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    auto out = RunLive(nasa, shards, uniform_lines);
    if (shards == 1) live1 = out.rps;
    table.Row({"live", "nasa", "uniform", std::to_string(shards), "2",
               Fmt(out.rps, "%.0f"), Fmt(out.rps / direct, "%.2f"), "-",
               JoinWatermarks(out.watermarks),
               std::to_string(out.fallbacks)});
    if (out.routed != uniform_lines.size()) {
      std::cerr << "conservation: routed " << out.routed << " != ingested "
                << uniform_lines.size() << "\n";
      return 1;
    }
  }
  std::cout << "1-shard parity: " << Fmt(100.0 * live1 / direct, "%.1f")
            << "% of the unsharded collector\n";

  // Skewed keys: the watermark spread is the point of this row.
  auto zipf_lines = ZipfLines(nasa, live_records, 556);
  auto zl = RunLive(nasa, 4, zipf_lines);
  table.Row({"live", "nasa", "zipf0.99", "4", "2", Fmt(zl.rps, "%.0f"),
             Fmt(zl.rps / direct, "%.2f"), "-", JoinWatermarks(zl.watermarks),
             std::to_string(zl.fallbacks)});

  // ---- sim rows (calibrated scaling evidence) -------------------------
  // Two cost tiers, same as Fig 9: the paper-cluster profile (Table-2
  // Java/TCP anchors) and costs measured from this host's component code.
  auto w = fresque::bench::Workloads::MeasureAll(smoke ? 2000 : 20000);
  auto paper_nasa = fresque::sim::PaperProfileNasa();
  auto paper_gow = fresque::sim::PaperProfileGowalla();
  fresque::sim::SimConfig cfg;
  cfg.num_records = smoke ? 100000 : 2000000;
  struct Ds {
    const char* mode;
    const char* name;
    const fresque::sim::CostModel* cm;
    const fresque::record::DatasetSpec* spec;
  };
  const Ds sets[] = {{"sim-paper", "nasa", &paper_nasa, &w.nasa},
                     {"sim-paper", "gowalla", &paper_gow, &w.gowalla},
                     {"sim-measured", "nasa", &w.nasa_costs, &w.nasa},
                     {"sim-measured", "gowalla", &w.gowalla_costs, &w.gowalla}};
  for (const auto& ds : sets) {
    double base = 0;
    for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      auto r = fresque::sim::SimulateShardedFresque(*ds.cm, 4, shards, cfg);
      if (shards == 1) base = r.throughput_rps;
      table.Row({ds.mode, ds.name, "uniform", std::to_string(shards), "4",
                 Fmt(r.throughput_rps, "%.0f"),
                 Fmt(r.throughput_rps / base, "%.2f"), r.bottleneck, "-",
                 "0"});
    }
    for (size_t shards : {size_t{4}, size_t{8}}) {
      auto weights = ZipfShardWeights(*ds.spec, shards);
      auto r = fresque::sim::SimulateShardedFresque(*ds.cm, 4, shards, cfg,
                                                    weights);
      table.Row({ds.mode, ds.name, "zipf0.99", std::to_string(shards), "4",
                 Fmt(r.throughput_rps, "%.0f"),
                 Fmt(r.throughput_rps / base, "%.2f"), r.bottleneck, "-",
                 "0"});
    }
  }
  table.WriteCsv("shard_scaling");
  return 0;
}
