// Shard scale-out (DESIGN.md §17): aggregate ingest throughput of the
// sharded topology as the shard count grows, plus the per-shard
// imbalance under Zipf-skewed keys.
//
// The rows replay the shard topology (one router station in front of N
// full pipelines) in the calibrated simulator, the established
// substitution for multi-node scaling (DESIGN.md §2), over two cost
// tiers: the paper-cluster profile ("sim-paper") and costs measured from
// the real component code ("sim-measured"). The acceptance bar is
// >= 2.5x aggregate throughput at 4 shards. Live sharded throughput
// comes from bench/fresque_bench: nasa-1shard vs nasa-4shard, and its
// shard.imbalance metric.
//
// Skewed rows weight shard placement with the *empirical* per-shard
// mass of the Zipf key stream (sampled through the real ShardPlacement),
// so imbalance is measured, not assumed.

#include <string>
#include <vector>

#include "bench/arrivals.h"
#include "bench/bench_util.h"
#include "shard/partition.h"
#include "sim/pipeline.h"

using fresque::bench::Fmt;
using fresque::bench::TableWriter;
using fresque::bench::ValueOrExit;
using fresque::bench::ZipfKeySampler;

namespace {

constexpr size_t kZipfKeys = 1024;
constexpr double kZipfTheta = 0.99;

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

}  // namespace

int main() {
  fresque::bench::PrintEnvironmentHeader();
  TableWriter table("Shard scale-out: aggregate ingest throughput",
                    {"mode", "dataset", "keys", "shards", "k", "rps",
                     "speedup", "bottleneck"});

  // Two cost tiers, same as Fig 9: the paper-cluster profile (Table-2
  // Java/TCP anchors) and costs measured from this host's component code.
  auto w = fresque::bench::Workloads::MeasureAll();
  auto paper_nasa = fresque::sim::PaperProfileNasa();
  auto paper_gow = fresque::sim::PaperProfileGowalla();
  fresque::sim::SimConfig cfg;
  cfg.num_records = 2000000;
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
                 Fmt(r.throughput_rps / base, "%.2f"), r.bottleneck});
    }
    for (size_t shards : {size_t{4}, size_t{8}}) {
      auto weights = ZipfShardWeights(*ds.spec, shards);
      auto r = fresque::sim::SimulateShardedFresque(*ds.cm, 4, shards, cfg,
                                                    weights);
      table.Row({ds.mode, ds.name, "zipf0.99", std::to_string(shards), "4",
                 Fmt(r.throughput_rps, "%.0f"),
                 Fmt(r.throughput_rps / base, "%.2f"), r.bottleneck});
    }
  }
  table.WriteCsv("shard_scaling");
  return 0;
}
