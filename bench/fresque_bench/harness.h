#ifndef FRESQUE_BENCH_FRESQUE_BENCH_HARNESS_H_
#define FRESQUE_BENCH_FRESQUE_BENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/key_manager.h"
#include "index/index.h"
#include "record/dataset.h"
#include "shard/pipeline.h"

namespace fresque {
namespace fbench {

/// How the ingest caller offers records.
enum class Loop {
  /// The next Ingest is issued as soon as the previous one returns.
  kClosed,
  /// Poisson arrivals at a fixed rate; each record is stamped with the time
  /// it was due, so a stalled caller's backlog shows up as latency.
  kOpen,
};

/// One pinned workload. README.md records why each exists.
struct Workload {
  const char* name;
  const char* dataset;  ///< "nasa" or "gowalla"
  size_t shards;        ///< range shards; 1 is the unsharded pipeline
  size_t k;             ///< computing nodes per shard
  Loop loop;
  /// Records offered per measured second. For an open loop this is the
  /// offered rate; for a closed loop it only sizes the run (records =
  /// seconds x rate, about the capacity of a 4-core x86 host), so the
  /// work is fixed and a faster pipeline finishes sooner.
  double rate_rps;
  uint64_t publish_every;  ///< records per publication interval
  bool durable;            ///< WAL + snapshots under a fresh data dir
  /// Open-loop range queries per second beside ingest; 0 for none.
  double query_qps;
};

const std::vector<Workload>& Workloads();
/// nullptr when `name` is not a pinned workload.
const Workload* FindWorkload(const std::string& name);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 8;
  bool trace = false;
  /// Shrinks the run: a hundredth of the records, line pool and queries,
  /// a tenth of the publication interval.
  bool smoke = false;
  /// Durable workloads and the traced WAL write below this directory.
  std::string data_dir = ".bench_build/fresque_bench_data";
};

/// `n`, or a hundredth of it under --smoke, but never below `floor`.
uint64_t Scaled(const Options& o, double n, uint64_t floor = 1);

/// Records per publication interval.
uint64_t IntervalRecords(const Workload& w, const Options& o);

/// Records a run offers: seconds x rate, in whole intervals.
uint64_t RecordsToOffer(const Workload& w, const Options& o);

/// The workload's input: lines generated from the seed, offered in order
/// and cycled. Only these lines reach the program.
struct LinePool {
  record::DatasetSpec spec;
  std::vector<std::string> lines;

  const std::string& at(uint64_t i) const { return lines[i % lines.size()]; }
  /// Times line `idx` is among the first `offered` records.
  uint64_t Multiplicity(size_t idx, uint64_t offered) const;
};

LinePool MakeLinePool(const Workload& w, const Options& o);

/// The 64 query hot spots, hottest first: ranges covering 0.1% of the
/// domain, scattered over it by a golden-ratio walk so that hot spots are
/// not all at low values.
std::vector<index::RangeQuery> HotSpots(const record::DatasetSpec& spec);

/// `n` queries over the hot spots. Hot spot r gets its Zipf(0.99) share of
/// the `n` exactly (largest remainders) and the seed only shuffles the
/// order, so every seed asks the same mix and a latency percentile never
/// moves because the draw favoured a costly spot.
std::vector<index::RangeQuery> QueryDeck(const record::DatasetSpec& spec,
                                         size_t n, uint64_t seed);

/// Collector and shard settings every workload shares (fanout 16, eps 1,
/// delta 0.99, alpha 2, adaptive batching on, admission off) plus the
/// workload's shape. `data_dir` is used only by durable workloads.
shard::ShardedPipelineConfig MakePipelineConfig(const Workload& w,
                                                const record::DatasetSpec& spec,
                                                const std::string& data_dir);

crypto::KeyManager BenchKeys();

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Median of a sample (copied); 0 for an empty one.
double Median(std::vector<double> v);
/// Nearest-rank quantile of an unsorted sample (copied); 0 when empty.
double Quantile(std::vector<double> v, double q);

}  // namespace fbench
}  // namespace fresque

#endif  // FRESQUE_BENCH_FRESQUE_BENCH_HARNESS_H_
