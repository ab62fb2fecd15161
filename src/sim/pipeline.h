#ifndef FRESQUE_SIM_PIPELINE_H_
#define FRESQUE_SIM_PIPELINE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/cost_model.h"

namespace fresque {
namespace sim {

/// One service center of the queueing network: `servers` identical
/// servers, FIFO, work-conserving. Process() assigns an arriving record to
/// the earliest-free server and returns its departure time — the classic
/// next-free-time multi-server discipline for deterministic service.
class MultiServerStation {
 public:
  MultiServerStation(std::string name, size_t servers);

  /// Returns the departure time of a record arriving at `arrival` needing
  /// `service` seconds.
  double Process(double arrival, double service);

  const std::string& name() const { return name_; }
  size_t servers() const { return free_at_.size(); }
  /// Total busy seconds across servers (utilization accounting).
  double busy_seconds() const { return busy_; }
  uint64_t processed() const { return processed_; }

 private:
  std::string name_;
  std::vector<double> free_at_;  // min-heap by next free time
  double busy_ = 0;
  uint64_t processed_ = 0;
};

/// Outcome of simulating one prototype at one configuration.
struct SimResult {
  std::string prototype;
  std::string dataset;
  size_t computing_nodes = 0;
  uint64_t records = 0;
  double makespan_seconds = 0;
  /// Saturation ingestion throughput (records/s at the collector).
  double throughput_rps = 0;
  /// Station with the highest utilization.
  std::string bottleneck;
  /// name -> utilization in [0, 1].
  std::map<std::string, double> utilization;
  /// Collector sojourn time per record (arrival -> checking-node exit),
  /// meaningful when an offered rate below capacity is set; 0 in
  /// closed-loop mode (queueing delay is then unbounded by design).
  double mean_latency_seconds = 0;
  double p99_latency_seconds = 0;
};

/// Offered arrival rate: records/s, or 0 for closed-loop saturation (the
/// source always has the next record ready — measures capacity, which is
/// what the paper's 200k/s offered rate effectively does to its cluster).
struct SimConfig {
  uint64_t num_records = 1000000;
  double offered_rate_rps = 0;
  /// Extra per-message network cost added to every inter-node hop, on top
  /// of the measured in-process hop. 0 = pure measured costs; set to a
  /// measured TCP-loopback cost to emulate the paper's socket links.
  double extra_hop_ns = 0;
  /// Dummy records interleaved per real record (FRESQUE only). Dummies
  /// skip parsing but pay dummy encryption at the computing nodes and the
  /// randomer at the checking node. Derive from epsilon and the interval
  /// length: E[dummies] = num_leaves * scale / 2 per publication.
  double dummies_per_real = 0;
  /// When an offered rate is set: exponential (Poisson) inter-arrivals
  /// instead of a deterministic clock — shows queueing delay under
  /// bursty sources.
  bool poisson_arrivals = false;
  uint64_t arrival_seed = 1;
};

/// FRESQUE (Figure 6): dispatcher -> k computing nodes (round-robin) ->
/// checking node -> cloud.
SimResult SimulateFresque(const CostModel& cm, size_t k, SimConfig cfg);

/// Sharded FRESQUE (src/shard, DESIGN.md §17): one router in front of
/// `num_shards` independent pipelines (k computing nodes -> checking node
/// -> cloud each). The router is the caller's thread and every shard's
/// dispatcher: a single-server station paying `route_extract_ns` per
/// record plus the handoff into the shard's computing-node mailboxes,
/// amortized over the collector's PushBatch depth. Each dummy costs it
/// the same handoff. The model thus exposes the point where the shared
/// router itself becomes the bottleneck. `shard_weights`, when non-empty
/// (size == num_shards), skews record placement (weighted round-robin) to
/// model imbalance under skewed keys; empty means uniform.
/// `num_shards == 1` is SimulateFresque with the router's costs in place
/// of the dispatcher's.
SimResult SimulateShardedFresque(const CostModel& cm, size_t k,
                                 size_t num_shards, SimConfig cfg,
                                 const std::vector<double>& shard_weights = {});

/// Rejected design (paper §5.1a): the checker placed *between* the parser
/// and the encrypter. Each record then crosses the network twice more:
/// CN(parse) -> checking -> CN(encrypt) -> checking -> cloud. Used by the
/// checker-placement ablation bench.
SimResult SimulateFresqueCheckerFirst(const CostModel& cm, size_t k,
                                      SimConfig cfg);

/// Non-parallel PINED-RQ++ (Figure 4): one sequential workflow, then the
/// cloud.
SimResult SimulateNonParallelPp(const CostModel& cm, SimConfig cfg);

/// Parallel PINED-RQ++ (Figure 5): dispatcher (parse+check) -> k workers
/// (shared-template update serializes on a lock station, then encrypt) ->
/// cloud.
SimResult SimulateParallelPp(const CostModel& cm, size_t k, SimConfig cfg);

/// Maximum incoming throughput at the collector with no processing at all
/// (denominator of the paper's Fig. 12 degradation metric): the dispatcher
/// only receives and drops.
SimResult SimulateIncomingOnly(const CostModel& cm, SimConfig cfg);

/// PINED-RQ batch collector (paper §4.1): ingestion itself is a cheap
/// buffer append, but every `interval_records` records the collector
/// stalls for the whole batch pipeline (parse + index build + perturb +
/// encrypt + ship) before accepting more — the congestion that motivated
/// the streaming designs. Effective throughput counts the stalls.
SimResult SimulatePinedRqBatch(const CostModel& cm, SimConfig cfg,
                               uint64_t interval_records);

}  // namespace sim
}  // namespace fresque

#endif  // FRESQUE_SIM_PIPELINE_H_
