#include "sim/pipeline.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/stats.h"
#include "net/message.h"

namespace fresque {
namespace sim {

namespace {
constexpr double kNsToS = 1e-9;

/// Generates record arrival times at the collector's front door:
/// closed-loop (always ready), deterministic clock, or Poisson.
class ArrivalProcess {
 public:
  explicit ArrivalProcess(const SimConfig& cfg)
      : cfg_(cfg), rng_(cfg.arrival_seed) {}

  double Next() {
    if (cfg_.offered_rate_rps <= 0) return 0;  // closed loop
    if (!cfg_.poisson_arrivals) {
      return static_cast<double>(index_++) / cfg_.offered_rate_rps;
    }
    clock_ += -std::log(rng_.NextDoubleOpenLow()) / cfg_.offered_rate_rps;
    return clock_;
  }

 private:
  const SimConfig& cfg_;
  Xoshiro256 rng_;
  uint64_t index_ = 0;
  double clock_ = 0;
};

/// Arrival time of record i at the collector's front door (deterministic
/// helper used where the stateful process is not threaded through).
double ArrivalTime(const SimConfig& cfg, uint64_t i) {
  if (cfg.offered_rate_rps <= 0) return 0;  // closed loop: always ready
  return static_cast<double>(i) / cfg.offered_rate_rps;
}

SimResult Finish(std::string prototype, const CostModel& cm, size_t k,
                 const SimConfig& cfg, double makespan,
                 const std::vector<const MultiServerStation*>& stations) {
  SimResult r;
  r.prototype = std::move(prototype);
  r.dataset = cm.dataset;
  r.computing_nodes = k;
  r.records = cfg.num_records;
  r.makespan_seconds = makespan;
  r.throughput_rps =
      makespan > 0 ? static_cast<double>(cfg.num_records) / makespan : 0;
  double worst = -1;
  for (const auto* s : stations) {
    double util = makespan > 0 ? s->busy_seconds() /
                                     (makespan * static_cast<double>(
                                                     s->servers()))
                               : 0;
    r.utilization[s->name()] = util;
    if (util > worst) {
      worst = util;
      r.bottleneck = s->name();
    }
  }
  return r;
}

}  // namespace

MultiServerStation::MultiServerStation(std::string name, size_t servers)
    : name_(std::move(name)), free_at_(servers == 0 ? 1 : servers, 0.0) {
  std::make_heap(free_at_.begin(), free_at_.end(), std::greater<>());
}

double MultiServerStation::Process(double arrival, double service) {
  std::pop_heap(free_at_.begin(), free_at_.end(), std::greater<>());
  double start = std::max(arrival, free_at_.back());
  double departure = start + service;
  free_at_.back() = departure;
  std::push_heap(free_at_.begin(), free_at_.end(), std::greater<>());
  busy_ += service;
  ++processed_;
  return departure;
}

SimResult SimulateFresque(const CostModel& cm, size_t k, SimConfig cfg) {
  const double hop = (cm.hop_ns + cfg.extra_hop_ns) * kNsToS;
  // Dispatcher: receive one raw line, forward it (two queue touches).
  const double d_dispatch = 2 * hop;
  // Computing node: parse, O(1) offset, encrypt, forward.
  const double d_cn =
      (cm.parse_ns + cm.leaf_offset_ns + cm.encrypt_ns) * kNsToS + hop;
  // Checking node: randomer insert/evict + O(1) AL admit + forward.
  const double d_check =
      (cm.randomer_push_ns + cm.al_update_ns) * kNsToS + hop;
  const double d_cloud = cm.cloud_store_ns * kNsToS;

  // Dummy records skip parsing but still cost dispatch, dummy encryption
  // and the randomer.
  const double d_cn_dummy = cm.encrypt_dummy_ns * kNsToS + hop;

  MultiServerStation dispatcher("dispatcher", 1);
  MultiServerStation cns("computing-nodes", k);
  MultiServerStation checking("checking-node", 1);
  MultiServerStation cloud("cloud", 1);

  double last = 0;
  double dummy_debt = 0;
  ArrivalProcess arrivals(cfg);
  LatencyRecorder latency;
  const bool track_latency = cfg.offered_rate_rps > 0;
  for (uint64_t i = 0; i < cfg.num_records; ++i) {
    double arrived = arrivals.Next();
    double t = dispatcher.Process(arrived, d_dispatch);
    t = cns.Process(t, d_cn);
    t = checking.Process(t, d_check);
    last = std::max(last, t);
    if (track_latency) latency.Add(t - arrived);
    // Cloud runs off the collector's critical path; account utilization.
    cloud.Process(t, d_cloud);

    dummy_debt += cfg.dummies_per_real;
    while (dummy_debt >= 1.0) {
      dummy_debt -= 1.0;
      double td = dispatcher.Process(arrived, d_dispatch);
      td = cns.Process(td, d_cn_dummy);
      td = checking.Process(td, d_check);
      last = std::max(last, td);
    }
  }
  auto result = Finish("fresque", cm, k, cfg, last,
                       {&dispatcher, &cns, &checking, &cloud});
  if (track_latency) {
    result.mean_latency_seconds = latency.Mean();
    result.p99_latency_seconds = latency.Quantile(0.99);
  }
  return result;
}

SimResult SimulateShardedFresque(const CostModel& cm, size_t k,
                                 size_t num_shards, SimConfig cfg,
                                 const std::vector<double>& shard_weights) {
  if (num_shards == 0) num_shards = 1;
  const double hop = (cm.hop_ns + cfg.extra_hop_ns) * kNsToS;
  // Router: the caller's thread, every shard's dispatcher. Cheap
  // indexed-attribute extraction + O(1) placement, then the handoff into
  // the shard's computing-node mailboxes. The collector pushes each
  // computing node one PushBatch per net::kMaxBatch frames, so the two
  // queue touches amortize across the batch; the extraction itself is
  // per-record and un-amortized. This is the whole design bet: the only
  // per-record work on the shared path is the substring scan.
  constexpr double kComputingInboxBatch = net::kMaxBatch;
  const double d_handoff = 2 * hop / kComputingInboxBatch;
  const double d_route = cm.route_extract_ns * kNsToS + d_handoff;
  const double d_cn =
      (cm.parse_ns + cm.leaf_offset_ns + cm.encrypt_ns) * kNsToS + hop;
  const double d_check =
      (cm.randomer_push_ns + cm.al_update_ns) * kNsToS + hop;
  const double d_cloud = cm.cloud_store_ns * kNsToS;
  const double d_cn_dummy = cm.encrypt_dummy_ns * kNsToS + hop;

  MultiServerStation router("router", 1);
  struct ShardStations {
    MultiServerStation cns;
    MultiServerStation checking;
    MultiServerStation cloud;
    double dummy_debt = 0;
  };
  std::vector<ShardStations> shards;
  shards.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    const std::string p = "shard" + std::to_string(i) + ".";
    shards.push_back(ShardStations{MultiServerStation(p + "computing-nodes", k),
                                   MultiServerStation(p + "checking-node", 1),
                                   MultiServerStation(p + "cloud", 1)});
  }

  // Weighted round-robin placement: per-record credits accrue in
  // proportion to the weights and the richest shard takes the record, so
  // any weight vector (uniform, Zipf-derived, ...) yields a deterministic
  // arrival sequence.
  std::vector<double> weights(num_shards, 1.0);
  if (shard_weights.size() == num_shards) weights = shard_weights;
  double wsum = 0;
  for (double w : weights) wsum += w;
  std::vector<double> credit(num_shards, 0);

  double last = 0;
  ArrivalProcess arrivals(cfg);
  LatencyRecorder latency;
  const bool track_latency = cfg.offered_rate_rps > 0;
  for (uint64_t i = 0; i < cfg.num_records; ++i) {
    size_t target = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      credit[s] += weights[s] / wsum;
      if (credit[s] > credit[target]) target = s;
    }
    credit[target] -= 1.0;
    auto& sh = shards[target];

    const double arrived = arrivals.Next();
    double t = router.Process(arrived, d_route);
    t = sh.cns.Process(t, d_cn);
    t = sh.checking.Process(t, d_check);
    last = std::max(last, t);
    if (track_latency) latency.Add(t - arrived);
    sh.cloud.Process(t, d_cloud);

    sh.dummy_debt += cfg.dummies_per_real;
    while (sh.dummy_debt >= 1.0) {
      sh.dummy_debt -= 1.0;
      double td = router.Process(arrived, d_handoff);
      td = sh.cns.Process(td, d_cn_dummy);
      td = sh.checking.Process(td, d_check);
      last = std::max(last, td);
    }
  }
  std::vector<const MultiServerStation*> stations{&router};
  for (const auto& sh : shards) {
    stations.push_back(&sh.cns);
    stations.push_back(&sh.checking);
    stations.push_back(&sh.cloud);
  }
  auto result = Finish("fresque-sharded", cm, k, cfg, last, stations);
  if (track_latency) {
    result.mean_latency_seconds = latency.Mean();
    result.p99_latency_seconds = latency.Quantile(0.99);
  }
  return result;
}

SimResult SimulateFresqueCheckerFirst(const CostModel& cm, size_t k,
                                      SimConfig cfg) {
  const double hop = (cm.hop_ns + cfg.extra_hop_ns) * kNsToS;
  const double d_dispatch = 2 * hop;
  // First CN visit: parse + offset, then ship to the checker.
  const double d_cn_parse = (cm.parse_ns + cm.leaf_offset_ns) * kNsToS + hop;
  // Checker visit on the *plaintext* record, then back to a CN.
  const double d_check =
      (cm.randomer_push_ns + cm.al_update_ns) * kNsToS + hop;
  // Second CN visit: encrypt, then ship to the checking node again for
  // the randomer (it must see every outgoing ciphertext), then cloud.
  const double d_cn_encrypt = cm.encrypt_ns * kNsToS + hop;
  const double d_cloud = cm.cloud_store_ns * kNsToS;

  MultiServerStation dispatcher("dispatcher", 1);
  MultiServerStation cns("computing-nodes", k);
  MultiServerStation checking("checking-node", 1);
  MultiServerStation cloud("cloud", 1);

  double last = 0;
  for (uint64_t i = 0; i < cfg.num_records; ++i) {
    double t = ArrivalTime(cfg, i);
    t = dispatcher.Process(t, d_dispatch);
    t = cns.Process(t, d_cn_parse);
    t = checking.Process(t, d_check);
    t = cns.Process(t, d_cn_encrypt);
    t = checking.Process(t, hop);  // final pass-through to the cloud link
    last = std::max(last, t);
    cloud.Process(t, d_cloud);
  }
  return Finish("fresque-checker-first", cm, k, cfg, last,
                {&dispatcher, &cns, &checking, &cloud});
}

SimResult SimulateNonParallelPp(const CostModel& cm, SimConfig cfg) {
  const double hop = (cm.hop_ns + cfg.extra_hop_ns) * kNsToS;
  // Everything sequential on the collector: parse, checker walk, enrich,
  // updater walk + table, encrypt, send.
  const double d_collector =
      (cm.parse_ns + cm.tree_walk_ns + cm.tree_update_ns + cm.table_add_ns +
       cm.encrypt_ns) *
          kNsToS +
      hop;
  const double d_cloud = cm.cloud_store_ns * kNsToS;

  MultiServerStation collector("collector", 1);
  MultiServerStation cloud("cloud", 1);

  double last = 0;
  for (uint64_t i = 0; i < cfg.num_records; ++i) {
    double t = ArrivalTime(cfg, i);
    t = collector.Process(t, d_collector);
    last = std::max(last, t);
    cloud.Process(t, d_cloud);
  }
  return Finish("pined-rq++", cm, 1, cfg, last, {&collector, &cloud});
}

SimResult SimulateParallelPp(const CostModel& cm, size_t k, SimConfig cfg) {
  const double hop = (cm.hop_ns + cfg.extra_hop_ns) * kNsToS;
  // Dispatcher keeps the sequential parser + checker (tree walk) and
  // forwards to a worker — the partial parallelism of §4.2.
  const double d_dispatch =
      (cm.parse_ns + cm.tree_walk_ns) * kNsToS + 2 * hop;
  // Worker: updater (its partition of the template + matching table) and
  // encrypter.
  const double d_worker =
      (cm.tree_update_ns + cm.table_add_ns + cm.encrypt_ns) * kNsToS + hop;
  const double d_cloud = cm.cloud_store_ns * kNsToS;

  MultiServerStation dispatcher("dispatcher", 1);
  MultiServerStation workers("workers", k);
  MultiServerStation cloud("cloud", 1);

  double last = 0;
  for (uint64_t i = 0; i < cfg.num_records; ++i) {
    double t = ArrivalTime(cfg, i);
    t = dispatcher.Process(t, d_dispatch);
    t = workers.Process(t, d_worker);
    last = std::max(last, t);
    cloud.Process(t, d_cloud);
  }
  return Finish("parallel-pined-rq++", cm, k, cfg, last,
                {&dispatcher, &workers, &cloud});
}

SimResult SimulatePinedRqBatch(const CostModel& cm, SimConfig cfg,
                               uint64_t interval_records) {
  const double hop = (cm.hop_ns + cfg.extra_hop_ns) * kNsToS;
  // Ingest path: receive + buffer append (modeled as one hop + a store).
  const double d_ingest = hop + 50e-9;
  // Publish stall per record of the batch: parse, encrypt, ship; plus
  // per-publication index build ~ one tree update per leaf equivalent.
  const double d_publish_per_record =
      (cm.parse_ns + cm.encrypt_ns) * kNsToS + hop;

  MultiServerStation collector("collector", 1);
  double last = 0;
  uint64_t in_batch = 0;
  for (uint64_t i = 0; i < cfg.num_records; ++i) {
    double t = ArrivalTime(cfg, i);
    t = collector.Process(t, d_ingest);
    last = std::max(last, t);
    if (++in_batch >= interval_records) {
      // Synchronous batch publication: the collector is busy for the
      // whole pipeline; arrivals queue behind it.
      last = std::max(
          last, collector.Process(
                    last, d_publish_per_record *
                              static_cast<double>(interval_records)));
      in_batch = 0;
    }
  }
  return Finish("pined-rq", cm, 1, cfg, last, {&collector});
}

SimResult SimulateIncomingOnly(const CostModel& cm, SimConfig cfg) {
  // "Without any processing" still receives each record and hands it off
  // (two queue touches) — the same front door every prototype pays.
  const double hop = (cm.hop_ns + cfg.extra_hop_ns) * kNsToS;
  MultiServerStation dispatcher("dispatcher", 1);
  double last = 0;
  for (uint64_t i = 0; i < cfg.num_records; ++i) {
    double t = ArrivalTime(cfg, i);
    t = dispatcher.Process(t, 2 * hop);
    last = std::max(last, t);
  }
  return Finish("incoming-only", cm, 0, cfg, last, {&dispatcher});
}

}  // namespace sim
}  // namespace fresque
