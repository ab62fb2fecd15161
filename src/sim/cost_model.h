#ifndef FRESQUE_SIM_COST_MODEL_H_
#define FRESQUE_SIM_COST_MODEL_H_

#include <cstddef>
#include <string>

#include "common/result.h"
#include "record/dataset.h"

namespace fresque {
namespace sim {

/// Measured per-record service times (nanoseconds) of every pipeline
/// stage, for one workload.
///
/// The paper's throughput experiments ran on a 17-node Galactica cluster;
/// this host has 4 cores, so real threads cannot exhibit 12-way scaling
/// (bench/fresque_bench measures what they do reach).
/// Instead the *actual component code* is run here, single-threaded, to
/// measure honest per-record costs, and the queueing simulator
/// (pipeline.h) replays the paper's topologies with those costs. See
/// DESIGN.md §2 for the substitution argument.
struct CostModel {
  std::string dataset;

  // Shared primitive costs.
  double parse_ns = 0;           ///< raw line -> typed record
  double leaf_offset_ns = 0;     ///< O(1) array-of-leaves offset (FRESQUE)
  double encrypt_ns = 0;         ///< record serialize + AES-CBC encrypt
  double encrypt_dummy_ns = 0;   ///< dummy padding encrypt
  double tree_walk_ns = 0;       ///< O(log_k n) checker descent (PINED-RQ++)
  double tree_update_ns = 0;     ///< O(log_k n) path update (PINED-RQ++)
  double al_update_ns = 0;       ///< O(1) AL/ALN admit (FRESQUE)
  double table_add_ns = 0;       ///< matching-table insert (PINED-RQ++)
  double randomer_push_ns = 0;   ///< randomer buffer insert + eviction
  double hop_ns = 0;             ///< mailbox enqueue+dequeue (one link)
  double cloud_store_ns = 0;     ///< segment append + metadata cache
  /// Shard-router placement: LineParser::IndexedValue substring extraction
  /// + the O(1) ShardPlacement lookup (src/shard). Far below parse_ns by
  /// design — the router must not re-introduce the parsing bottleneck.
  double route_extract_ns = 0;

  /// Mean ciphertext size (bytes) — reported for context.
  double ciphertext_bytes = 0;

  std::string ToString() const;
};

/// Runs each component's real code over `samples` generated records and
/// returns the measured means. Deterministic workload (seeded), wall-clock
/// timed.
Result<CostModel> MeasureCosts(const record::DatasetSpec& spec,
                               size_t samples = 20000, uint64_t seed = 1);

/// Cost profile emulating the paper's Table-2 cluster (Java 1.8 on 2.4 GHz
/// 2-CPU computing-node VMs, TCP links) for the NASA workload.
///
/// Derivation: the profile is fitted to the paper's *reported* anchors and
/// then validated against the rest of its curves —
///   non-parallel PINED-RQ++ NASA ............ 3,159 rec/s  (§7.2a)
///   FRESQUE NASA @ 12 computing nodes ....... ~142k rec/s  (Fig 9)
///   "parsing halves the parallel collector" .. parse >= checker (§4.2)
/// which pins parse+walk (dispatcher), parse+encrypt (computing node) and
/// update+table (worker) up to small slack. All remaining curves — the
/// 43x/5.6x improvements, the plateau positions — are *predictions* of
/// the queueing model, not inputs. See EXPERIMENTS.md.
CostModel PaperProfileNasa();

/// Paper-cluster profile for Gowalla. Anchors: non-parallel PINED-RQ++
/// 13,223 rec/s (§7.2a) and the FRESQUE plateau at ~165k rec/s from 8
/// computing nodes (Fig 9).
CostModel PaperProfileGowalla();

}  // namespace sim
}  // namespace fresque

#endif  // FRESQUE_SIM_COST_MODEL_H_
