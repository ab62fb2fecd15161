#include "traced.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <utility>

#include "client/client.h"
#include "common/queue.h"
#include "dp/laplace.h"
#include "durability/recovery.h"
#include "durability/snapshot_manager.h"
#include "durability/wal.h"
#include "engine/randomer.h"
#include "index/al.h"
#include "index/overflow.h"
#include "net/message.h"
#include "net/payloads.h"
#include "record/secure_codec.h"
#include "shard/router.h"
#include "shard/sharded_cloud.h"
#include "sim/pipeline.h"
#include "telemetry/trace.h"

namespace fresque {
namespace fbench {

namespace {

constexpr uint64_t kIntervals = 10;
/// Computing-node encrypt batch and mailbox PushBatch/PopBatch size.
constexpr size_t kBatch = 64;
constexpr uint64_t kQueries = 200;
constexpr uint64_t kQuerySeed = 0x7A4CEULL;
/// Mailbox hops a real record takes: router -> shard ingress, dispatcher
/// -> computing node, computing node -> checking node, checking node ->
/// cloud node. Dummies start at the dispatcher.
constexpr double kHopsPerReal = 4;
constexpr double kHopsPerDummy = 3;

int64_t Now() { return telemetry::NowNanos(); }

/// Accumulated cost of one public call.
struct Cost {
  uint64_t ops = 0;
  int64_t ns = 0;

  double PerOp() const {
    return ops == 0 ? 0 : static_cast<double>(ns) / static_cast<double>(ops);
  }
};

/// Charges the wall time of its scope to `cost` as `ops` operations.
class Timed {
 public:
  Timed(Cost* cost, uint64_t ops) : cost_(cost), ops_(ops), start_(Now()) {}
  ~Timed() {
    cost_->ns += Now() - start_;
    cost_->ops += ops_;
  }

  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Cost* cost_;
  uint64_t ops_;
  int64_t start_;
};

struct Costs {
  Cost route, parse, leaf_offset, encrypt, encrypt_dummy, al_admit, randomer,
      hop, store, wal_append, template_create, merge, install, wal_commit,
      snapshot, replay, scan, decrypt;
};

/// What one shard's replay keeps across intervals.
struct ShardState {
  record::DatasetSpec spec;
  double epsilon = 0;
  std::string dir;
  std::unique_ptr<durability::Wal> wal;
  size_t randomer_buffer = 0;
  uint64_t reals = 0;
  uint64_t dummies = 0;
};

/// One publication interval of one shard, in pipeline order: dispatcher
/// template, computing-node parse/offset/encrypt, the mailbox hop, the
/// checking node's randomer and AL, the cloud store and WAL, then the
/// merger's index build and the cloud install + WAL commit.
Status ReplayInterval(uint64_t pn, const std::vector<const std::string*>& lines,
                      const engine::CollectorConfig& cc,
                      const crypto::KeyManager& keys, crypto::SecureRandom* rng,
                      cloud::CloudServer* store, ShardState* s, Costs* c) {
  const record::LineParser& parser = *s->spec.parser;
  const record::Schema& schema = parser.schema();
  auto binning = index::DomainBinning::Create(
      s->spec.domain_min, s->spec.domain_max, s->spec.bin_width);
  if (!binning.ok()) return binning.status();

  std::optional<index::IndexTemplate> tmpl;
  {
    Timed t(&c->template_create, 1);
    auto created =
        index::IndexTemplate::Create(*binning, cc.fanout, s->epsilon, rng);
    if (!created.ok()) return created.status();
    tmpl.emplace(std::move(created).ValueOrDie());
  }
  FRESQUE_RETURN_NOT_OK(store->StartPublication(pn));
  FRESQUE_RETURN_NOT_OK(s->wal->AppendStart(pn));
  const std::vector<int64_t>& noise = tmpl->leaf_noise();

  uint64_t dummies = 0;
  for (int64_t n : noise) dummies += n > 0 ? static_cast<uint64_t>(n) : 0;
  std::vector<net::Message> msgs;
  msgs.reserve(lines.size() + dummies);  // staged payloads must not move

  auto codec = record::SecureRecordCodec::Create(keys.RecordKey(pn), &schema,
                                                 rng);
  if (!codec.ok()) return codec.status();
  record::SecureRecordCodec::BatchEncryptor enc(&*codec);
  std::vector<record::Record> scratch(kBatch);
  std::array<bool, kBatch> good{};
  std::array<size_t, kBatch> leaf{};
  for (size_t b = 0; b < lines.size(); b += kBatch) {
    const size_t m = std::min(kBatch, lines.size() - b);
    {
      Timed t(&c->parse, m);
      for (size_t j = 0; j < m; ++j) {
        good[j] = parser.ParseInto(*lines[b + j], &scratch[j]).ok();
      }
    }
    {
      Timed t(&c->leaf_offset, m);
      for (size_t j = 0; j < m; ++j) {
        if (!good[j]) continue;
        auto v = scratch[j].IndexedValue(schema);
        auto off = v.ok() ? binning->LeafOffsetChecked(*v)
                          : Result<size_t>(v.status());
        good[j] = off.ok();
        leaf[j] = off.ok() ? *off : 0;
      }
    }
    const size_t first = msgs.size();
    for (size_t j = 0; j < m; ++j) {
      if (!good[j]) continue;
      net::Message out;
      out.type = net::MessageType::kTaggedRecord;
      out.pn = pn;
      out.leaf = leaf[j];
      msgs.push_back(std::move(out));
    }
    Timed t(&c->encrypt, msgs.size() - first);
    for (size_t j = 0, k = first; j < m; ++j) {
      if (!good[j]) continue;
      FRESQUE_RETURN_NOT_OK(enc.StageRecord(scratch[j], &msgs[k++].payload));
    }
    FRESQUE_RETURN_NOT_OK(enc.Flush());
  }
  const uint64_t reals = msgs.size();

  // The live dispatcher never advances interval progress, so every dummy
  // is released at the publish barrier, after the interval's records.
  for (size_t l = 0; l < noise.size(); ++l) {
    for (int64_t u = 0; u < noise[l]; ++u) {
      net::Message d;
      d.type = net::MessageType::kTaggedRecord;
      d.pn = pn;
      d.leaf = l;
      d.dummy = true;
      msgs.push_back(std::move(d));
    }
  }
  for (size_t b = reals; b < msgs.size(); b += kBatch) {
    const size_t m = std::min(kBatch, msgs.size() - b);
    Timed t(&c->encrypt_dummy, m);
    for (size_t j = 0; j < m; ++j) {
      enc.StageDummy(cc.dummy_padding_len, &msgs[b + j].payload);
    }
    FRESQUE_RETURN_NOT_OK(enc.Flush());
  }

  {
    BoundedQueue<net::Message> mailbox(cc.mailbox_capacity);
    std::vector<net::Message> hopped;
    hopped.reserve(msgs.size());
    Timed t(&c->hop, msgs.size());
    for (size_t b = 0; b < msgs.size(); b += kBatch) {
      const size_t m = std::min(kBatch, msgs.size() - b);
      mailbox.PushBatch(&msgs[b], m);
      mailbox.PopBatch(&hopped, m);
    }
    msgs.swap(hopped);
  }

  const double scale = index::IndexPerturber::LevelScale(
      s->epsilon, tmpl->noise_index().layout().num_levels());
  auto buffer = dp::RandomerBufferSize(scale, cc.delta, noise.size(), cc.alpha);
  s->randomer_buffer = buffer.ok() ? *buffer : 16;
  std::vector<net::Message> released;
  released.reserve(msgs.size());
  {
    engine::Randomer randomer(s->randomer_buffer, rng);
    Timed t(&c->randomer, msgs.size());
    for (auto& m : msgs) {
      auto evicted = randomer.Push(std::move(m));
      if (evicted.has_value()) released.push_back(std::move(*evicted));
    }
    for (auto& m : randomer.Flush()) released.push_back(std::move(m));
  }

  index::LeafArrays al(noise);
  std::vector<net::Message> to_cloud;
  std::vector<net::Message> removed;
  to_cloud.reserve(released.size());
  {
    Timed t(&c->al_admit, reals);
    for (auto& m : released) {
      if (!m.dummy && al.Admit(static_cast<size_t>(m.leaf)) ==
                          index::LeafArrays::Decision::kRemove) {
        removed.push_back(std::move(m));
      } else {
        to_cloud.push_back(std::move(m));
      }
    }
  }

  {
    Timed t(&c->store, to_cloud.size());
    for (const auto& m : to_cloud) {
      FRESQUE_RETURN_NOT_OK(
          store->IngestRecord(pn, static_cast<uint32_t>(m.leaf), m.payload));
    }
  }
  {
    Timed t(&c->wal_append, to_cloud.size());
    for (const auto& m : to_cloud) {
      FRESQUE_RETURN_NOT_OK(
          s->wal->AppendRecord(pn, static_cast<uint32_t>(m.leaf), m.payload));
    }
  }

  Bytes payload;
  {
    Timed t(&c->merge, 1);
    auto true_index = index::HistogramIndex::FromLeafCounts(
        tmpl->noise_index().layout(), tmpl->noise_index().binning(),
        al.al_snapshot());
    if (!true_index.ok()) return true_index.status();
    auto merged = tmpl->noise_index().Plus(*true_index);
    if (!merged.ok()) return merged.status();
    const double level_scale = index::IndexPerturber::LevelScale(
        s->epsilon, merged->layout().num_levels());
    const auto slots = static_cast<size_t>(std::max<int64_t>(
        1, dp::DummyUpperBoundPerLeaf(level_scale, cc.delta)));
    index::OverflowArrays overflow(merged->layout().num_leaves(), slots);
    for (auto& rm : removed) {
      // A full array is the counted overflow drop of the live merger.
      (void)overflow.Insert(static_cast<size_t>(rm.leaf),
                            std::move(rm.payload), rng);
    }
    auto pad_codec = record::SecureRecordCodec::Create(keys.RecordKey(pn),
                                                       &schema, rng);
    if (!pad_codec.ok()) return pad_codec.status();
    record::SecureRecordCodec::BatchEncryptor pad(&*pad_codec);
    overflow.ForEachEmptySlot(
        [&](Bytes* slot) { pad.StageDummy(cc.dummy_padding_len, slot); });
    FRESQUE_RETURN_NOT_OK(pad.Flush());
    net::IndexPublication pub(std::move(*merged), std::move(overflow));
    pub.integrity_tag =
        net::ComputeIndexPublicationTag(pub, keys.IndexMacKey(pn));
    payload = net::EncodeIndexPublication(pub);
  }
  {
    Bytes evidence = payload;
    Timed t(&c->install, 1);
    auto pub = net::DecodeIndexPublication(payload);
    if (!pub.ok()) return pub.status();
    auto installed =
        store->PublishIndexed(pn, std::move(*pub), std::move(evidence));
    if (!installed.ok()) return installed.status();
  }
  {
    Timed t(&c->wal_commit, 1);
    FRESQUE_RETURN_NOT_OK(s->wal->AppendInstall(pn, payload));
    FRESQUE_RETURN_NOT_OK(s->wal->Commit());
  }
  s->reals += reals;
  s->dummies += dummies;
  return Status::OK();
}

/// Durability tail and the read path over the replayed store: WAL replay
/// (no snapshot yet, so every record is replayed), one snapshot per shard,
/// then client queries.
Status ReplayRecoveryAndQueries(const LinePool& pool, uint64_t seed,
                                const crypto::KeyManager& keys,
                                shard::ShardedCloudServer* cloud,
                                std::vector<ShardState>* shards, Costs* c) {
  for (size_t i = 0; i < shards->size(); ++i) {
    ShardState& s = (*shards)[i];
    const int64_t t = Now();
    auto rec = durability::RecoveryManager::Recover(s.dir);
    if (!rec.ok()) return rec.status();
    c->replay.ns += Now() - t;
    c->replay.ops += rec->stats.records_replayed;

    durability::SnapshotOptions opts;
    opts.dir = s.dir;
    opts.snapshot_every_installs = 0;
    durability::SnapshotManager snapshots(opts, cloud->shard(i), s.wal.get());
    Timed timed(&c->snapshot, 1);
    FRESQUE_RETURN_NOT_OK(snapshots.WriteSnapshot());
  }

  client::Client client(keys, &pool.spec.parser->schema());
  // One query per hot spot first, so first-touch leaf-cache misses stay
  // out of the per-query costs.
  for (const auto& q : HotSpots(pool.spec)) (void)cloud->ExecuteQuery(q);
  for (const auto& q : QueryDeck(pool.spec, kQueries, seed ^ kQuerySeed)) {
    Result<query::QueryResult> r;
    {
      Timed t(&c->scan, 1);
      r = cloud->ExecuteQuery(q);
    }
    if (!r.ok()) return r.status();
    Timed t(&c->decrypt, 1);
    auto recs = client.Decrypt(*r, q);
    if (!recs.ok()) return recs.status();
  }
  return Status::OK();
}

void PrintCost(const char* layer, const Cost& c) {
  std::printf("  %-22s %10llu ops %14.1f ns/op\n", layer,
              static_cast<unsigned long long>(c.ops), c.PerOp());
}

}  // namespace

std::vector<Metric> RunTraced(const Workload& w, const Options& o,
                              const LinePool& pool, const LiveResult& live) {
  const crypto::KeyManager keys = BenchKeys();
  const shard::ShardedPipelineConfig cfg =
      MakePipelineConfig(w, pool.spec, "");
  const engine::CollectorConfig& cc = cfg.collector;
  auto placement = shard::ShardPlacement::Create(pool.spec, cfg.shard);
  if (!placement.ok()) {
    std::cerr << "traced: " << placement.status().ToString() << "\n";
    return {};
  }
  if (live.routed.size() != placement->num_shards()) {
    std::cerr << "traced: the live run ended before its counters were read\n";
    return {};
  }
  shard::ShardRouter router(*placement, pool.spec.parser);
  shard::ShardedCloudServer cloud(*placement);
  crypto::SecureRandom rng(o.seed);

  // Every workload's replay logs to a WAL with the durable workload's
  // settings, so the durability layer is priced on each workload's records.
  const std::string dir = o.data_dir + "/" + w.name + "-traced-" +
                          std::to_string(static_cast<long>(getpid()));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::vector<ShardState> shards(placement->num_shards());
  Status st;
  for (size_t i = 0; i < shards.size() && st.ok(); ++i) {
    ShardState& s = shards[i];
    s.spec = placement->ShardSpec(i);
    s.epsilon = placement->ShardEpsilon(cc.epsilon);
    s.dir = shard::ShardDataDir(dir, i);
    std::filesystem::create_directories(s.dir, ec);
    durability::WalOptions wopts;
    wopts.dir = s.dir;
    wopts.fsync_policy = durability::FsyncPolicy::kIntervalMs;
    wopts.fsync_interval_ms = 50;
    auto wal = durability::Wal::Open(std::move(wopts));
    if (!wal.ok()) {
      st = wal.status();
      break;
    }
    s.wal = std::move(*wal);
    st = s.wal->AppendMeta(s.spec.domain_min, s.spec.domain_max,
                           s.spec.bin_width);
    if (st.ok()) st = s.wal->Commit();
  }

  Costs c;
  const uint64_t interval = IntervalRecords(w, o);
  std::vector<size_t> decision(interval);
  std::vector<std::vector<const std::string*>> by_shard(shards.size());
  for (uint64_t pn = 0; pn < kIntervals && st.ok(); ++pn) {
    const uint64_t base = pn * interval;
    {
      Timed t(&c.route, interval);
      for (uint64_t i = 0; i < interval; ++i) {
        decision[i] = router.Route(pool.at(base + i)).shard;
      }
    }
    for (auto& v : by_shard) v.clear();
    for (uint64_t i = 0; i < interval; ++i) {
      by_shard[decision[i]].push_back(&pool.at(base + i));
    }
    for (size_t i = 0; i < shards.size() && st.ok(); ++i) {
      st = ReplayInterval(pn, by_shard[i], cc, keys, &rng, cloud.shard(i),
                          &shards[i], &c);
    }
  }
  if (st.ok()) {
    st = ReplayRecoveryAndQueries(pool, o.seed, keys, &cloud, &shards, &c);
  }
  for (auto& s : shards) s.wal.reset();  // closed before the dir goes
  std::filesystem::remove_all(dir, ec);
  if (!st.ok()) {
    std::cerr << "traced replay failed: " << st.ToString() << "\n";
    return {};
  }

  uint64_t reals = 0;
  uint64_t dummies = 0;
  for (const auto& s : shards) {
    reals += s.reals;
    dummies += s.dummies;
  }
  const double dummies_per_real =
      static_cast<double>(dummies) /
      static_cast<double>(std::max<uint64_t>(reals, 1));

  // Single-thread baseline: every call the replay made, with the one
  // measured hop charged once per mailbox a record crosses; WAL costs only
  // where the workload is durable.
  double serial_ns =
      static_cast<double>(c.route.ns + c.parse.ns + c.leaf_offset.ns +
                          c.encrypt.ns + c.encrypt_dummy.ns + c.randomer.ns +
                          c.al_admit.ns + c.store.ns + c.template_create.ns +
                          c.merge.ns + c.install.ns) +
      c.hop.PerOp() * (kHopsPerReal * static_cast<double>(reals) +
                       kHopsPerDummy * static_cast<double>(dummies));
  if (w.durable) {
    serial_ns += static_cast<double>(c.wal_append.ns + c.wal_commit.ns);
  }
  const double serial_ns_per_record =
      serial_ns / static_cast<double>(std::max<uint64_t>(reals, 1));

  // The calibrated simulator fed the traced costs, this workload's shape
  // and the live per-shard mass.
  sim::CostModel cm;
  cm.dataset = pool.spec.name;
  cm.parse_ns = c.parse.PerOp();
  cm.leaf_offset_ns = c.leaf_offset.PerOp();
  cm.encrypt_ns = c.encrypt.PerOp();
  cm.encrypt_dummy_ns = c.encrypt_dummy.PerOp();
  cm.al_update_ns = c.al_admit.PerOp();
  cm.randomer_push_ns = c.randomer.PerOp();
  cm.hop_ns = c.hop.PerOp();
  cm.cloud_store_ns =
      c.store.PerOp() + (w.durable ? c.wal_append.PerOp() : 0.0);
  cm.route_extract_ns = c.route.PerOp();
  sim::SimConfig sc;
  sc.num_records = Scaled(o, 400000, 4000);
  sc.dummies_per_real = dummies_per_real;
  if (w.loop == Loop::kOpen) {
    sc.offered_rate_rps = w.rate_rps;
    sc.poisson_arrivals = true;
    sc.arrival_seed = o.seed;
  }
  std::vector<double> weights(live.routed.begin(), live.routed.end());
  const sim::SimResult sr =
      sim::SimulateShardedFresque(cm, w.k, w.shards, sc, weights);

  // The randomer's built-in median wait, on the shard with the most
  // records: a record survives each later push with probability 1 - 1/S,
  // so half have left after ln2 * S pushes.
  size_t busiest = 0;
  uint64_t routed_total = 0;
  for (size_t i = 0; i < live.routed.size(); ++i) {
    routed_total += live.routed[i];
    if (live.routed[i] > live.routed[busiest]) busiest = i;
  }
  const ShardState& hot = shards[busiest];
  const double hot_share = routed_total == 0
                               ? 1.0
                               : static_cast<double>(live.routed[busiest]) /
                                     static_cast<double>(routed_total);
  const double hot_push_rate =
      live.ingest_rps * hot_share *
      (1.0 + static_cast<double>(hot.dummies) /
                 static_cast<double>(std::max<uint64_t>(hot.reals, 1)));
  const double holdback_floor_ms =
      std::log(2.0) * static_cast<double>(hot.randomer_buffer) /
      hot_push_rate * 1e3;
  const double imbalance =
      routed_total == 0
          ? 1.0
          : static_cast<double>(live.routed[busiest]) /
                (static_cast<double>(routed_total) /
                 static_cast<double>(live.routed.size()));

  std::printf("traced replay: %llu intervals of %llu records, %llu real, "
              "%llu dummy\n",
              static_cast<unsigned long long>(kIntervals),
              static_cast<unsigned long long>(interval),
              static_cast<unsigned long long>(reals),
              static_cast<unsigned long long>(dummies));
  PrintCost("ShardRouter::Route", c.route);
  PrintCost("LineParser::ParseInto", c.parse);
  PrintCost("LeafOffset", c.leaf_offset);
  PrintCost("encrypt", c.encrypt);
  PrintCost("encrypt dummy", c.encrypt_dummy);
  PrintCost("mailbox hop", c.hop);
  PrintCost("Randomer::Push", c.randomer);
  PrintCost("LeafArrays::Admit", c.al_admit);
  PrintCost("CloudServer::Ingest", c.store);
  PrintCost("Wal::AppendRecord", c.wal_append);
  PrintCost("IndexTemplate::Create", c.template_create);
  PrintCost("merge", c.merge);
  PrintCost("install", c.install);
  PrintCost("Wal::Commit", c.wal_commit);
  PrintCost("WriteSnapshot", c.snapshot);
  PrintCost("Recover (per record)", c.replay);
  PrintCost("ExecuteQuery", c.scan);
  PrintCost("Client::Decrypt", c.decrypt);
  std::printf("sim: predicted %.0f rec/s, bottleneck %s; live %.0f rec/s\n",
              sr.throughput_rps, sr.bottleneck.c_str(), live.ingest_rps);

  return {
      {"shard.route_ns", c.route.PerOp(), "ns"},
      {"record.parse_ns", c.parse.PerOp(), "ns"},
      {"index.leaf_offset_ns", c.leaf_offset.PerOp(), "ns"},
      {"crypto.encrypt_ns", c.encrypt.PerOp(), "ns"},
      {"crypto.encrypt_dummy_ns", c.encrypt_dummy.PerOp(), "ns"},
      {"index.al_admit_ns", c.al_admit.PerOp(), "ns"},
      {"engine.randomer_push_ns", c.randomer.PerOp(), "ns"},
      {"net.hop_ns", c.hop.PerOp(), "ns"},
      {"cloud.store_ns", c.store.PerOp(), "ns"},
      {"index.template_ms", c.template_create.PerOp() * 1e-6, "ms"},
      {"engine.merge_ms", c.merge.PerOp() * 1e-6, "ms"},
      {"cloud.install_ms", c.install.PerOp() * 1e-6, "ms"},
      {"query.scan_us", c.scan.PerOp() * 1e-3, "us"},
      {"client.decrypt_us", c.decrypt.PerOp() * 1e-3, "us"},
      {"durability.wal_append_ns", c.wal_append.PerOp(), "ns"},
      {"durability.wal_commit_ms", c.wal_commit.PerOp() * 1e-6, "ms"},
      {"durability.snapshot_ms", c.snapshot.PerOp() * 1e-6, "ms"},
      {"durability.replay_ns", c.replay.PerOp(), "ns"},
      {"engine.randomer_buffer", static_cast<double>(hot.randomer_buffer),
       "records"},
      {"engine.dummies_per_publication",
       static_cast<double>(dummies) / static_cast<double>(kIntervals),
       "records"},
      {"engine.holdback_floor_ms", holdback_floor_ms, "ms"},
      {"serial.ns_per_record", serial_ns_per_record, "ns"},
      {"serial.rps", 1e9 / serial_ns_per_record, "rec/s"},
      {"sim.predicted_rps", sr.throughput_rps, "rec/s"},
      {"reconcile.gap_pct", (sr.throughput_rps / live.ingest_rps - 1) * 100,
       "%"},
      {"shard.imbalance", imbalance, "ratio"},
      {"node.ingress.hwm_frac", live.hwm_ingress, "ratio"},
      {"node.computing.hwm_frac", live.hwm_computing, "ratio"},
      {"node.checking.hwm_frac", live.hwm_checking, "ratio"},
      {"node.merger.hwm_frac", live.hwm_merger, "ratio"},
      {"loadgen.lag_max_ms", live.lag_max_ms, "ms"},
  };
}

}  // namespace fbench
}  // namespace fresque
