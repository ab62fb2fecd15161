#include "live.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include "client/client.h"
#include "common/queue.h"
#include "obs/sampler.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace fresque {
namespace fbench {

namespace {

constexpr int kSetups = 11;
constexpr size_t kProbes = 20;
constexpr uint64_t kArrivalSeed = 0xA7717A1ULL;
constexpr uint64_t kQuerySeed = 0x9E27ULL;
constexpr uint64_t kProbeSeed = 0x960BEULL;

int64_t Now() { return telemetry::NowNanos(); }

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

void Check(LiveResult* r, bool ok, const std::string& name,
           const std::string& detail) {
  std::cout << "check " << name << ": " << (ok ? "ok" : "FAILED") << " ("
            << detail << ")\n";
  if (!ok) r->failed_checks.push_back(name);
}

/// Times every publication from its Publish() call until
/// WaitForPublication returns. Publications complete in pn order, so one
/// waiter sees each completion as it happens.
class PublicationWaiter {
 public:
  explicit PublicationWaiter(shard::ShardedPipeline* pipe)
      : pipe_(pipe), thread_([this] { Loop(); }) {}
  ~PublicationWaiter() { Finish(); }

  PublicationWaiter(const PublicationWaiter&) = delete;
  PublicationWaiter& operator=(const PublicationWaiter&) = delete;

  void Published(uint64_t pn, int64_t called_ns) {
    pending_.Push({pn, called_ns});
  }

  /// Joins the waiter; latencies and failures are final afterwards.
  void Finish() {
    pending_.Close();
    if (thread_.joinable()) thread_.join();
  }

  const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  uint64_t failures() const { return failures_; }

 private:
  struct Pending {
    uint64_t pn = 0;
    int64_t called_ns = 0;
  };

  void Loop() {
    while (auto p = pending_.Pop()) {
      Status st = pipe_->WaitForPublication(p->pn, std::chrono::seconds(60));
      if (st.ok()) {
        latencies_ms_.push_back(Ms(Now() - p->called_ns));
      } else {
        ++failures_;
        std::cerr << "publication " << p->pn << ": " << st.ToString() << "\n";
      }
    }
  }

  shard::ShardedPipeline* pipe_;
  BoundedQueue<Pending> pending_{1 << 20};
  std::vector<double> latencies_ms_;
  uint64_t failures_ = 0;
  std::thread thread_;
};

/// A client range query: fan-out at the cloud, then decrypt and
/// post-filter on the exact predicate.
Result<std::vector<record::Record>> ClientQuery(
    const shard::ShardedCloudServer& cloud, client::Client* c,
    const index::RangeQuery& q) {
  auto r = cloud.ExecuteQuery(q);
  if (!r.ok()) return r.status();
  return c->Decrypt(*r, q);
}

/// Plaintext oracle over the offered records: for a range, the multiset of
/// records (keyed by Record::ToString) whose indexed value falls in it.
class Oracle {
 public:
  Oracle(const LinePool& pool, uint64_t offered)
      : pool_(pool), offered_(offered) {
    by_value_.reserve(pool.lines.size());
    for (size_t i = 0; i < pool.lines.size(); ++i) {
      auto v = pool.spec.parser->IndexedValue(pool.lines[i]);
      if (v.ok()) by_value_.emplace_back(*v, i);
    }
    std::sort(by_value_.begin(), by_value_.end());
  }

  struct Score {
    uint64_t expected = 0;
    uint64_t matched = 0;
    /// Decrypted records the oracle multiset does not hold.
    uint64_t missing = 0;
  };

  void Add(const index::RangeQuery& q, const std::vector<record::Record>& got,
           Score* s) const {
    const auto& parser = *pool_.spec.parser;
    std::unordered_map<std::string, uint64_t> want;
    auto it = std::lower_bound(by_value_.begin(), by_value_.end(),
                               std::make_pair(q.lo, size_t{0}));
    for (; it != by_value_.end() && it->first <= q.hi; ++it) {
      auto rec = parser.Parse(pool_.lines[it->second]);
      if (!rec.ok()) continue;
      auto v = rec->IndexedValue(parser.schema());
      if (!v.ok() || *v < q.lo || *v > q.hi) continue;
      const uint64_t n = pool_.Multiplicity(it->second, offered_);
      want[rec->ToString()] += n;
      s->expected += n;
    }
    for (const auto& r : got) {
      auto w = want.find(r.ToString());
      if (w == want.end() || w->second == 0) {
        ++s->missing;
      } else {
        --w->second;
        ++s->matched;
      }
    }
  }

 private:
  const LinePool& pool_;
  uint64_t offered_;
  std::vector<std::pair<double, size_t>> by_value_;
};

/// Sorted ciphertexts of one cloud answer, for byte-identity comparison.
std::vector<Bytes> Ciphertexts(const query::QueryResult& r) {
  std::vector<Bytes> out;
  for (const auto* part :
       {&r.indexed_records, &r.overflow_records, &r.unindexed_records}) {
    for (const auto& rr : *part) out.push_back(rr.e_record);
  }
  auto view = [](const Bytes& b) {
    return std::string_view(reinterpret_cast<const char*>(b.data()),
                            b.size());
  };
  std::sort(out.begin(), out.end(), [&](const Bytes& a, const Bytes& b) {
    return view(a) < view(b);
  });
  return out;
}

uint64_t CounterValue(const char* name) {
  return telemetry::Registry::Global()->GetCounter(name)->Value();
}

void ReadLiveCounters(const shard::ShardedPipelineMetrics& m,
                      LiveResult* r) {
  r->routed = m.router.per_shard;
  auto frac = [](size_t hwm, size_t cap) {
    return cap == 0 ? 0.0
                    : static_cast<double>(hwm) / static_cast<double>(cap);
  };
  for (const auto& s : m.shards) {
    r->hwm_ingress = std::max(
        r->hwm_ingress, frac(s.ingress_high_watermark, s.ingress_capacity));
    for (const auto& n : s.collector.nodes) {
      const double f = frac(n.inbox.high_watermark, n.inbox.capacity);
      double* slot = n.name == "checking" ? &r->hwm_checking
                     : n.name == "merger" ? &r->hwm_merger
                                          : &r->hwm_computing;
      *slot = std::max(*slot, f);
    }
  }
}

/// The correctness gate: conservation, publication outcomes, the
/// plaintext oracle and, for durable workloads, exact recovery.
void CheckRun(const Workload& w, uint64_t seed, const LinePool& pool,
              const shard::ShardedPipeline& pipe,
              const shard::ShardOptions& shard_opts,
              const std::string& durable_dir, uint64_t publish_failures,
              LiveResult* r) {
  const auto m = pipe.Metrics();
  Check(r, m.router.routed == r->offered, "router.routed",
        std::to_string(m.router.routed) + " routed of " +
            std::to_string(r->offered) + " offered");

  Check(r, publish_failures == 0, "publications",
        std::to_string(publish_failures) + " of " +
            std::to_string(r->publications) + " waits failed");

  // Exact ledger: every offered record (and every dummy) is stored at the
  // cloud, diverted to an overflow array, or counted as a named drop.
  uint64_t drops = 0;
  uint64_t overflow_drops = 0;
  for (const auto& s : m.shards) {
    drops += s.collector.parse_errors + s.collector.codec_failures +
             s.collector.pending_dropped + s.collector.shed_records;
    overflow_drops += s.collector.overflow_drops;
  }
  const uint64_t dummies = CounterValue("ingest.dummy_records");
  const uint64_t removed = CounterValue("collector.records_removed");
  const uint64_t stored = pipe.cloud()->total_records();
  Check(r, stored + removed + drops == r->offered + dummies, "ledger",
        "stored " + std::to_string(stored) + " + removed " +
            std::to_string(removed) + " + drops " + std::to_string(drops) +
            " vs offered " + std::to_string(r->offered) + " + dummies " +
            std::to_string(dummies));
  std::cout << "record_drop_frac: "
            << static_cast<double>(drops + overflow_drops) /
                   static_cast<double>(r->offered)
            << " (overflow_drops " << overflow_drops << ")\n";

  // Seeded probes: every decrypted record must be one the bench offered.
  // Recall is reported, not gated: DP pruning may drop whole leaves.
  const Oracle oracle(pool, r->offered);
  Oracle::Score score;
  client::Client c(BenchKeys(), &pool.spec.parser->schema());
  const auto probes = QueryDeck(pool.spec, kProbes, seed ^ kProbeSeed);
  uint64_t probe_failures = 0;
  for (const auto& q : probes) {
    auto got = ClientQuery(*pipe.cloud(), &c, q);
    if (!got.ok()) {
      ++probe_failures;
      continue;
    }
    oracle.Add(q, *got, &score);
  }
  Check(r, probe_failures == 0 && score.missing == 0, "probe.oracle",
        std::to_string(score.missing) + " decrypted records missing from the "
            "oracle, " + std::to_string(probe_failures) + " failed queries; "
            "recall " + std::to_string(score.expected == 0
                             ? 1.0
                             : static_cast<double>(score.matched) /
                                   static_cast<double>(score.expected)));

  if (!w.durable) return;
  const int64_t t = Now();
  auto rec = shard::RecoverShardedCloud(durable_dir, pool.spec, shard_opts);
  r->recovery_s = static_cast<double>(Now() - t) * 1e-9;
  if (!rec.ok()) {
    Check(r, false, "recovery", rec.status().ToString());
    return;
  }
  bool same = true;
  std::ostringstream detail;
  detail << "per-shard records live/recovered";
  for (size_t i = 0; i < pipe.cloud()->num_shards(); ++i) {
    const size_t live = pipe.cloud()->shard(i)->total_records();
    const size_t back = rec->cloud->shard(i)->total_records();
    detail << " " << live << "/" << back;
    same = same && live == back;
  }
  for (const auto& q : probes) {
    auto a = pipe.cloud()->ExecuteQuery(q);
    auto b = rec->cloud->ExecuteQuery(q);
    same = same && a.ok() && b.ok() && Ciphertexts(*a) == Ciphertexts(*b);
  }
  detail << "; probe ciphertext multisets compared byte for byte";
  Check(r, same, "recovery", detail.str());
}

/// Constructs and starts the pipeline kSetups times, each in a fresh data
/// dir, and records the median time of construction + Start(). Returns the
/// last pipeline, the one the run measures, with its config in `cfg`; null
/// if a Start() failed.
std::unique_ptr<shard::ShardedPipeline> SetUp(
    const Workload& w, const LinePool& pool, const crypto::KeyManager& keys,
    const std::string& run_dir, shard::ShardedPipelineConfig* cfg,
    LiveResult* r) {
  std::unique_ptr<shard::ShardedPipeline> pipe;
  std::vector<double> setups;
  std::error_code ec;
  for (int i = 0; i < kSetups; ++i) {
    if (pipe != nullptr) {
      (void)pipe->Shutdown();
      pipe.reset();
      std::filesystem::remove_all(cfg->durability.data_dir, ec);
    }
    *cfg = MakePipelineConfig(w, pool.spec,
                              run_dir + "/setup-" + std::to_string(i));
    shard::ShardedPipelineConfig copy = *cfg;
    crypto::KeyManager k = keys;
    const int64_t t = Now();
    pipe = std::make_unique<shard::ShardedPipeline>(std::move(copy),
                                                    std::move(k));
    Status st = pipe->Start();
    setups.push_back(static_cast<double>(Now() - t) * 1e-9);
    if (!st.ok()) {
      Check(r, false, "pipeline.start", st.ToString());
      return nullptr;
    }
  }
  r->setup_s = Median(setups);
  return pipe;
}

}  // namespace

LiveResult RunLive(const Workload& w, const Options& o, const LinePool& pool) {
  LiveResult r;
  const crypto::KeyManager keys = BenchKeys();
  const std::string run_dir = o.data_dir + "/" + w.name + "-" +
                              std::to_string(static_cast<long>(getpid()));
  std::error_code ec;
  std::filesystem::remove_all(run_dir, ec);
  shard::ShardedPipelineConfig cfg;
  std::unique_ptr<shard::ShardedPipeline> pipe =
      SetUp(w, pool, keys, run_dir, &cfg, &r);
  if (pipe == nullptr) {
    std::filesystem::remove_all(run_dir, ec);
    return r;
  }

  const uint64_t interval = IntervalRecords(w, o);
  const uint64_t total = RecordsToOffer(w, o);

  PublicationWaiter waiter(pipe.get());
  std::vector<double> query_ms;
  uint64_t query_failures = 0;
  std::atomic<bool> ingest_done{false};
  obs::SetE2eSamplingActive(true);
  const int64_t t0 = Now();

  // Open-loop readers send on a fixed schedule beside ingest and are timed
  // from the scheduled send, so a stall also delays the queries behind it.
  std::thread reader;
  if (w.query_qps > 0) {
    reader = std::thread([&] {
      client::Client c(keys, &pool.spec.parser->schema());
      const auto deck = QueryDeck(pool.spec,
                                  Scaled(o, o.seconds * w.query_qps, 20),
                                  o.seed ^ kQuerySeed);
      const double gap_ns = 1e9 / w.query_qps;
      for (uint64_t i = 0;; ++i) {
        const int64_t due =
            t0 + static_cast<int64_t>(static_cast<double>(i) * gap_ns);
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - Now()));
        if (ingest_done.load(std::memory_order_acquire)) break;
        if (ClientQuery(*pipe->cloud(), &c, deck[i % deck.size()]).ok()) {
          query_ms.push_back(Ms(Now() - due));
        } else {
          ++query_failures;
        }
      }
    });
  }

  Xoshiro256 arrivals(o.seed ^ kArrivalSeed);
  const double gap_ns = 1e9 / w.rate_rps;
  double next_ns = 0;
  int64_t prev = t0;
  int64_t lag_max = 0;
  for (uint64_t i = 0; i < total; ++i) {
    int64_t born = 0;
    if (w.loop == Loop::kOpen) {
      next_ns += -std::log(arrivals.NextDoubleOpenLow()) * gap_ns;
      born = t0 + static_cast<int64_t>(next_ns);
      int64_t now = Now();
      // Sleeps wake ~50-100 us late; records due meanwhile go out as a
      // burst, each still stamped with its own due time.
      if (born > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(born - now));
        now = Now();
      }
      lag_max = std::max(lag_max, now - born);
    } else {
      born = Now();
      lag_max = std::max(lag_max, born - prev);
      prev = born;
    }
    Status st =
        pipe->Ingest(pool.at(i), engine::IngestPriority::kNormal, born);
    if (!st.ok()) {
      Check(&r, false, "ingest", st.ToString());
      break;
    }
    ++r.offered;
    if ((i + 1) % interval == 0) {
      const uint64_t pn = pipe->current_publication();
      const int64_t called = Now();
      Status ps = pipe->Publish();
      if (!ps.ok()) {
        Check(&r, false, "publish", ps.ToString());
        break;
      }
      waiter.Published(pn, called);
      ++r.publications;
    }
  }
  Status shutdown = pipe->Shutdown();
  const int64_t t1 = Now();
  ingest_done.store(true, std::memory_order_release);
  if (reader.joinable()) reader.join();
  waiter.Finish();
  obs::SetE2eSamplingActive(false);
  Check(&r, shutdown.ok(), "shutdown", shutdown.ToString());

  r.ingest_rps =
      static_cast<double>(r.offered) / (static_cast<double>(t1 - t0) * 1e-9);
  r.lag_max_ms = Ms(lag_max);
  const auto e2e = obs::GlobalE2eSketch()->QueryMany({0.50, 0.99});
  r.e2e_p50_ms = Ms(static_cast<int64_t>(e2e[0]));
  r.e2e_p99_ms = Ms(static_cast<int64_t>(e2e[1]));
  r.publish_p50_ms = Median(waiter.latencies_ms());

  r.queries = query_ms.size() + query_failures;
  r.query_p50_ms = Quantile(query_ms, 0.50);
  r.query_p99_ms = Quantile(query_ms, 0.99);
  r.failed_ops = waiter.failures() + query_failures;
  Check(&r, query_failures == 0, "queries",
        std::to_string(query_failures) + " of " + std::to_string(r.queries) +
            " failed");

  ReadLiveCounters(pipe->Metrics(), &r);
  CheckRun(w, o.seed, pool, *pipe, cfg.shard, cfg.durability.data_dir,
           waiter.failures(), &r);
  pipe.reset();
  std::filesystem::remove_all(run_dir, ec);
  return r;
}

}  // namespace fbench
}  // namespace fresque
