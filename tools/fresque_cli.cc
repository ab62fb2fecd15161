// fresque_cli — command-line front door to the library:
//
//   fresque_cli generate <nasa|gowalla> <count> <lines.txt>
//   fresque_cli ingest   <nasa|gowalla> <lines.txt> <snapshot.bin>
//                        [epsilon] [nodes] [interval_records] [key_hex]
//   fresque_cli query    <nasa|gowalla> <snapshot.bin> <lo> <hi> [key_hex]
//   fresque_cli verify   <nasa|gowalla> <snapshot.bin> [key_hex]
//   fresque_cli inspect  <snapshot.bin>
//   fresque_cli wal-dump <data-dir>/shard-<i>
//   fresque_cli recover  <nasa|gowalla> <data-dir> [snapshot.bin]
//   fresque_cli metrics-dump <metrics.json>
//
// Every command runs one pipeline shape (DESIGN.md §17): a router in
// front of N collector pipelines, N = --shards (default 1). `ingest` runs
// the collectors over the file, publishing every `interval_records`
// lines (default 100000; 0 is an error), then persists shard i's cloud
// state as `<snapshot.bin>.shard-<i>`; `query`, `verify` and `inspect`
// read that snapshot set back. The key (hex master secret, default a
// fixed demo key) must match between ingest and query/verify; a key that
// is not valid hex is an error.
//
// Each flag group below names the commands that read it; a flag given to
// any other command is an error (exit 1), never silently ignored.
//
// Sharding flags (apply to `ingest`, `query`, `verify` and `recover`;
// the last three must repeat the ingest's values):
//   --shards=<n>                 collector pipelines (default 1)
//   --shard-by=range|hash        placement of records on shards
//   --epsilon-composition=auto|split|full
//                                per-shard DP budget rule (ingest only)
//
// Durability flags (apply to `ingest`):
//   --data-dir=<dir>      shard i keeps its write-ahead log + snapshots in
//                         <dir>/shard-<i>; every completed publication
//                         is then durable, and `recover`
//                         rebuilds the store after a crash
//   --fsync=<policy>      always | interval | interval:<ms> | never
//   --snapshot-every=<n>  every n installs, or later while the previous
//                         snapshot is still being written, write the newly
//                         installed publications to one sealed file and
//                         the open ones to an open file, then truncate the
//                         WAL, on a background writer per shard (0 = only
//                         the final snapshot); `wal-dump` prints the
//                         MANIFEST's file list, then the log
//
// Observability flags (apply to `ingest`, see DESIGN.md §11):
//   --metrics-out=<file>        dump the metrics registry plus the
//                               pipeline's rows (docs/METRICS.md), read
//                               at each dump, periodically and at exit;
//                               JSON when the path ends in .json,
//                               Prometheus text exposition otherwise
//   --metrics-interval-ms=<n>   dump period (default 1000; must be > 0)
//
// Live-observability flags (apply to `ingest`, see DESIGN.md §16):
//   --obs-addr=<[host:]port>    serve GET /metrics /healthz /readyz
//                               /statusz /flightz on this address for the
//                               duration of the run (port 0 = ephemeral;
//                               the bound port is printed at startup)
//   --slo-e2e-ms=<n>            end-to-end latency SLO target; samples
//                               above it burn `slo.e2e_violations`
//                               (0 = SLO accounting off)
//   --flight-capacity=<n>       flight-recorder ring size in events
//                               (default 4096; 64 to 1048576); the ring
//                               is dumped to stderr (and
//                               <data-dir>/flight.dump when --data-dir
//                               is set) on SIGSEGV/SIGABRT/SIGTERM and
//                               served live at /flightz
//
// Query-engine flags (apply to `query`, see DESIGN.md §15):
//   --query-threads=<n>      executor worker threads (default 2; > 0)
//   --query-queue=<n>        admission bound: queued queries beyond this
//                            are shed with kOverloaded (default 64; > 0)
//   --query-deadline-ms=<n>  per-query deadline (0 = unbounded)
//   --repeat=<n>             run the range n times and report p50/p95/p99
//                            (default 1; > 0)
//
// Admission-control flags (apply to `ingest`, see DESIGN.md §13):
//   --admission-rps=<rate>      enable admission control with a token
//                               bucket capping each shard's admitted rate
//                               (the whole run admits up to N x rate);
//                               shed lines are skipped and counted, not
//                               fatal
//   --shed-watermarks=<lo>:<hi> queue-fill fractions above which kLow /
//                               kNormal records are shed (default
//                               0.50:0.85; requires --admission-rps,
//                               which enables the gate)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "client/client.h"
#include "cloud/server.h"
#include "common/bytes.h"
#include "crypto/key_manager.h"
#include "durability/recovery.h"
#include "durability/snapshot_manager.h"
#include "durability/wal.h"
#include "engine/config.h"
#include "obs/flight_recorder.h"
#include "obs/sampler.h"
#include "obs/server.h"
#include "query/executor.h"
#include "record/dataset.h"
#include "shard/pipeline.h"
#include "shard/sharded_cloud.h"
#include "telemetry/metrics.h"

namespace {

using namespace fresque;

constexpr const char* kDefaultKeyHex =
    "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f";

int Fail(const std::string& msg) {
  std::cerr << "error: " << msg << "\n";
  return 1;
}

Result<record::DatasetSpec> SpecByName(const std::string& name) {
  if (name == "nasa") return record::NasaDataset();
  if (name == "gowalla") return record::GowallaDataset();
  return Status::InvalidArgument("unknown dataset " + name +
                                 " (want nasa|gowalla)");
}

/// A typo in the key must not silently fall back to the published demo
/// key: the data would be encrypted under a key everyone knows.
Result<crypto::KeyManager> KeysFromHex(const std::string& hex) {
  auto bytes = FromHex(hex);
  if (!bytes.ok() || bytes->empty()) {
    return Status::InvalidArgument("bad key hex (want an even-length,"
                                   " non-empty hex string)");
  }
  return crypto::KeyManager(std::move(*bytes));
}

/// The commands that read each flag (the header comment groups them the
/// same way). main() rejects a flag given to any other command.
struct FlagReaders {
  std::string_view flag;
  std::vector<std::string_view> commands;
};

const std::vector<FlagReaders>& FlagTable() {
  static const std::vector<FlagReaders> table = {
      {"--shards", {"ingest", "query", "verify", "recover"}},
      {"--shard-by", {"ingest", "query", "verify", "recover"}},
      {"--epsilon-composition", {"ingest"}},
      {"--data-dir", {"ingest"}},
      {"--fsync", {"ingest"}},
      {"--snapshot-every", {"ingest"}},
      {"--metrics-out", {"ingest"}},
      {"--metrics-interval-ms", {"ingest"}},
      {"--obs-addr", {"ingest"}},
      {"--slo-e2e-ms", {"ingest"}},
      {"--flight-capacity", {"ingest"}},
      {"--admission-rps", {"ingest"}},
      {"--shed-watermarks", {"ingest"}},
      {"--query-threads", {"query"}},
      {"--query-queue", {"query"}},
      {"--query-deadline-ms", {"query"}},
      {"--repeat", {"query"}},
  };
  return table;
}

/// OK if `cmd` reads `flag` (the name before '='); otherwise an error
/// naming the flag, the command and the commands that do read it.
Status CheckFlagApplies(const std::string& flag, const std::string& cmd) {
  for (const FlagReaders& f : FlagTable()) {
    if (f.flag != flag) continue;
    std::string readers;
    for (std::string_view c : f.commands) {
      if (c == cmd) return Status::OK();
      readers += (readers.empty() ? "" : ", ") + std::string(c);
    }
    return Status::InvalidArgument(flag + " does not apply to `" + cmd +
                                   "` (read by: " + readers + ")");
  }
  return Status::InvalidArgument("unknown flag " + flag);
}

/// Parses the unsigned value of `--<name>=<n>` into `*out`. `positive`
/// rejects 0, for flags where zero means nothing (a count or a period).
template <typename T>
Status ParseCount(const std::string& arg, bool positive, T* out) {
  const size_t eq = arg.find('=');
  const std::string flag = arg.substr(0, eq);
  const std::string value = arg.substr(eq + 1);
  try {
    *out = static_cast<T>(std::stoull(value));
  } catch (const std::exception&) {
    return Status::InvalidArgument("bad " + flag + " value: " + value);
  }
  if (positive && *out == 0) {
    return Status::InvalidArgument(flag + " wants a positive count");
  }
  return Status::OK();
}

int CmdGenerate(const std::string& dataset, size_t count,
                const std::string& path) {
  auto spec = SpecByName(dataset);
  if (!spec.ok()) return Fail(spec.status().ToString());
  auto gen = record::MakeGenerator(*spec, 20210323);
  if (!gen.ok()) return Fail(gen.status().ToString());
  std::ofstream out(path);
  if (!out) return Fail("cannot open " + path);
  for (size_t i = 0; i < count; ++i) out << (*gen)->NextLine() << "\n";
  std::cout << "wrote " << count << " " << dataset << " lines to " << path
            << "\n";
  return 0;
}

/// Observability options parsed from --metrics-out.
struct TelemetryOptions {
  std::string metrics_out;
  size_t metrics_interval_ms = 1000;
};

/// Appends a live source's rows to a registry snapshot.
using AppendMetrics = std::function<void(telemetry::MetricsSnapshot*)>;

/// Background thread dumping the registry plus `append`'s rows to `path`
/// every interval, plus a final dump on destruction (so short runs still
/// produce a file). `append` runs on the dumper's thread and must outlive
/// the dumper.
class MetricsDumper {
 public:
  MetricsDumper(std::string path, size_t interval_ms, AppendMetrics append)
      : path_(std::move(path)),
        interval_ms_(interval_ms),
        append_(std::move(append)) {
    thread_ = std::thread([this] { Loop(); });
  }

  ~MetricsDumper() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    Dump();
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_));
      if (stop_) break;
      lock.unlock();
      Dump();
      lock.lock();
    }
  }

  void Dump() {
    auto snap = telemetry::Registry::Global()->Snapshot();
    append_(&snap);
    if (auto st = telemetry::WriteMetricsFile(snap, path_); !st.ok()) {
      std::cerr << "warning: metrics dump: " << st.ToString() << "\n";
    }
  }

  std::string path_;
  size_t interval_ms_;
  AppendMetrics append_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Knobs for the `query` subcommand's executor path.
struct QueryCliOptions {
  size_t threads = 2;        ///< --query-threads
  size_t queue = 64;         ///< --query-queue (admission bound)
  uint64_t deadline_ms = 0;  ///< --query-deadline-ms (0 = unbounded)
  size_t repeat = 1;         ///< --repeat (same range, reports latency)
};

/// Where shard `i` persists its snapshot: the base path plus a
/// `.shard-<i>` suffix, so the set can be reassembled from the base path
/// and the shard options alone.
std::string ShardSnapshotPath(const std::string& snap_path, size_t i) {
  return snap_path + ".shard-" + std::to_string(i);
}

/// Reassembles the sharded cloud from the snapshot set `ingest` wrote.
Result<std::unique_ptr<shard::ShardedCloudServer>> LoadSnapshotSet(
    const record::DatasetSpec& spec, const std::string& snap_path,
    const shard::ShardOptions& opts) {
  auto placement = shard::ShardPlacement::Create(spec, opts);
  if (!placement.ok()) return placement.status();
  auto cloud = std::make_unique<shard::ShardedCloudServer>(*placement);
  for (size_t i = 0; i < placement->num_shards(); ++i) {
    auto srv =
        cloud::CloudServer::LoadSnapshot(ShardSnapshotPath(snap_path, i));
    Status st = srv.ok() ? cloud->AdoptShard(i, std::move(*srv)) : srv.status();
    if (!st.ok()) {
      return Status(st.code(),
                    "shard " + std::to_string(i) + ": " + st.ToString() +
                        " (was the ingest run with the same"
                        " --shards/--shard-by?)");
    }
  }
  return cloud;
}

int CmdIngest(const std::string& dataset, const std::string& in_path,
              const std::string& snap_path, size_t interval,
              const std::string& key_hex, shard::ShardedPipelineConfig cfg,
              const TelemetryOptions& tel, const engine::ObsConfig& obs) {
  auto spec = SpecByName(dataset);
  if (!spec.ok()) return Fail(spec.status().ToString());
  auto keys = KeysFromHex(key_hex);
  if (!keys.ok()) return Fail(keys.status().ToString());
  std::ifstream in(in_path);
  if (!in) return Fail("cannot open " + in_path);
  cfg.collector.dataset = *spec;
  const engine::DurabilityConfig& dur = cfg.durability;

  if (dur.enabled()) {
    std::error_code ec;
    std::filesystem::create_directories(dur.data_dir, ec);
    if (durability::RecoveryManager::HasState(dur.data_dir)) {
      return Fail("data dir " + dur.data_dir +
                  " holds an unsharded durability layout; move it into " +
                  shard::ShardDataDir(dur.data_dir, 0) +
                  "/ or pick a fresh directory");
    }
    for (size_t i = 0; i < cfg.shard.num_shards; ++i) {
      const std::string sdir = shard::ShardDataDir(dur.data_dir, i);
      if (durability::RecoveryManager::HasState(sdir)) {
        return Fail("shard data dir " + sdir +
                    " already holds durability state; run `fresque_cli"
                    " recover` on it or pick a fresh directory");
      }
    }
  }

  // Flight recorder first: capacity must land before the first event, and
  // the crash handlers before any pipeline thread that could fault. The
  // dump lands on stderr always, plus <data-dir>/flight.dump when a data
  // dir exists (crash forensics next to the WALs they explain). main()
  // has range-checked the capacity, so a refusal means an event came first.
  if (!obs::FlightRecorder::ConfigureGlobalCapacity(obs.flight_capacity)) {
    return Fail("flight recorder created before --flight-capacity applied");
  }
  obs::InstallCrashHandlers(dur.enabled() ? dur.data_dir + "/flight.dump"
                                          : std::string());
  obs::SetSloE2eTargetNs(static_cast<int64_t>(obs.slo_e2e_ms) * 1000000);

  shard::ShardedPipeline pipe(cfg, std::move(*keys));
  if (auto st = pipe.Start(); !st.ok()) return Fail(st.ToString());

  // Every export reads the pipeline's numbers as it runs. The dumper and
  // the obs server are declared after the pipeline, so every return path
  // stops them (joining their threads) before the pipeline they read is
  // destroyed; the obs server goes first, so its sampler's closing fold
  // lands in the dumper's final snapshot.
  const AppendMetrics append_rows = [&pipe](telemetry::MetricsSnapshot* s) {
    pipe.Metrics().AppendTo(s);
  };
  std::unique_ptr<MetricsDumper> dumper;
  if (!tel.metrics_out.empty()) {
    dumper = std::make_unique<MetricsDumper>(
        tel.metrics_out, tel.metrics_interval_ms, append_rows);
  }

  // The observability plane (DESIGN.md §16).
  const bool dur_on = dur.enabled();
  std::atomic<bool> obs_ready{true};
  std::unique_ptr<obs::ObsServer> obs_server;
  if (obs.enabled()) {
    auto parsed = obs::ParseObsAddr(obs.addr);
    if (!parsed.ok()) {
      return Fail("bad --obs-addr: " + parsed.status().ToString());
    }
    obs::ObsServerOptions oopts;
    oopts.host = parsed->first;
    oopts.port = parsed->second;
    oopts.sample_interval_ms = obs.sample_interval_ms;
    oopts.ready_source = [&obs_ready] {
      return obs_ready.load(std::memory_order_relaxed);
    };
    oopts.append_metrics = append_rows;
    oopts.status_source = [&pipe, dur_on] {
      obs::StatusSnapshot s;
      auto m = pipe.Metrics();
      for (const auto& n : m.CollectorTotals().nodes) {
        s.nodes.push_back({n.name, n.inbox.depth, n.inbox.capacity,
                           n.inbox.high_watermark, n.frames_processed});
      }
      s.shards.reserve(m.shards.size());
      for (const auto& sh : m.shards) {
        obs::StatusSnapshot::Shard row;
        row.shard = sh.shard;
        row.routed = sh.routed;
        row.ingress_depth = sh.ingress_depth;
        row.ingress_capacity = sh.ingress_capacity;
        row.ingress_watermark = sh.ingress_high_watermark;
        row.view_epoch = sh.view_epoch;
        row.publications = sh.publications;
        row.records = sh.records;
        s.view_epoch = std::max<uint64_t>(s.view_epoch, sh.view_epoch);
        s.publications = std::max<uint64_t>(s.publications, sh.publications);
        s.total_records += sh.records;
        s.shards.push_back(row);
      }
      s.open_publication = static_cast<int64_t>(pipe.current_publication());
      if (dur_on) {
        auto dm = m.DurabilityTotals();
        s.wal_frames = dm.wal_frames;
        s.wal_bytes = dm.wal_bytes;
        s.wal_segments = dm.wal_segments_created - dm.wal_segments_deleted;
        s.snapshots_written = dm.snapshots_written;
        s.last_snapshot_millis =
            static_cast<int64_t>(dm.last_snapshot_millis);
      }
      return s;
    };
    obs_server = std::make_unique<obs::ObsServer>(std::move(oopts));
    if (auto st = obs_server->Start(); !st.ok()) {
      return Fail("obs server: " + st.ToString());
    }
    // std::endl: scrape scripts tail the log for the bound (possibly
    // ephemeral) port, so this line must not sit in a full buffer.
    std::cout << "obs: listening on http://" << parsed->first << ":"
              << obs_server->port() << " (/metrics /healthz /readyz"
              << " /statusz /flightz)" << std::endl;
  }

  std::string line;
  size_t total = 0, in_interval = 0, publications = 0;
  while (std::getline(in, line)) {
    pipe.SetIntervalProgress(static_cast<double>(in_interval) /
                             static_cast<double>(interval));
    if (auto st = pipe.Ingest(line); !st.ok()) return Fail(st.ToString());
    ++total;
    if (++in_interval >= interval) {
      if (auto st = pipe.Publish(); !st.ok()) return Fail(st.ToString());
      in_interval = 0;
      ++publications;
    }
  }
  obs_ready.store(false, std::memory_order_relaxed);  // /readyz goes 503
  // Shutdown drains every shard and publishes each open interval, waiting
  // for the cloud to complete the final publications.
  if (auto st = pipe.Shutdown(); !st.ok()) return Fail(st.ToString());
  if (in_interval > 0) ++publications;
  if (auto st = pipe.WriteFinalSnapshots(); !st.ok()) {
    return Fail(st.ToString());
  }

  auto m = pipe.Metrics();
  std::cout << "ingested " << total << " lines across "
            << cfg.shard.num_shards << " "
            << shard::ToString(cfg.shard.shard_by) << " shard(s) ("
            << m.router.extract_fallbacks << " routed by fallback hash), "
            << publications << " publication(s), epsilon "
            << pipe.placement().ShardEpsilon(cfg.collector.epsilon)
            << "/shard ["
            << shard::ToString(pipe.placement().effective_composition())
            << " composition]\n";
  uint64_t routed_sum = 0;
  for (const auto& sh : m.shards) {
    routed_sum += sh.routed;
    const std::string spath = ShardSnapshotPath(snap_path, sh.shard);
    if (auto st = pipe.cloud()->shard(sh.shard)->SaveSnapshot(spath);
        !st.ok()) {
      return Fail("shard " + std::to_string(sh.shard) +
                  " snapshot: " + st.ToString());
    }
    std::cout << "  shard " << sh.shard << ": " << sh.routed << " routed, "
              << sh.records << " stored record(s), ingress watermark "
              << sh.ingress_high_watermark << "/" << sh.ingress_capacity
              << ", " << sh.publications << " publication(s) -> " << spath
              << "\n";
  }
  // Conservation ledger: every ingested line was routed to exactly one
  // shard; a mismatch here is a router bug, not an operational condition.
  if (routed_sum != total || m.router.routed != total) {
    return Fail("conservation violated: ingested " + std::to_string(total) +
                " but routed " + std::to_string(routed_sum));
  }
  std::cout << "conservation: " << total << " ingested == " << routed_sum
            << " routed (exactly-once placement)\n";
  const engine::CollectorMetrics totals = m.CollectorTotals();
  std::cout << "collector drops: " << totals.TotalDrops() << " (parse "
            << totals.parse_errors << ", codec " << totals.codec_failures
            << ", pending " << totals.pending_dropped << ", overflow "
            << totals.overflow_drops << ")\n";
  if (cfg.collector.admission.enabled) {
    std::cout << "admission: " << totals.shed_records
              << " line(s) shed (cap "
              << cfg.collector.admission.rate_records_per_sec
              << " rec/s per shard)\n";
  }
  if (dur.enabled()) {
    auto dm = m.DurabilityTotals();
    std::cout << "durability: " << dm.wal_frames << " WAL frame(s), "
              << dm.wal_bytes << " bytes, " << dm.wal_fsyncs << " fsync(s), "
              << dm.wal_segments_created << " segment(s) ("
              << dm.wal_segments_deleted << " truncated), "
              << dm.snapshots_written << " snapshot(s) in " << dur.data_dir
              << "/shard-<i> [fsync="
              << durability::FsyncPolicyToString(dur.fsync_policy) << "]\n";
  }

  if (obs_server) {
    // Stop before the final metrics dump so the sampler's closing fold
    // (e2e quantiles) lands in the dumped snapshot.
    obs_server->Stop();
    std::cout << "obs: served " << obs_server->requests()
              << " HTTP request(s)\n";
  }
  dumper.reset();  // stop the thread and write the final snapshot
  if (!tel.metrics_out.empty()) {
    std::cout << "metrics: " << tel.metrics_out << "\n";
  }
  return 0;
}

/// Fans the range query out across the shards whose slice intersects it
/// and merges the results with exact accounting.
int CmdQuery(const std::string& dataset, const std::string& snap_path,
             double lo, double hi, const std::string& key_hex,
             const QueryCliOptions& opts, const shard::ShardOptions& shards) {
  auto spec = SpecByName(dataset);
  if (!spec.ok()) return Fail(spec.status().ToString());
  auto keys = KeysFromHex(key_hex);
  if (!keys.ok()) return Fail(keys.status().ToString());
  auto cloud = LoadSnapshotSet(*spec, snap_path, shards);
  if (!cloud.ok()) return Fail(cloud.status().ToString());

  // Serve through the concurrent query engine (DESIGN.md §15): the fan-out
  // runs under the worker's deadline/cancellation context on every shard,
  // with the admission/deadline semantics a live deployment gets.
  query::ExecutorOptions eo;
  eo.num_threads = opts.threads;
  eo.queue_capacity = opts.queue;
  eo.default_deadline = std::chrono::milliseconds(opts.deadline_ms);
  shard::ShardedCloudServer* srv = cloud->get();
  query::QueryExecutor executor(
      [srv](const index::RangeQuery& q, const query::QueryContext& ctx) {
        return srv->ExecuteQuery(q, ctx);
      },
      eo);

  client::Client client(std::move(*keys), &spec->parser->schema());
  const index::RangeQuery q{lo, hi};
  std::vector<double> latencies_ms;
  latencies_ms.reserve(opts.repeat);
  Result<cloud::QueryResult> last = cloud::QueryResult{};
  for (size_t i = 0; i < opts.repeat; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    last = executor.Execute(q);
    auto t1 = std::chrono::steady_clock::now();
    if (!last.ok()) return Fail(last.status().ToString());
    latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  executor.Shutdown();
  auto records = client.Decrypt(*last, q);
  if (!records.ok()) return Fail(records.status().ToString());

  std::cout << records->size() << " records match [" << lo << ", " << hi
            << "]\n";
  for (size_t i = 0; i < records->size() && i < 5; ++i) {
    std::cout << "  " << (*records)[i].ToString() << "\n";
  }
  if (records->size() > 5) std::cout << "  ...\n";
  if (opts.repeat > 1) {
    std::sort(latencies_ms.begin(), latencies_ms.end());
    auto pct = [&](double p) {
      size_t i = static_cast<size_t>(p * (latencies_ms.size() - 1));
      return latencies_ms[i];
    };
    std::cout << "latency over " << opts.repeat << " runs: p50 " << pct(0.50)
              << " ms, p95 " << pct(0.95) << " ms, p99 " << pct(0.99)
              << " ms\n";
  }
  auto em = executor.metrics();
  std::cout << "executor: " << em.submitted << " submitted, " << em.executed
            << " ok, " << em.shed << " shed, " << em.deadline_exceeded
            << " deadline-exceeded, " << em.cancelled << " cancelled, "
            << em.failed << " failed\n";

  // The fan-out ledger: which shards were probed, what each contributed,
  // and that the per-shard counts sum to the merged result.
  shard::FanoutStats stats;
  auto direct = srv->ExecuteQuery(q, &stats);
  if (!direct.ok()) return Fail(direct.status().ToString());
  std::cout << "fan-out: " << stats.probed.size() << " shard(s) probed, "
            << stats.shards_pruned << " pruned by the placement\n";
  for (const auto& s : stats.probed) {
    std::cout << "  shard " << s.shard << " (view epoch " << s.view_epoch
              << ", leaf cache hit ratio "
              << srv->shard(s.shard)->leaf_cache().stats().HitRatio()
              << "): " << s.indexed_records << " indexed + "
              << s.overflow_records << " overflow + " << s.unindexed_records
              << " unindexed = " << s.Total() << "\n";
  }
  std::cout << "ledger: " << stats.TotalRecords()
            << " across probed shards == " << direct->TotalRecords()
            << " merged ciphertext(s)\n";
  return stats.TotalRecords() == direct->TotalRecords() ? 0 : 2;
}

int CmdVerify(const std::string& dataset, const std::string& snap_path,
              const std::string& key_hex, const shard::ShardOptions& shards) {
  auto spec = SpecByName(dataset);
  if (!spec.ok()) return Fail(spec.status().ToString());
  auto keys = KeysFromHex(key_hex);
  if (!keys.ok()) return Fail(keys.status().ToString());
  auto cloud = LoadSnapshotSet(*spec, snap_path, shards);
  if (!cloud.ok()) return Fail(cloud.status().ToString());
  client::Client client(std::move(*keys), &spec->parser->schema());

  size_t verified = 0, failed = 0;
  for (size_t i = 0; i < (*cloud)->num_shards(); ++i) {
    const cloud::CloudServer& server = *(*cloud)->shard(i);
    for (uint64_t pn = 0; pn < server.num_publications() + 8; ++pn) {
      Status st = client.VerifyPublication(server, pn);
      if (st.ok()) {
        ++verified;
        std::cout << "shard " << i << " publication " << pn << ": OK\n";
      } else if (!st.IsNotFound()) {
        ++failed;
        std::cout << "shard " << i << " publication " << pn << ": "
                  << st.ToString() << "\n";
      }
    }
  }
  std::cout << verified << " verified, " << failed << " failed\n";
  return failed == 0 ? 0 : 2;
}

/// Describes every `<snapshot.bin>.shard-<i>` present, then the set.
int CmdInspect(const std::string& snap_path) {
  size_t shards = 0, publications = 0, records = 0, bytes = 0;
  for (;; ++shards) {
    const std::string path = ShardSnapshotPath(snap_path, shards);
    if (!std::filesystem::exists(path)) break;
    auto server = cloud::CloudServer::LoadSnapshot(path);
    if (!server.ok()) return Fail(path + ": " + server.status().ToString());
    const auto& binning = (*server)->binning();
    std::cout << "shard " << shards << " (" << path << "): domain ["
              << binning.domain_min() << ", " << binning.domain_max() << "), "
              << binning.num_bins() << " bins of " << binning.bin_width()
              << ", " << (*server)->num_publications() << " publication(s), "
              << (*server)->total_records() << " stored record(s), "
              << (*server)->total_bytes() << " payload bytes\n";
    publications = std::max(publications, (*server)->num_publications());
    records += (*server)->total_records();
    bytes += (*server)->total_bytes();
  }
  if (shards == 0) {
    return Fail("no snapshot set at " + ShardSnapshotPath(snap_path, 0));
  }
  std::cout << "snapshot set " << snap_path << "\n"
            << "  shards: " << shards << "\n"
            << "  publications: " << publications << "\n"
            << "  stored records: " << records << "\n"
            << "  payload bytes: " << bytes << "\n";
  return 0;
}

int CmdWalDump(const std::string& data_dir) {
  auto manifest = durability::ReadManifest(data_dir);
  if (manifest.ok()) {
    std::cout << "MANIFEST: wal_lsn=" << manifest->wal_lsn << ", "
              << manifest->snapshot_files.size() << " snapshot file(s)\n";
    for (const std::string& file : manifest->snapshot_files) {
      std::cout << "  snapshot=" << file << "\n";
    }
  } else if (manifest.status().IsNotFound()) {
    std::cout << "MANIFEST: (none)\n";
  } else {
    return Fail(manifest.status().ToString());
  }

  auto stats = durability::Wal::Replay(
      data_dir, 0, [](const durability::Wal::Frame& f) -> Status {
        std::cout << "  lsn " << f.lsn << "  "
                  << durability::WalOpToString(f.op);
        switch (f.op) {
          case durability::WalOp::kMeta: {
            auto m = durability::DecodeWalMeta(f.body);
            if (!m.ok()) return m.status();
            std::cout << "  domain [" << m->domain_min << ", "
                      << m->domain_max << ") width " << m->bin_width;
            break;
          }
          case durability::WalOp::kStart: {
            auto pn = durability::DecodeWalStart(f.body);
            if (!pn.ok()) return pn.status();
            std::cout << "  pn " << *pn;
            break;
          }
          case durability::WalOp::kRecordBatch: {
            auto b = durability::DecodeWalRecordBatch(f.body);
            if (!b.ok()) return b.status();
            std::cout << "  pn " << b->pn << "  " << b->records.size()
                      << " record(s)";
            break;
          }
          case durability::WalOp::kInstall: {
            auto ins = durability::DecodeWalInstall(f.body);
            if (!ins.ok()) return ins.status();
            std::cout << "  pn " << ins->pn << "  publication "
                      << ins->publication.size() << " B";
            break;
          }
        }
        std::cout << "\n";
        return Status::OK();
      });
  if (!stats.ok()) return Fail(stats.status().ToString());
  std::cout << stats->frames << " frame(s), last lsn " << stats->last_lsn;
  if (stats->torn_tail) {
    std::cout << " (torn tail: " << stats->torn_bytes << " bytes discarded)";
  }
  std::cout << "\n";
  return 0;
}

/// Rebuilds every shard from `<data-dir>/shard-<i>` (snapshot + WAL tail)
/// and optionally writes the result as a snapshot set.
int CmdRecover(const std::string& dataset, const std::string& data_dir,
               const std::string& out_snap,
               const shard::ShardOptions& shards) {
  auto spec = SpecByName(dataset);
  if (!spec.ok()) return Fail(spec.status().ToString());
  auto recovered = shard::RecoverShardedCloud(data_dir, *spec, shards);
  if (!recovered.ok()) return Fail(recovered.status().ToString());
  const shard::ShardedCloudServer& cloud = *recovered->cloud;
  std::cout << "recovered " << cloud.num_publications() << " publication(s), "
            << cloud.total_records() << " record(s) across "
            << cloud.num_shards() << " shard(s)\n";
  for (const auto& rs : recovered->shards) {
    const auto& st = rs.stats;
    std::cout << "  shard " << rs.shard << ": ";
    if (!rs.recovered) {
      std::cout << "no durable state (empty)\n";
      continue;
    }
    std::cout << "snapshot "
              << (st.snapshot_loaded
                      ? "loaded (lsn " + std::to_string(st.snapshot_lsn) + ")"
                      : "none")
              << ", WAL " << st.frames_replayed << " frame(s) replayed ("
              << st.records_replayed << " record(s), " << st.installs_replayed
              << " install(s)), last lsn " << st.last_lsn << ", "
              << st.recovery_millis << " ms\n";
    if (st.torn_tail) {
      std::cout << "    torn tail: " << st.torn_bytes
                << " byte(s) of an in-flight frame discarded\n";
    }
  }
  if (!out_snap.empty()) {
    for (size_t i = 0; i < cloud.num_shards(); ++i) {
      const std::string path = ShardSnapshotPath(out_snap, i);
      if (auto s = cloud.shard(i)->SaveSnapshot(path); !s.ok()) {
        return Fail(s.ToString());
      }
      std::cout << "  wrote " << path << "\n";
    }
  }
  return 0;
}

int CmdMetricsDump(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Fail("cannot open " + path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
    auto snap = telemetry::ParseMetricsJson(text);
    if (!snap.ok()) return Fail(snap.status().ToString());
    std::cout << telemetry::FormatMetricsTable(*snap);
  } else {
    // Prometheus text is already human-readable; echo it through.
    std::cout << text;
  }
  return 0;
}

int Usage() {
  std::cerr
      << "usage:\n"
      << "  fresque_cli generate <nasa|gowalla> <count> <lines.txt>\n"
      << "  fresque_cli ingest <nasa|gowalla> <lines.txt> <snapshot.bin>"
         " [epsilon] [nodes] [interval_records > 0] [key_hex]\n"
      << "      [--shards=<n>] [--shard-by=range|hash]"
         " [--epsilon-composition=auto|split|full]\n"
      << "      [--data-dir=<dir>] [--fsync=always|interval[:<ms>]|never]"
         " [--snapshot-every=<n>]\n"
      << "      [--metrics-out=<file>] [--metrics-interval-ms=<n>]\n"
      << "      [--admission-rps=<rate per shard>]"
         " [--shed-watermarks=<low>:<high>]\n"
      << "      [--obs-addr=<[host:]port>] [--slo-e2e-ms=<n>]"
         " [--flight-capacity=<64..1048576>]\n"
      << "      writes <snapshot.bin>.shard-<i>; --data-dir keeps shard i"
         " in <dir>/shard-<i>\n"
      << "      --snapshot-every=<n> snapshots every n installs, or later"
         " while the previous snapshot is still being written\n"
      << "  fresque_cli query <nasa|gowalla> <snapshot.bin> <lo> <hi>"
         " [key_hex]\n"
      << "      [--query-threads=<n>] [--query-queue=<n>]"
         " [--query-deadline-ms=<n>] [--repeat=<n>]\n"
      << "      [--shards=<n>] [--shard-by=range|hash] (match the ingest)\n"
      << "  fresque_cli verify <nasa|gowalla> <snapshot.bin> [key_hex]"
         " [--shards=<n>] [--shard-by=range|hash]\n"
      << "  fresque_cli inspect <snapshot.bin>\n"
      << "  fresque_cli wal-dump <data-dir>/shard-<i>\n"
      << "  fresque_cli recover <nasa|gowalla> <data-dir> [snapshot.bin]"
         " [--shards=<n>] [--shard-by=range|hash]\n"
      << "  fresque_cli metrics-dump <metrics.json|metrics.prom>\n"
      << "  a flag given to a command that does not read it is an error\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args;
  std::vector<std::string> flags;  // names given, checked against the command
  // The ingest pipeline's config; the shard options also drive query,
  // verify and recover.
  fresque::shard::ShardedPipelineConfig cfg;
  fresque::engine::AdmissionConfig& admission = cfg.collector.admission;
  bool shed_watermarks_set = false;
  fresque::engine::ObsConfig obs;
  TelemetryOptions tel;
  QueryCliOptions qopts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      args.push_back(std::move(arg));
      continue;
    }
    flags.push_back(arg.substr(0, arg.find('=')));
    Status parsed;
    if (arg.rfind("--data-dir=", 0) == 0) {
      cfg.durability.data_dir = arg.substr(11);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      tel.metrics_out = arg.substr(14);
    } else if (arg.rfind("--metrics-interval-ms=", 0) == 0) {
      parsed = ParseCount(arg, true, &tel.metrics_interval_ms);
    } else if (arg.rfind("--obs-addr=", 0) == 0) {
      obs.addr = arg.substr(11);
      if (obs.addr.empty()) return Fail("--obs-addr wants [host:]port");
    } else if (arg.rfind("--slo-e2e-ms=", 0) == 0) {
      parsed = ParseCount(arg, false, &obs.slo_e2e_ms);
    } else if (arg.rfind("--flight-capacity=", 0) == 0) {
      parsed = ParseCount(arg, false, &obs.flight_capacity);
      using fresque::obs::FlightRecorder;
      if (parsed.ok() && (obs.flight_capacity < FlightRecorder::kMinCapacity ||
                          obs.flight_capacity > FlightRecorder::kMaxCapacity)) {
        return Fail("--flight-capacity wants " +
                    std::to_string(FlightRecorder::kMinCapacity) + " to " +
                    std::to_string(FlightRecorder::kMaxCapacity) + " events");
      }
    } else if (arg.rfind("--fsync=", 0) == 0) {
      auto policy = fresque::durability::ParseFsyncPolicy(
          arg.substr(8), &cfg.durability.fsync_interval_ms);
      if (!policy.ok()) return Fail(policy.status().ToString());
      cfg.durability.fsync_policy = *policy;
    } else if (arg.rfind("--snapshot-every=", 0) == 0) {
      parsed = ParseCount(arg, false, &cfg.durability.snapshot_every_installs);
    } else if (arg.rfind("--query-threads=", 0) == 0) {
      parsed = ParseCount(arg, true, &qopts.threads);
    } else if (arg.rfind("--query-queue=", 0) == 0) {
      parsed = ParseCount(arg, true, &qopts.queue);
    } else if (arg.rfind("--query-deadline-ms=", 0) == 0) {
      parsed = ParseCount(arg, false, &qopts.deadline_ms);  // 0 = unbounded
    } else if (arg.rfind("--repeat=", 0) == 0) {
      parsed = ParseCount(arg, true, &qopts.repeat);
    } else if (arg.rfind("--shards=", 0) == 0) {
      parsed = ParseCount(arg, true, &cfg.shard.num_shards);
    } else if (arg.rfind("--shard-by=", 0) == 0) {
      auto by = fresque::shard::ParseShardBy(arg.substr(11));
      if (!by.ok()) return Fail(by.status().ToString());
      cfg.shard.shard_by = *by;
    } else if (arg.rfind("--epsilon-composition=", 0) == 0) {
      auto comp = fresque::shard::ParseEpsilonComposition(arg.substr(22));
      if (!comp.ok()) return Fail(comp.status().ToString());
      cfg.shard.epsilon_composition = *comp;
    } else if (arg.rfind("--admission-rps=", 0) == 0) {
      try {
        admission.rate_records_per_sec = std::stod(arg.substr(16));
      } catch (const std::exception&) {
        return Fail("bad --admission-rps value: " + arg.substr(16));
      }
      if (admission.rate_records_per_sec <= 0) {
        return Fail("--admission-rps wants a positive rate");
      }
      admission.enabled = true;
    } else if (arg.rfind("--shed-watermarks=", 0) == 0) {
      const std::string pair = arg.substr(18);
      const size_t colon = pair.find(':');
      try {
        if (colon == std::string::npos) throw std::invalid_argument(pair);
        admission.shed_low_watermark = std::stod(pair.substr(0, colon));
        admission.shed_high_watermark = std::stod(pair.substr(colon + 1));
      } catch (const std::exception&) {
        return Fail("bad --shed-watermarks value (want <low>:<high>): " +
                    pair);
      }
      shed_watermarks_set = true;
    } else {
      return Fail("unknown flag " + arg);
    }
    if (!parsed.ok()) return Fail(parsed.message());
  }
  if (args.empty()) return Usage();
  const std::string& cmd = args[0];
  for (const std::string& flag : flags) {
    if (Status st = CheckFlagApplies(flag, cmd); !st.ok()) {
      return Fail(st.message());
    }
  }
  if (shed_watermarks_set && !admission.enabled) {
    return Fail("--shed-watermarks needs --admission-rps (the rate cap is"
                " what enables the admission gate)");
  }
  try {
    if (cmd == "generate" && args.size() == 4) {
      return CmdGenerate(args[1], std::stoul(args[2]), args[3]);
    }
    if (cmd == "ingest" && args.size() >= 4) {
      cfg.collector.epsilon = args.size() > 4 ? std::stod(args[4]) : 1.0;
      cfg.collector.num_computing_nodes =
          args.size() > 5 ? std::stoul(args[5]) : 4;
      size_t interval = args.size() > 6 ? std::stoul(args[6]) : 100000;
      if (interval == 0) return Fail("interval_records wants a positive count");
      std::string key = args.size() > 7 ? args[7] : kDefaultKeyHex;
      return CmdIngest(args[1], args[2], args[3], interval, key,
                       std::move(cfg), tel, obs);
    }
    if (cmd == "wal-dump" && args.size() == 2) {
      return CmdWalDump(args[1]);
    }
    if (cmd == "metrics-dump" && args.size() == 2) {
      return CmdMetricsDump(args[1]);
    }
    if (cmd == "recover" && (args.size() == 3 || args.size() == 4)) {
      return CmdRecover(args[1], args[2], args.size() == 4 ? args[3] : "",
                        cfg.shard);
    }
    if (cmd == "query" && args.size() >= 5) {
      std::string key = args.size() > 5 ? args[5] : kDefaultKeyHex;
      return CmdQuery(args[1], args[2], std::stod(args[3]),
                      std::stod(args[4]), key, qopts, cfg.shard);
    }
    if (cmd == "verify" && args.size() >= 3) {
      std::string key = args.size() > 3 ? args[3] : kDefaultKeyHex;
      return CmdVerify(args[1], args[2], key, cfg.shard);
    }
    if (cmd == "inspect" && args.size() == 2) {
      return CmdInspect(args[1]);
    }
  } catch (const std::exception& e) {
    return Fail(std::string("bad argument: ") + e.what());
  }
  return Usage();
}
