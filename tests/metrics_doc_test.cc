// Metric-name hygiene golden test (DESIGN.md §16): drives a durable
// two-shard pipeline plus the query engine and the obs sampler, then
// takes the combined scrape every exporter serves — the telemetry
// registry's snapshot plus ShardedPipelineMetrics::AppendTo's rows — and
// asserts
//   1. every name matches ^[a-z0-9_.]+$ (the exporter sanitizer is then a
//      pure '.'->'_' rewrite, collision-free),
//   2. no name appears twice: a name bound to two kinds (or registered
//      and also appended as a row) would scrape as two series of one
//      family, and the dup-metric lint skips names built at run time,
//   3. every name AppendTo emits, every `query.*`, `pipeline.*`, `slo.*`
//      and `shard.*` metric, every per-node time counter
//      (`node.<name>.busy_ns`/`idle_ns`/`blocked_ns`) and
//      `ingest.blocked_ns` has its own row in docs/METRICS.md — adding
//      such a metric without documenting it fails this test.

#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "crypto/key_manager.h"
#include "obs/sampler.h"
#include "record/dataset.h"
#include "shard/pipeline.h"
#include "telemetry/metrics.h"

#ifndef FRESQUE_SOURCE_DIR
#error "metrics_doc_test needs FRESQUE_SOURCE_DIR (see tests/CMakeLists.txt)"
#endif

namespace fresque {
namespace {

bool NameIsClean(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

/// Suffix of a per-node time counter (`node.cn0.busy_ns`), or "" if
/// `name` is not one.
std::string NodeTimeSuffix(const std::string& name) {
  if (name.rfind("node.", 0) != 0) return "";
  for (const char* suffix : {".busy_ns", ".idle_ns", ".blocked_ns"}) {
    const std::string s = suffix;
    if (name.size() > s.size() &&
        name.compare(name.size() - s.size(), s.size(), s) == 0) {
      return s;
    }
  }
  return "";
}

bool HasDocPrefix(const std::string& name) {
  return name.rfind("query.", 0) == 0 || name.rfind("pipeline.", 0) == 0 ||
         name.rfind("slo.", 0) == 0 || name.rfind("shard.", 0) == 0 ||
         name == "ingest.blocked_ns" || !NodeTimeSuffix(name).empty();
}

/// Doc-lookup form of a metric name: the per-shard families embed the
/// shard index (`shard.3.records_in`), documented once as
/// `shard.i.records_in`, and the per-node families embed the node name
/// (`node.cn0.busy_ns`), documented once as `node.<name>.busy_ns`.
/// Everything else passes through unchanged.
std::string CanonicalName(const std::string& name) {
  constexpr const char kNode[] = "node.";
  if (name.rfind(kNode, 0) == 0) {
    const size_t dot = name.find('.', sizeof(kNode) - 1);
    if (dot != std::string::npos) return "node.<name>" + name.substr(dot);
  }
  constexpr const char kShard[] = "shard.";
  if (name.rfind(kShard, 0) != 0) return name;
  const size_t start = sizeof(kShard) - 1;
  const size_t dot = name.find('.', start);
  if (dot == std::string::npos || dot == start) return name;
  for (size_t i = start; i < dot; ++i) {
    if (!std::isdigit(static_cast<unsigned char>(name[i]))) return name;
  }
  std::string canon = "shard.i";
  canon.append(name, dot, std::string::npos);
  return canon;
}

std::vector<std::string> Names(const telemetry::MetricsSnapshot& snap) {
  std::vector<std::string> names;
  for (const auto& [name, v] : snap.counters) {
    (void)v;
    names.push_back(name);
  }
  for (const auto& [name, v] : snap.gauges) {
    (void)v;
    names.push_back(name);
  }
  for (const auto& h : snap.histograms) names.push_back(h.name);
  return names;
}

class MetricsDocTest : public ::testing::Test {
 protected:
  // One full pipeline + query + sampler pass, run once for the suite.
  static void SetUpTestSuite() {
    telemetry::Registry::Global()->ResetForTest();
    obs::ResetE2eStateForTest();
    obs::SetSloE2eTargetNs(1);  // everything violates: exercises slo.*
    obs::SetE2eSamplingActive(true);

    auto spec = record::GowallaDataset();
    ASSERT_TRUE(spec.ok());
    const std::string dir = DataDir();
    std::filesystem::remove_all(dir);
    shard::ShardedPipelineConfig cfg;
    cfg.collector.dataset = *spec;
    cfg.collector.num_computing_nodes = 2;
    cfg.collector.seed = 8;
    cfg.shard.num_shards = 2;
    // Durable, so the rows include the wal.* and snapshot.* gauges.
    cfg.durability.data_dir = dir;
    cfg.durability.fsync_policy = durability::FsyncPolicy::kNever;
    shard::ShardedPipeline pipe(cfg, crypto::KeyManager(Bytes(32, 0x21)));
    ASSERT_TRUE(pipe.Start().ok());
    auto gen = record::MakeGenerator(*spec, 99);
    ASSERT_TRUE(gen.ok());
    for (uint64_t i = 0; i < 2000; ++i) {
      ASSERT_TRUE(pipe.Ingest((*gen)->NextLine()).ok());
    }
    // Parse errors fire too, so a registry counter that double-counts a
    // row's event would show up as a duplicate name.
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(pipe.Ingest("garbage").ok());
    ASSERT_TRUE(pipe.Publish().ok());
    ASSERT_TRUE(pipe.WaitForPublication(0).ok());

    // Query engine: registers the query.* family.
    auto result = pipe.cloud()->ExecuteQuery(
        index::RangeQuery{spec->domain_min, spec->domain_max});
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(pipe.Shutdown().ok()) << pipe.first_error().ToString();

    // Sampler fold: registers pipeline.e2e_p* / ingest.lag_ms / slo.*.
    obs::ObsSampler sampler(3600 * 1000);
    sampler.FoldOnce();
    obs::SetE2eSamplingActive(false);

    // The combined scrape, as /metrics and --metrics-out serve it.
    rows_ = new telemetry::MetricsSnapshot();
    pipe.Metrics().AppendTo(rows_);
    scrape_ = new telemetry::MetricsSnapshot(
        telemetry::Registry::Global()->Snapshot());
    pipe.Metrics().AppendTo(scrape_);
  }

  static void TearDownTestSuite() {
    delete rows_;
    delete scrape_;
    rows_ = scrape_ = nullptr;
    std::filesystem::remove_all(DataDir());
    obs::ResetE2eStateForTest();
    telemetry::Registry::Global()->ResetForTest();
  }

  static std::string MetricsDoc() {
    const std::string doc_path =
        std::string(FRESQUE_SOURCE_DIR) + "/docs/METRICS.md";
    std::ifstream in(doc_path);
    EXPECT_TRUE(in) << "cannot open " << doc_path;
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  /// Documented means a docs/METRICS.md table row of its own: the
  /// canonical name in backticks in the row's first cell.
  static bool Documented(const std::string& doc, const std::string& name) {
    return doc.find("| `" + CanonicalName(name) + "` |") != std::string::npos;
  }

  /// ctest runs each case in its own process, several at once, and each
  /// process sets the suite up: one data dir per process.
  static std::string DataDir() {
    return std::string(::testing::TempDir()) + "/metrics_doc_test." +
           std::to_string(::getpid());
  }

  static telemetry::MetricsSnapshot* rows_;
  static telemetry::MetricsSnapshot* scrape_;
};

telemetry::MetricsSnapshot* MetricsDocTest::rows_ = nullptr;
telemetry::MetricsSnapshot* MetricsDocTest::scrape_ = nullptr;

TEST_F(MetricsDocTest, PipelinePopulatedTheFamiliesUnderTest) {
  ASSERT_NE(scrape_, nullptr);
  bool saw_query = false, saw_pipeline = false, saw_slo = false;
  bool saw_shard = false, saw_per_shard = false, saw_node_time = false;
  for (const auto& name : Names(*scrape_)) {
    if (!NodeTimeSuffix(name).empty()) saw_node_time = true;
    if (name.rfind("query.", 0) == 0) saw_query = true;
    if (name.rfind("pipeline.", 0) == 0) saw_pipeline = true;
    if (name.rfind("slo.", 0) == 0) saw_slo = true;
    if (name.rfind("shard.", 0) == 0) saw_shard = true;
    if (CanonicalName(name).rfind("shard.i.", 0) == 0) saw_per_shard = true;
  }
  EXPECT_TRUE(saw_query);
  EXPECT_TRUE(saw_pipeline);
  EXPECT_TRUE(saw_slo);
  EXPECT_TRUE(saw_shard);
  EXPECT_TRUE(saw_per_shard);
  EXPECT_TRUE(saw_node_time);
  std::set<std::string> rows;
  for (const auto& name : Names(*rows_)) rows.insert(name);
  for (const char* name :
       {"collector.parse_errors", "collector.overflow_drops",
        "ingest.shed_records", "node.cn0.queue_capacity", "wal.frames",
        "snapshot.written"}) {
    EXPECT_EQ(rows.count(name), 1u) << "AppendTo emitted no " << name;
  }
}

TEST_F(MetricsDocTest, EveryNameMatchesTheCharterRegex) {
  ASSERT_NE(scrape_, nullptr);
  for (const auto& name : Names(*scrape_)) {
    EXPECT_TRUE(NameIsClean(name))
        << "metric name '" << name << "' violates ^[a-z0-9_.]+$";
  }
}

TEST_F(MetricsDocTest, EveryNameIsBoundToOneKind) {
  ASSERT_NE(scrape_, nullptr);
  std::map<std::string, int> seen;
  for (const auto& name : Names(*scrape_)) ++seen[name];
  for (const auto& [name, n] : seen) {
    EXPECT_EQ(n, 1) << "metric '" << name << "' appears " << n
                    << " times in one scrape: one name, one kind, one"
                       " source (registry or pipeline row)";
  }
}

TEST_F(MetricsDocTest, QueryPipelineSloFamiliesAreDocumented) {
  ASSERT_NE(scrape_, nullptr);
  const std::string doc = MetricsDoc();
  for (const auto& name : Names(*scrape_)) {
    if (!HasDocPrefix(name)) continue;
    EXPECT_TRUE(Documented(doc, name))
        << "metric '" << name
        << "' is not documented in docs/METRICS.md — add a row describing"
           " it (family query./pipeline./slo./shard., the node time"
           " counters and ingest.blocked_ns are doc-mandatory)";
  }
}

TEST_F(MetricsDocTest, EveryPipelineRowIsDocumented) {
  ASSERT_NE(rows_, nullptr);
  const std::string doc = MetricsDoc();
  for (const auto& name : Names(*rows_)) {
    EXPECT_TRUE(Documented(doc, name))
        << "pipeline row '" << name << "' (ShardedPipelineMetrics::AppendTo)"
        << " has no docs/METRICS.md row naming `" << CanonicalName(name)
        << "`";
  }
}

}  // namespace
}  // namespace fresque
