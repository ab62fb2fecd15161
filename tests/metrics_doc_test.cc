// Metric-name hygiene golden test (DESIGN.md §16): drives a miniature
// pipeline plus the query engine and the obs sampler so the telemetry
// registry is populated the way a live process populates it, then asserts
//   1. every registered metric name matches ^[a-z0-9_.]+$ (the exporter
//      sanitizer is then a pure '.'->'_' rewrite, collision-free), and
//   2. every `query.*`, `pipeline.*`, `slo.*` and `shard.*` metric, every
//      per-node time counter (`node.<name>.busy_ns`/`idle_ns`/
//      `blocked_ns`) and `ingest.blocked_ns` is documented in
//      docs/METRICS.md — adding such a metric without documenting it
//      fails this test.

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "client/client.h"
#include "cloud/server.h"
#include "crypto/key_manager.h"
#include "engine/cloud_node.h"
#include "engine/fresque_collector.h"
#include "engine/metrics.h"
#include "obs/sampler.h"
#include "query/executor.h"
#include "record/dataset.h"
#include "shard/pipeline.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

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
/// `shard.i.records_in`, and the per-node time counters embed the node
/// name (`node.cn0.busy_ns`), documented once as `node.<name>.busy_ns`.
/// Everything else passes through unchanged.
std::string CanonicalName(const std::string& name) {
  if (const std::string suffix = NodeTimeSuffix(name); !suffix.empty()) {
    return "node.<name>" + suffix;
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
    auto binning = index::DomainBinning::Create(
        spec->domain_min, spec->domain_max, spec->bin_width);
    cloud::CloudServer server(std::move(binning).ValueOrDie());
    engine::CloudNode cloud_node(&server);
    cloud_node.Start();

    crypto::KeyManager keys(Bytes(32, 0x21));
    engine::CollectorConfig cfg;
    cfg.dataset = *spec;
    cfg.num_computing_nodes = 2;
    cfg.seed = 7;
    engine::FresqueCollector collector(cfg, keys, cloud_node.inbox());
    cloud_node.RouteAcksTo(collector.publication_acks());
    ASSERT_TRUE(collector.Start().ok());
    auto gen = record::MakeGenerator(*spec, 99);
    for (uint64_t i = 0; i < 2000; ++i) {
      ASSERT_TRUE(collector.Ingest((*gen)->NextLine()).ok());
    }
    ASSERT_TRUE(collector.Publish().ok());
    ASSERT_TRUE(collector.Shutdown().ok());
    cloud_node.Shutdown();
    ASSERT_TRUE(cloud_node.first_error().ok());
    engine::ExportToRegistry(collector.Metrics());

    // Query engine: registers the query.* family.
    query::QueryExecutor executor(
        [&server](const index::RangeQuery& q,
                  const query::QueryContext& ctx) {
          return server.ExecuteQuery(q, ctx);
        },
        query::ExecutorOptions{});
    auto result = executor.Execute(
        index::RangeQuery{spec->domain_min, spec->domain_max});
    ASSERT_TRUE(result.ok());
    executor.Shutdown();

    // Sharded mini-pipeline: registers the shard.* family the way a
    // --shards deployment does (router counters + ExportTelemetry
    // gauges, DESIGN.md §17).
    {
      shard::ShardedPipelineConfig scfg;
      scfg.collector.dataset = *spec;
      scfg.collector.num_computing_nodes = 2;
      scfg.collector.seed = 8;
      scfg.shard.num_shards = 2;
      shard::ShardedPipeline pipe(scfg, keys);
      ASSERT_TRUE(pipe.Start().ok());
      for (uint64_t i = 0; i < 200; ++i) {
        ASSERT_TRUE(pipe.Ingest((*gen)->NextLine()).ok());
      }
      ASSERT_TRUE(pipe.Shutdown().ok());
      pipe.ExportTelemetry();
    }

    // Sampler fold: registers pipeline.e2e_p* / ingest.lag_ms / slo.*.
    obs::ObsSampler sampler(3600 * 1000);
    sampler.FoldOnce();
    obs::SetE2eSamplingActive(false);
  }

  static void TearDownTestSuite() {
    obs::ResetE2eStateForTest();
    telemetry::Registry::Global()->ResetForTest();
  }

  static std::vector<std::string> AllNames() {
    auto snap = telemetry::Registry::Global()->Snapshot();
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
};

TEST_F(MetricsDocTest, PipelinePopulatedTheFamiliesUnderTest) {
  bool saw_query = false, saw_pipeline = false, saw_slo = false;
  bool saw_shard = false, saw_per_shard = false, saw_node_time = false;
  for (const auto& name : AllNames()) {
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
}

TEST_F(MetricsDocTest, EveryNameMatchesTheCharterRegex) {
  for (const auto& name : AllNames()) {
    EXPECT_TRUE(NameIsClean(name))
        << "metric name '" << name << "' violates ^[a-z0-9_.]+$";
  }
}

TEST_F(MetricsDocTest, QueryPipelineSloFamiliesAreDocumented) {
  const std::string doc_path =
      std::string(FRESQUE_SOURCE_DIR) + "/docs/METRICS.md";
  std::ifstream in(doc_path);
  ASSERT_TRUE(in) << "cannot open " << doc_path;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();

  for (const auto& name : AllNames()) {
    if (!HasDocPrefix(name)) continue;
    // Documented means the exact name appears in backticks, the table-row
    // convention of docs/METRICS.md. Per-shard names look up their
    // `shard.i.` canonical row.
    std::string needle = "`";
    needle += CanonicalName(name);
    needle += '`';
    EXPECT_NE(doc.find(needle), std::string::npos)
        << "metric '" << name
        << "' is not documented in docs/METRICS.md — add a row describing"
           " it (family query./pipeline./slo./shard., the node time"
           " counters and ingest.blocked_ns are doc-mandatory)";
  }
}

}  // namespace
}  // namespace fresque
