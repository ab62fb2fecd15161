// Sharded scale-out invariants (DESIGN.md §17): placement arithmetic,
// router extraction/fallback, cross-shard record conservation (every
// record in exactly one shard's publications), and merged fan-out query
// results against a single-shard oracle; plus the pipeline's thread
// topology, interval-progress forwarding, cross-thread publication
// counter, final per-shard snapshots and a mid-run metrics scrape.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "cloud/server.h"
#include "crypto/key_manager.h"
#include "engine/cloud_node.h"
#include "engine/fresque_collector.h"
#include "record/dataset.h"
#include "shard/partition.h"
#include "shard/pipeline.h"
#include "shard/router.h"
#include "shard/sharded_cloud.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace fresque {
namespace {

record::DatasetSpec Gowalla() {
  auto spec = record::GowallaDataset();
  EXPECT_TRUE(spec.ok());
  return std::move(spec).ValueOrDie();
}

shard::ShardPlacement MakePlacement(const record::DatasetSpec& spec,
                                    size_t shards,
                                    shard::ShardBy by = shard::ShardBy::kRange) {
  shard::ShardOptions opts;
  opts.num_shards = shards;
  opts.shard_by = by;
  auto p = shard::ShardPlacement::Create(spec, opts);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(p).ValueOrDie();
}

TEST(ShardPlacementTest, RangeSlicesAreContiguousBalancedAndExhaustive) {
  auto spec = Gowalla();  // 626 bins
  for (size_t shards : {1u, 2u, 4u, 5u, 64u}) {
    auto p = MakePlacement(spec, shards);
    // Walk every bin center: shard ids must be non-decreasing, cover
    // [0, shards), and slice sizes must differ by at most one bin.
    std::vector<size_t> bins_per_shard(shards, 0);
    size_t prev = 0;
    for (size_t bin = 0; bin < spec.num_bins(); ++bin) {
      const double v = spec.domain_min + (static_cast<double>(bin) + 0.5) *
                                             spec.bin_width;
      const size_t s = p.ShardOf(v);
      ASSERT_LT(s, shards);
      ASSERT_GE(s, prev) << "slices must be contiguous";
      prev = s;
      ++bins_per_shard[s];
    }
    const auto [lo, hi] =
        std::minmax_element(bins_per_shard.begin(), bins_per_shard.end());
    EXPECT_GE(*lo, spec.num_bins() / shards);
    EXPECT_LE(*hi - *lo, 1u);
    // Out-of-domain values clamp like DomainBinning::LeafOffset.
    EXPECT_EQ(p.ShardOf(spec.domain_min - 1e9), 0u);
    EXPECT_EQ(p.ShardOf(spec.domain_max + 1e9), shards - 1);
  }
}

TEST(ShardPlacementTest, ShardSpecSlicesTileTheDomain) {
  auto spec = Gowalla();
  auto p = MakePlacement(spec, 4);
  double expect_lo = spec.domain_min;
  size_t total_bins = 0;
  for (size_t i = 0; i < 4; ++i) {
    const auto& sub = p.ShardSpec(i);
    EXPECT_DOUBLE_EQ(sub.domain_min, expect_lo);
    EXPECT_GT(sub.domain_max, sub.domain_min);
    EXPECT_DOUBLE_EQ(sub.bin_width, spec.bin_width);
    total_bins += sub.num_bins();
    expect_lo = sub.domain_max;
  }
  EXPECT_DOUBLE_EQ(expect_lo, spec.domain_max);
  EXPECT_EQ(total_bins, spec.num_bins());
}

TEST(ShardPlacementTest, HashModeScattersAndCoversAllShards) {
  auto spec = Gowalla();
  auto p = MakePlacement(spec, 4, shard::ShardBy::kHash);
  std::vector<size_t> hits(4, 0);
  for (size_t bin = 0; bin < spec.num_bins(); ++bin) {
    const double v =
        spec.domain_min + (static_cast<double>(bin) + 0.5) * spec.bin_width;
    ++hits[p.ShardOf(v)];
  }
  for (size_t s = 0; s < 4; ++s) EXPECT_GT(hits[s], 0u) << "shard " << s;
  // Hash shards index the full domain.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(p.ShardSpec(i).domain_min, spec.domain_min);
    EXPECT_DOUBLE_EQ(p.ShardSpec(i).domain_max, spec.domain_max);
  }
}

TEST(ShardPlacementTest, EpsilonCompositionResolvesPerMode) {
  auto spec = Gowalla();
  // kAuto: range -> parallel composition (full epsilon per shard).
  auto range = MakePlacement(spec, 4, shard::ShardBy::kRange);
  EXPECT_EQ(range.effective_composition(), shard::EpsilonComposition::kFull);
  EXPECT_DOUBLE_EQ(range.ShardEpsilon(1.0), 1.0);
  // kAuto: hash -> sequential composition (epsilon / N).
  auto hash = MakePlacement(spec, 4, shard::ShardBy::kHash);
  EXPECT_EQ(hash.effective_composition(), shard::EpsilonComposition::kSplit);
  EXPECT_DOUBLE_EQ(hash.ShardEpsilon(1.0), 0.25);
  // Explicit override wins over the mode default.
  shard::ShardOptions opts;
  opts.num_shards = 4;
  opts.shard_by = shard::ShardBy::kRange;
  opts.epsilon_composition = shard::EpsilonComposition::kSplit;
  auto forced = shard::ShardPlacement::Create(spec, opts);
  ASSERT_TRUE(forced.ok());
  EXPECT_DOUBLE_EQ(forced->ShardEpsilon(1.0), 0.25);
}

TEST(ShardPlacementTest, QueryPruningMatchesSliceIntersection) {
  auto spec = Gowalla();
  auto p = MakePlacement(spec, 4);
  // Full domain -> every shard, in order.
  auto all = p.ShardsForQuery({spec.domain_min, spec.domain_max});
  ASSERT_EQ(all.size(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(all[i], i);
  // A query inside one slice -> that shard only.
  const auto& s2 = p.ShardSpec(2);
  auto one = p.ShardsForQuery({s2.domain_min + 1, s2.domain_max - 1});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 2u);
  // Straddling a slice boundary -> both neighbors.
  auto two = p.ShardsForQuery({s2.domain_min - 1, s2.domain_min + 1});
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], 1u);
  EXPECT_EQ(two[1], 2u);
  // Inverted and out-of-domain queries prune everything.
  EXPECT_TRUE(p.ShardsForQuery({spec.domain_min + 10, spec.domain_min}).empty());
  // Hash mode cannot prune.
  auto hash = MakePlacement(spec, 4, shard::ShardBy::kHash);
  EXPECT_EQ(hash.ShardsForQuery({s2.domain_min + 1, s2.domain_max - 1}).size(),
            4u);
}

TEST(ShardPlacementTest, RejectsInvalidShardCounts) {
  auto spec = Gowalla();
  shard::ShardOptions opts;
  opts.num_shards = 0;
  EXPECT_FALSE(shard::ShardPlacement::Create(spec, opts).ok());
  opts.num_shards = shard::ShardPlacement::kMaxShards + 1;
  EXPECT_FALSE(shard::ShardPlacement::Create(spec, opts).ok());
  // More range shards than bins cannot tile the domain.
  opts.num_shards = 64;
  auto narrow = spec;
  narrow.domain_max = narrow.domain_min + 10 * narrow.bin_width;
  EXPECT_FALSE(shard::ShardPlacement::Create(narrow, opts).ok());
  // ...but hash mode has no slice constraint beyond kMaxShards.
  opts.shard_by = shard::ShardBy::kHash;
  EXPECT_TRUE(shard::ShardPlacement::Create(narrow, opts).ok());
}

TEST(ShardPlacementTest, ParseAndToStringRoundTrip) {
  EXPECT_EQ(*shard::ParseShardBy("range"), shard::ShardBy::kRange);
  EXPECT_EQ(*shard::ParseShardBy("hash"), shard::ShardBy::kHash);
  EXPECT_FALSE(shard::ParseShardBy("modulo").ok());
  EXPECT_STREQ(shard::ToString(shard::ShardBy::kRange), "range");
  EXPECT_STREQ(shard::ToString(shard::ShardBy::kHash), "hash");
  EXPECT_EQ(*shard::ParseEpsilonComposition("auto"),
            shard::EpsilonComposition::kAuto);
  EXPECT_EQ(*shard::ParseEpsilonComposition("split"),
            shard::EpsilonComposition::kSplit);
  EXPECT_EQ(*shard::ParseEpsilonComposition("full"),
            shard::EpsilonComposition::kFull);
  EXPECT_FALSE(shard::ParseEpsilonComposition("parallel").ok());
}

TEST(ShardRouterTest, RoutesByIndexedValueAndCountsPerShard) {
  auto spec = Gowalla();
  shard::ShardOptions opts;
  opts.num_shards = 4;
  auto placement = shard::ShardPlacement::Create(spec, opts);
  ASSERT_TRUE(placement.ok());
  shard::ShardRouter router(*placement, spec.parser);

  auto gen = record::MakeGenerator(spec, 11);
  ASSERT_TRUE(gen.ok());
  std::vector<uint64_t> expect(4, 0);
  constexpr size_t kLines = 2000;
  for (size_t i = 0; i < kLines; ++i) {
    const std::string line = (*gen)->NextLine();
    auto v = spec.parser->IndexedValue(line);
    ASSERT_TRUE(v.ok());
    const size_t want = placement->ShardOf(*v);
    auto d = router.Route(line);
    EXPECT_EQ(d.shard, want);
    EXPECT_TRUE(d.extracted);
    ++expect[want];
  }
  auto m = router.Metrics();
  EXPECT_EQ(m.routed, kLines);
  EXPECT_EQ(m.extract_fallbacks, 0u);
  ASSERT_EQ(m.per_shard.size(), 4u);
  for (size_t s = 0; s < 4; ++s) EXPECT_EQ(m.per_shard[s], expect[s]);
}

TEST(ShardRouterTest, UnparsableLineFallsBackDeterministically) {
  auto spec = Gowalla();
  shard::ShardOptions opts;
  opts.num_shards = 4;
  auto placement = shard::ShardPlacement::Create(spec, opts);
  ASSERT_TRUE(placement.ok());
  shard::ShardRouter router(*placement, spec.parser);

  const std::string garbage = "not,a;valid line at all";
  auto d1 = router.Route(garbage);
  auto d2 = router.Route(garbage);
  EXPECT_FALSE(d1.extracted);
  EXPECT_EQ(d1.shard, d2.shard);  // same line -> same shard, always
  EXPECT_LT(d1.shard, 4u);
  EXPECT_EQ(router.Metrics().extract_fallbacks, 2u);
}

// ---------------------------------------------------------------------------
// Pipeline-level invariants.

struct OracleRun {
  std::unique_ptr<cloud::CloudServer> server;
  std::unique_ptr<engine::CloudNode> node;
};

/// Ingests `lines` through the unsharded collector (the oracle).
OracleRun RunOracle(const record::DatasetSpec& spec,
                    const std::vector<std::string>& lines, size_t publish_at,
                    crypto::KeyManager keys) {
  OracleRun out;
  auto binning = index::DomainBinning::Create(spec.domain_min, spec.domain_max,
                                              spec.bin_width);
  out.server =
      std::make_unique<cloud::CloudServer>(std::move(binning).ValueOrDie());
  out.node = std::make_unique<engine::CloudNode>(out.server.get());
  out.node->Start();
  engine::CollectorConfig cfg;
  cfg.dataset = spec;
  cfg.num_computing_nodes = 2;
  cfg.seed = 77;
  engine::FresqueCollector collector(cfg, std::move(keys), out.node->inbox());
  EXPECT_TRUE(collector.Start().ok());
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_TRUE(collector.Ingest(lines[i]).ok());
    if (i + 1 == publish_at) {
      EXPECT_TRUE(collector.Publish().ok());
    }
  }
  EXPECT_TRUE(collector.Shutdown().ok());
  out.node->Shutdown();
  EXPECT_TRUE(out.node->first_error().ok());
  return out;
}

TEST(ShardedPipelineTest, ConservationEveryRecordInExactlyOneShard) {
  auto spec = Gowalla();
  constexpr size_t kLines = 4000;
  std::vector<std::string> lines;
  auto gen = record::MakeGenerator(spec, 303);
  ASSERT_TRUE(gen.ok());
  for (size_t i = 0; i < kLines; ++i) lines.push_back((*gen)->NextLine());

  shard::ShardedPipelineConfig cfg;
  cfg.collector.dataset = spec;
  cfg.collector.num_computing_nodes = 2;
  cfg.collector.seed = 99;
  cfg.shard.num_shards = 4;
  crypto::KeyManager keys(Bytes(32, 0x42));
  shard::ShardedPipeline pipe(cfg, keys);
  ASSERT_TRUE(pipe.Start().ok());

  // Expected per-shard routing histogram from the placement itself.
  std::vector<uint64_t> expect(4, 0);
  for (const auto& line : lines) {
    auto v = spec.parser->IndexedValue(line);
    ASSERT_TRUE(v.ok());
    ++expect[pipe.placement().ShardOf(*v)];
  }

  for (size_t i = 0; i < kLines; ++i) {
    ASSERT_TRUE(pipe.Ingest(lines[i]).ok());
    if (i + 1 == kLines / 2) {
      ASSERT_TRUE(pipe.Publish().ok());
    }
  }
  ASSERT_TRUE(pipe.Shutdown().ok()) << pipe.first_error().ToString();

  // Router conservation: every line routed, to the shard the placement
  // names, none duplicated, none dropped.
  auto m = pipe.Metrics();
  EXPECT_EQ(m.router.routed, kLines);
  EXPECT_EQ(m.router.extract_fallbacks, 0u);
  uint64_t routed_sum = 0;
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(m.router.per_shard[s], expect[s]) << "shard " << s;
    routed_sum += m.router.per_shard[s];
  }
  EXPECT_EQ(routed_sum, kLines);

  // Publication alignment: both interval barriers reached every shard.
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(pipe.cloud()->shard(s)->num_publications(), 2u) << "shard " << s;
  }
  EXPECT_TRUE(pipe.WaitForPublication(1).ok());

  // Fan-out accounting: the per-shard counts of a full-domain query sum
  // exactly to the merged result (the conservation ledger).
  shard::FanoutStats stats;
  auto merged =
      pipe.cloud()->ExecuteQuery({spec.domain_min, spec.domain_max}, &stats);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(stats.probed.size(), 4u);
  EXPECT_EQ(stats.shards_pruned, 0u);
  EXPECT_EQ(stats.TotalRecords(), merged->TotalRecords());

  // Every decrypted record came through exactly one shard: the client
  // sees no duplicates (ciphertexts are unique by construction, so equal
  // plaintext counts prove no record was routed twice).
  client::Client client(keys, &spec.parser->schema());
  auto recs = client.Decrypt(*merged, {spec.domain_min, spec.domain_max});
  ASSERT_TRUE(recs.ok());
  EXPECT_LE(recs->size(), kLines);            // no duplication
  EXPECT_GE(recs->size(), kLines * 7 / 10);   // no mass loss beyond DP removal
}

TEST(ShardedPipelineTest, MergedFanoutMatchesSingleShardOracle) {
  auto spec = Gowalla();
  constexpr size_t kLines = 3000;
  std::vector<std::string> lines;
  auto gen = record::MakeGenerator(spec, 404);
  ASSERT_TRUE(gen.ok());
  for (size_t i = 0; i < kLines; ++i) lines.push_back((*gen)->NextLine());

  crypto::KeyManager keys(Bytes(32, 0x42));
  auto oracle = RunOracle(spec, lines, kLines / 2, keys);

  shard::ShardedPipelineConfig cfg;
  cfg.collector.dataset = spec;
  cfg.collector.num_computing_nodes = 2;
  cfg.collector.seed = 77;
  cfg.shard.num_shards = 4;
  shard::ShardedPipeline pipe(cfg, keys);
  ASSERT_TRUE(pipe.Start().ok());
  for (size_t i = 0; i < kLines; ++i) {
    ASSERT_TRUE(pipe.Ingest(lines[i]).ok());
    if (i + 1 == kLines / 2) {
      ASSERT_TRUE(pipe.Publish().ok());
    }
  }
  ASSERT_TRUE(pipe.Shutdown().ok()) << pipe.first_error().ToString();

  // Ground truth per query from the raw lines.
  client::Client client(keys, &spec.parser->schema());
  const double span = spec.domain_max - spec.domain_min;
  for (double lo_frac : {0.0, 0.2, 0.55}) {
    for (double sel : {0.15, 0.6}) {
      index::RangeQuery q{spec.domain_min + lo_frac * span,
                          spec.domain_min + (lo_frac + sel) * span};
      if (q.hi > spec.domain_max) q.hi = spec.domain_max;
      size_t truth = 0;
      for (const auto& line : lines) {
        auto v = spec.parser->IndexedValue(line);
        if (v.ok() && *v >= q.lo && *v <= q.hi) ++truth;
      }

      auto oracle_res = client.Query(*oracle.server, q);
      ASSERT_TRUE(oracle_res.ok());
      shard::FanoutStats stats;
      auto merged_raw = pipe.cloud()->ExecuteQuery(q, &stats);
      ASSERT_TRUE(merged_raw.ok());
      EXPECT_EQ(stats.TotalRecords(), merged_raw->TotalRecords());
      auto merged = client.Decrypt(*merged_raw, q);
      ASSERT_TRUE(merged.ok());

      // Both paths post-filter on the exact predicate, so both are
      // subsets of the truth; equivalence to the oracle means the same
      // high recall, not identical DP noise draws.
      EXPECT_LE(merged->size(), truth);
      EXPECT_LE(oracle_res->size(), truth);
      if (truth > 100) {
        EXPECT_GE(merged->size(), truth * 8 / 10)
            << "q=[" << q.lo << "," << q.hi << "]";
        EXPECT_GE(merged->size() * 10, oracle_res->size() * 9)
            << "sharded recall far below the oracle";
      }
    }
  }

  // Pruning: a query inside shard 2's slice probes one shard only and
  // still reaches the oracle's quality bar.
  const auto& s2 = pipe.placement().ShardSpec(2);
  index::RangeQuery narrow{s2.domain_min + spec.bin_width,
                           s2.domain_max - spec.bin_width};
  shard::FanoutStats stats;
  auto res = pipe.cloud()->ExecuteQuery(narrow, &stats);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(stats.probed.size(), 1u);
  EXPECT_EQ(stats.shards_pruned, 3u);
  EXPECT_EQ(stats.probed[0].shard, 2u);
}

TEST(ShardedPipelineTest, HashModeFansOutEverywhereAndStaysConsistent) {
  auto spec = Gowalla();
  constexpr size_t kLines = 1500;
  std::vector<std::string> lines;
  auto gen = record::MakeGenerator(spec, 505);
  ASSERT_TRUE(gen.ok());
  for (size_t i = 0; i < kLines; ++i) lines.push_back((*gen)->NextLine());

  shard::ShardedPipelineConfig cfg;
  cfg.collector.dataset = spec;
  cfg.collector.num_computing_nodes = 2;
  cfg.collector.seed = 5;
  cfg.shard.num_shards = 3;
  cfg.shard.shard_by = shard::ShardBy::kHash;
  crypto::KeyManager keys(Bytes(32, 0x42));
  shard::ShardedPipeline pipe(cfg, keys);
  ASSERT_TRUE(pipe.Start().ok());
  for (const auto& line : lines) ASSERT_TRUE(pipe.Ingest(line).ok());
  ASSERT_TRUE(pipe.Shutdown().ok()) << pipe.first_error().ToString();

  shard::FanoutStats stats;
  const double mid = spec.domain_min + (spec.domain_max - spec.domain_min) / 2;
  auto res = pipe.cloud()->ExecuteQuery({spec.domain_min, mid}, &stats);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(stats.probed.size(), 3u);  // hash mode cannot prune
  EXPECT_EQ(stats.shards_pruned, 0u);
  EXPECT_EQ(stats.TotalRecords(), res->TotalRecords());

  // An expired deadline fails the whole fan-out: no partial merge comes
  // back, and the caller's stats keep the previous query's ledger.
  query::QueryContext expired;
  expired.deadline_ns = 1;  // epoch + 1 ns: long past
  auto late = pipe.cloud()->ExecuteQuery({spec.domain_min, mid}, &stats,
                                         expired);
  ASSERT_FALSE(late.ok());
  EXPECT_TRUE(late.status().IsDeadlineExceeded()) << late.status().ToString();
  EXPECT_EQ(stats.probed.size(), 3u);
  EXPECT_EQ(stats.TotalRecords(), res->TotalRecords());

  client::Client client(keys, &spec.parser->schema());
  auto recs = client.Decrypt(*res, {spec.domain_min, mid});
  ASSERT_TRUE(recs.ok());
  size_t truth = 0;
  for (const auto& line : lines) {
    auto v = spec.parser->IndexedValue(line);
    if (v.ok() && *v >= spec.domain_min && *v <= mid) ++truth;
  }
  // Hash mode resolves kAuto to split composition (epsilon / 3 per
  // shard), so DP removal cuts ~3x deeper than the range-mode tests —
  // exactly the accuracy cost results/shard_dp_ablation.csv quantifies.
  // The bound here only guards against wholesale loss, not DP noise.
  EXPECT_LE(recs->size(), truth);
  EXPECT_GE(recs->size(), truth * 2 / 5);
}

TEST(ShardedPipelineTest, UnparsableLinesBecomeShardParseErrorsNotDrops) {
  auto spec = Gowalla();
  shard::ShardedPipelineConfig cfg;
  cfg.collector.dataset = spec;
  cfg.collector.num_computing_nodes = 2;
  cfg.shard.num_shards = 2;
  crypto::KeyManager keys(Bytes(32, 0x42));
  shard::ShardedPipeline pipe(cfg, keys);
  ASSERT_TRUE(pipe.Start().ok());
  auto gen = record::MakeGenerator(spec, 21);
  ASSERT_TRUE(gen.ok());
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(pipe.Ingest((*gen)->NextLine()).ok());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(pipe.Ingest("garbage line").ok());
  ASSERT_TRUE(pipe.Shutdown().ok()) << pipe.first_error().ToString();

  auto m = pipe.Metrics();
  EXPECT_EQ(m.router.routed, 205u);
  EXPECT_EQ(m.router.extract_fallbacks, 5u);
  uint64_t parse_errors = 0;
  for (const auto& s : m.shards) {
    parse_errors += s.collector.parse_errors;
  }
  EXPECT_EQ(parse_errors, 5u);
}

size_t ThreadCount() {
  namespace fs = std::filesystem;
  return static_cast<size_t>(std::distance(
      fs::directory_iterator("/proc/self/task"), fs::directory_iterator()));
}

TEST(ShardedPipelineTest, EachShardRunsOnlyItsNodeThreads) {
  // The caller is every shard's dispatcher, so a shard adds only its node
  // threads: k computing nodes, checking, merger and the cloud node.
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "/proc/self/task is not available";
  }
  constexpr size_t kShards = 2;
  constexpr size_t kNodes = 1;
  constexpr size_t kExpected = kShards * (kNodes + 3);
  shard::ShardedPipelineConfig cfg;
  cfg.collector.dataset = Gowalla();
  cfg.collector.num_computing_nodes = kNodes;
  cfg.shard.num_shards = kShards;
  shard::ShardedPipeline pipe(cfg, crypto::KeyManager(Bytes(32, 0x42)));
  // ThreadSanitizer spawns a helper thread at the process's first thread
  // creation; make that happen before the baseline count.
  std::thread([] {}).join();
  const size_t before = ThreadCount();
  ASSERT_TRUE(pipe.Start().ok());
  // A joined starter thread can linger in /proc for a moment; wait for the
  // count to settle.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  size_t added = ThreadCount() - before;
  while (added != kExpected && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    added = ThreadCount() - before;
  }
  EXPECT_EQ(added, kExpected);
  ASSERT_TRUE(pipe.Shutdown().ok()) << pipe.first_error().ToString();
}

TEST(ShardedPipelineTest, CurrentPublicationIsReadableFromAnyThread) {
  // /statusz polls current_publication() on the obs thread while the
  // caller publishes; under TSan a plain counter would race here.
  auto spec = Gowalla();
  shard::ShardedPipelineConfig cfg;
  cfg.collector.dataset = spec;
  cfg.collector.num_computing_nodes = 1;
  cfg.shard.num_shards = 2;
  shard::ShardedPipeline pipe(cfg, crypto::KeyManager(Bytes(32, 0x42)));
  ASSERT_TRUE(pipe.Start().ok());

  constexpr uint64_t kPublications = 20;
  std::atomic<bool> done{false};
  uint64_t last_seen = 0;
  bool monotonic = true;
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t pn = pipe.current_publication();
      if (pn < last_seen) monotonic = false;
      last_seen = pn;
    }
  });
  auto gen = record::MakeGenerator(spec, 31);
  ASSERT_TRUE(gen.ok());
  for (uint64_t p = 0; p < kPublications; ++p) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(pipe.Ingest((*gen)->NextLine()).ok());
    }
    ASSERT_TRUE(pipe.Publish().ok());
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_TRUE(monotonic);
  EXPECT_LE(last_seen, kPublications);
  EXPECT_EQ(pipe.current_publication(), kPublications);
  ASSERT_TRUE(pipe.Shutdown().ok()) << pipe.first_error().ToString();

  // The last Publish() opened an interval that stays empty, so Shutdown()
  // publishes nothing more: each cloud holds it open, and a shard's
  // publications row counts only the installed ones.
  const auto m = pipe.Metrics();
  ASSERT_EQ(m.shards.size(), 2u);
  for (const auto& s : m.shards) {
    const cloud::CloudServer& server = *pipe.cloud()->shard(s.shard);
    EXPECT_EQ(server.num_publications(), kPublications + 1) << s.shard;
    EXPECT_EQ(s.publications, server.CurrentView()->num_publications())
        << s.shard;
    EXPECT_EQ(s.publications, kPublications) << s.shard;
  }
}

TEST(ShardedPipelineTest, IntervalProgressReleasesDummiesBeforeTheBarrier) {
  // Each routed line carries the caller's interval progress to its
  // shard's dispatcher, so scheduled dummies are spread over the interval.
  // Without forwarding, every dummy waits for the publish barrier.
  auto spec = Gowalla();
  shard::ShardedPipelineConfig cfg;
  cfg.collector.dataset = spec;
  cfg.collector.num_computing_nodes = 1;
  cfg.collector.seed = 12;
  cfg.shard.num_shards = 2;
  shard::ShardedPipeline pipe(cfg, crypto::KeyManager(Bytes(32, 0x42)));
  ASSERT_TRUE(pipe.Start().ok());

  telemetry::Counter* dummies =
      telemetry::Registry::Global()->GetCounter("ingest.dummy_records");
  const uint64_t before = dummies->Value();
  constexpr size_t kInterval = 4000;
  auto gen = record::MakeGenerator(spec, 32);
  ASSERT_TRUE(gen.ok());
  for (size_t i = 0; i < kInterval / 2; ++i) {
    pipe.SetIntervalProgress(static_cast<double>(i) / kInterval);
    ASSERT_TRUE(pipe.Ingest((*gen)->NextLine()).ok());
  }
  // Ingest() releases due dummies on the caller's thread.
  EXPECT_GT(dummies->Value(), before)
      << "no dummy released before Publish(): progress was not forwarded";
  ASSERT_TRUE(pipe.Publish().ok());
  ASSERT_TRUE(pipe.Shutdown().ok()) << pipe.first_error().ToString();
}

// A publish barrier releases up to a whole randomer (S records) to the
// shard's cloud node at once; its inbox holds that flush plus one
// ordinary mailbox, and the checking node's randomer uses the same S.
TEST(ShardedPipelineTest, CloudInboxHoldsOneRandomerFlush) {
  for (size_t shards : {1, 4}) {
    shard::ShardedPipelineConfig cfg;
    cfg.collector.dataset = Gowalla();
    cfg.collector.num_computing_nodes = 1;
    cfg.shard.num_shards = shards;
    shard::ShardedPipeline pipe(cfg, crypto::KeyManager(Bytes(32, 0x42)));
    ASSERT_TRUE(pipe.Start().ok());
    const auto m = pipe.Metrics();
    ASSERT_EQ(m.shards.size(), shards);
    for (size_t i = 0; i < shards; ++i) {
      engine::CollectorConfig sub = cfg.collector;
      sub.dataset = pipe.placement().ShardSpec(i);
      sub.epsilon = pipe.placement().ShardEpsilon(cfg.collector.epsilon);
      auto flush = engine::RandomerBufferSize(sub);
      ASSERT_TRUE(flush.ok()) << flush.status().ToString();
      EXPECT_GT(*flush, 16u) << "the randomer's degenerate floor";
      EXPECT_EQ(m.shards[i].randomer_buffer, *flush)
          << "shard " << i << " of " << shards;
      EXPECT_EQ(m.shards[i].cloud_inbox_capacity,
                *flush + cfg.collector.mailbox_capacity)
          << "shard " << i << " of " << shards;
    }
    ASSERT_TRUE(pipe.Shutdown().ok()) << pipe.first_error().ToString();
  }
}

TEST(ShardedPipelineTest, FinalSnapshotsConvergeEveryShardDataDir) {
  auto spec = Gowalla();
  const std::string dir =
      std::string(::testing::TempDir()) + "/shard_final_snapshots";
  std::filesystem::remove_all(dir);
  shard::ShardedPipelineConfig cfg;
  cfg.collector.dataset = spec;
  cfg.collector.num_computing_nodes = 1;
  cfg.shard.num_shards = 2;
  cfg.durability.data_dir = dir;
  cfg.durability.fsync_policy = durability::FsyncPolicy::kNever;
  cfg.durability.snapshot_every_installs = 0;
  shard::ShardedPipeline pipe(cfg, crypto::KeyManager(Bytes(32, 0x42)));
  ASSERT_TRUE(pipe.Start().ok());
  EXPECT_FALSE(pipe.WriteFinalSnapshots().ok()) << "needs Shutdown() first";
  auto gen = record::MakeGenerator(spec, 33);
  ASSERT_TRUE(gen.ok());
  for (int i = 0; i < 400; ++i) ASSERT_TRUE(pipe.Ingest((*gen)->NextLine()).ok());
  ASSERT_TRUE(pipe.Shutdown().ok()) << pipe.first_error().ToString();

  auto before = pipe.Metrics();
  ASSERT_EQ(before.shards.size(), 2u);
  for (const auto& s : before.shards) {
    EXPECT_GT(s.durability.wal_frames, 0u) << "shard " << s.shard;
    EXPECT_EQ(s.durability.snapshots_written, 0u) << "shard " << s.shard;
  }
  ASSERT_TRUE(pipe.WriteFinalSnapshots().ok());
  auto after = pipe.Metrics();
  for (const auto& s : after.shards) {
    EXPECT_EQ(s.durability.snapshots_written, 1u) << "shard " << s.shard;
  }
  EXPECT_EQ(after.DurabilityTotals().snapshots_written, 2u);
  EXPECT_EQ(after.DurabilityTotals().wal_frames,
            after.shards[0].durability.wal_frames +
                after.shards[1].durability.wal_frames);
}

// A scrape taken while the pipeline runs, with no Shutdown(), is
// complete and current: the pipeline's rows carry the routed counts and
// the zero drop counts next to the registry's metrics, and each name
// appears once.
TEST(ShardedPipelineTest, MidRunScrapeIsCompleteAndCountsEachEventOnce) {
  auto spec = Gowalla();
  shard::ShardedPipelineConfig cfg;
  cfg.collector.dataset = spec;
  cfg.collector.num_computing_nodes = 1;
  cfg.shard.num_shards = 2;
  shard::ShardedPipeline pipe(cfg, crypto::KeyManager(Bytes(32, 0x42)));
  ASSERT_TRUE(pipe.Start().ok());
  auto gen = record::MakeGenerator(spec, 44);
  ASSERT_TRUE(gen.ok());
  constexpr uint64_t kLines = 500;
  for (uint64_t i = 0; i < kLines; ++i) {
    ASSERT_TRUE(pipe.Ingest((*gen)->NextLine()).ok());
  }

  telemetry::MetricsSnapshot snap = telemetry::Registry::Global()->Snapshot();
  pipe.Metrics().AppendTo(&snap);
  std::map<std::string, int> seen;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  for (const auto& [name, v] : snap.counters) {
    ++seen[name];
    counters[name] = v;
  }
  for (const auto& [name, v] : snap.gauges) {
    ++seen[name];
    gauges[name] = v;
  }
  for (const auto& h : snap.histograms) ++seen[h.name];
  for (const auto& [name, n] : seen) EXPECT_EQ(n, 1) << name;

  EXPECT_EQ(counters["shard.router.records"], kLines);
  ASSERT_EQ(counters.count("shard.0.records_in"), 1u);
  ASSERT_EQ(counters.count("shard.1.records_in"), 1u);
  EXPECT_EQ(counters["shard.0.records_in"] + counters["shard.1.records_in"],
            kLines);
  ASSERT_EQ(counters.count("collector.parse_errors"), 1u);
  EXPECT_EQ(counters["collector.parse_errors"], 0u);
  // Cloud counters are exported from the start, zeros included.
  for (const char* name :
       {"cloud.records_rejected", "cloud.publications_failed"}) {
    ASSERT_EQ(counters.count(name), 1u) << name;
    EXPECT_EQ(counters[name], 0u) << name;
  }
  EXPECT_GT(gauges["node.cn0.queue_capacity"], 0);
  ASSERT_TRUE(pipe.Shutdown().ok()) << pipe.first_error().ToString();
}

}  // namespace
}  // namespace fresque
