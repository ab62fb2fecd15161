#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>

namespace fresque {
namespace fbench {

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"nasa-1shard", "nasa", 1, 4, Loop::kClosed, 800000, 100000, false, 0},
      {"nasa-4shard", "nasa", 4, 2, Loop::kClosed, 800000, 100000, false, 0},
      {"gowalla-durable", "gowalla", 4, 1, Loop::kClosed, 800000, 80000, true,
       0},
      {"gowalla-live", "gowalla", 1, 2, Loop::kOpen, 300000, 75000, false,
       150},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const auto& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

uint64_t Scaled(const Options& o, double n, uint64_t floor) {
  const auto v = static_cast<uint64_t>(std::llround(o.smoke ? n / 100 : n));
  return std::max(v, floor);
}

uint64_t IntervalRecords(const Workload& w, const Options& o) {
  // Smoke runs keep a tenth of the interval, not a hundredth: a publication
  // costs the same however few records it holds, and 80 full-size merges
  // would dominate the smoke test.
  const auto n = static_cast<double>(w.publish_every);
  return static_cast<uint64_t>(o.smoke ? n / 10 : n);
}

uint64_t RecordsToOffer(const Workload& w, const Options& o) {
  const uint64_t interval = IntervalRecords(w, o);
  const double records = static_cast<double>(Scaled(o, o.seconds * w.rate_rps));
  return interval * std::max<uint64_t>(
                        1, static_cast<uint64_t>(std::llround(
                               records / static_cast<double>(interval))));
}

uint64_t LinePool::Multiplicity(size_t idx, uint64_t offered) const {
  const uint64_t n = lines.size();
  return offered / n + (idx < offered % n ? 1 : 0);
}

LinePool MakeLinePool(const Workload& w, const Options& o) {
  LinePool pool;
  auto spec = std::string(w.dataset) == "nasa" ? record::NasaDataset()
                                               : record::GowallaDataset();
  if (!spec.ok()) {
    std::cerr << "dataset setup failed: " << spec.status().ToString() << "\n";
    std::exit(2);
  }
  pool.spec = *spec;
  auto gen = record::MakeGenerator(pool.spec, o.seed);
  if (!gen.ok()) {
    std::cerr << "generator setup failed: " << gen.status().ToString()
              << "\n";
    std::exit(2);
  }
  const uint64_t n = Scaled(o, 1000000, 1000);
  pool.lines.reserve(n);
  for (uint64_t i = 0; i < n; ++i) pool.lines.push_back((*gen)->NextLine());
  return pool;
}

std::vector<index::RangeQuery> HotSpots(const record::DatasetSpec& spec) {
  constexpr size_t kHotSpots = 64;
  constexpr double kSelectivity = 0.001;
  const double span = spec.domain_max - spec.domain_min;
  std::vector<index::RangeQuery> spots;
  for (size_t r = 0; r < kHotSpots; ++r) {
    const double frac =
        std::fmod(0.618033988749895 * static_cast<double>(r + 1), 1.0);
    const double start = spec.domain_min + frac * span * (1.0 - kSelectivity);
    spots.push_back({start, start + kSelectivity * span});
  }
  return spots;
}

std::vector<index::RangeQuery> QueryDeck(const record::DatasetSpec& spec,
                                         size_t n, uint64_t seed) {
  constexpr double kTheta = 0.99;
  const std::vector<index::RangeQuery> spots = HotSpots(spec);
  const size_t kHotSpots = spots.size();
  std::vector<double> share(kHotSpots);
  double total = 0;
  for (size_t r = 0; r < kHotSpots; ++r) {
    share[r] = 1.0 / std::pow(static_cast<double>(r + 1), kTheta);
    total += share[r];
  }
  std::vector<size_t> count(kHotSpots);
  std::vector<std::pair<double, size_t>> remainder;
  size_t assigned = 0;
  for (size_t r = 0; r < kHotSpots; ++r) {
    const double exact = static_cast<double>(n) * share[r] / total;
    count[r] = static_cast<size_t>(exact);
    assigned += count[r];
    remainder.emplace_back(exact - static_cast<double>(count[r]), r);
  }
  std::sort(remainder.rbegin(), remainder.rend());
  for (size_t i = 0; assigned < n; ++i, ++assigned) {
    ++count[remainder[i % kHotSpots].second];
  }

  std::vector<index::RangeQuery> deck;
  deck.reserve(n);
  for (size_t r = 0; r < kHotSpots; ++r) {
    deck.insert(deck.end(), count[r], spots[r]);
  }
  Xoshiro256 rng(seed);
  for (size_t i = deck.size(); i > 1; --i) {
    std::swap(deck[i - 1], deck[rng.NextBounded(i)]);
  }
  return deck;
}

shard::ShardedPipelineConfig MakePipelineConfig(const Workload& w,
                                                const record::DatasetSpec& spec,
                                                const std::string& data_dir) {
  shard::ShardedPipelineConfig cfg;
  cfg.collector.dataset = spec;
  cfg.collector.fanout = 16;
  cfg.collector.epsilon = 1.0;
  cfg.collector.delta = 0.99;
  cfg.collector.alpha = 2.0;
  cfg.collector.num_computing_nodes = w.k;
  cfg.collector.seed = 20210323;
  cfg.shard.num_shards = w.shards;
  cfg.shard.shard_by = shard::ShardBy::kRange;
  if (w.durable) {
    cfg.durability.data_dir = data_dir;
    cfg.durability.fsync_policy = durability::FsyncPolicy::kIntervalMs;
    cfg.durability.fsync_interval_ms = 50;
    cfg.durability.snapshot_every_installs = 8;
  }
  return cfg;
}

crypto::KeyManager BenchKeys() { return crypto::KeyManager(Bytes(32, 0x42)); }

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const auto i = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const size_t rank = std::clamp<size_t>(i, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

}  // namespace fbench
}  // namespace fresque
