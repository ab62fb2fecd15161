#ifndef FRESQUE_BENCH_ARRIVALS_H_
#define FRESQUE_BENCH_ARRIVALS_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.h"
#include "record/dataset.h"

// Load-shape helpers for the benches: Zipf-skewed keys for skewed-shard
// and hot-spot query workloads.

namespace fresque {
namespace bench {

/// Zipf-skewed key sampler: rank r in [0, num_keys) drawn with
/// P(r) ~ 1/(r+1)^theta — the classic Gray et al. analytic inverse (the
/// recurrence YCSB and PetPS's benchmark_zipf use): the zeta normalizer is
/// precomputed once, every draw after that is O(1). theta = 0 degenerates
/// to uniform; 0.99 is the standard "heavy" skew where the hottest few
/// ranks absorb most of the mass.
class ZipfKeySampler {
 public:
  ZipfKeySampler(size_t num_keys, double theta, uint64_t seed)
      : n_(num_keys > 0 ? num_keys : 1), theta_(theta), rng_(seed) {
    if (theta_ <= 0 || theta_ >= 1) {
      theta_ = 0;  // uniform fallback; the formula needs theta in (0,1)
      return;
    }
    for (size_t i = 1; i <= n_; ++i) {
      zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
    }
    alpha_ = 1.0 / (1.0 - theta_);
    const double zeta2 = 1.0 + std::pow(0.5, theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
  }

  size_t num_keys() const { return n_; }

  /// Next rank in [0, num_keys); rank 0 is the hottest key.
  size_t NextRank() {
    if (theta_ == 0) return rng_.NextBounded(n_);
    const double u = rng_.NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    auto r = static_cast<size_t>(static_cast<double>(n_) *
                                 std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r < n_ ? r : n_ - 1;
  }

  /// Deterministic rank -> domain-value scatter (golden-ratio walk) so
  /// "hot" never means "low values": each hot rank lands somewhere else
  /// in [lo, hi), but always in exactly one range shard — which is what
  /// makes skew an imbalance stressor for range placement.
  static double KeyForRank(size_t rank, double lo, double hi) {
    const double frac =
        std::fmod(0.618033988749895 * static_cast<double>(rank + 1), 1.0);
    return lo + frac * (hi - lo);
  }

 private:
  size_t n_;
  double theta_;
  Xoshiro256 rng_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

/// Wraps a dataset's base line generator and rewrites each line's indexed
/// attribute to a Zipf-skewed key: every other attribute keeps its
/// realistic distribution, so only the shard-placement key is skewed.
/// Used by bench_shard_scaling to *measure* skewed-shard imbalance
/// (per-shard queue watermarks) instead of assuming it away.
class ZipfKeyedLineGen : public record::LineGenerator {
 public:
  ZipfKeyedLineGen(record::DatasetSpec spec,
                   std::unique_ptr<record::LineGenerator> base,
                   size_t num_keys, double theta, uint64_t seed)
      : spec_(std::move(spec)),
        base_(std::move(base)),
        sampler_(num_keys, theta, seed) {}

  std::string NextLine() override {
    std::string line = base_->NextLine();
    const auto key = static_cast<int64_t>(ZipfKeySampler::KeyForRank(
        sampler_.NextRank(), spec_.domain_min, spec_.domain_max - 1));
    if (spec_.name == "nasa") {
      // Apache common log: the indexed reply size is the last space token.
      const size_t pos = line.rfind(' ');
      if (pos != std::string::npos) {
        line.resize(pos + 1);
        line += std::to_string(key);
      }
      return line;
    }
    // CSV: replace the indexed column in place.
    const size_t field = spec_.parser->schema().indexed_field_index();
    size_t start = 0;
    for (size_t f = 0; f < field; ++f) {
      const size_t c = line.find(',', start);
      if (c == std::string::npos) return line;
      start = c + 1;
    }
    size_t end = line.find(',', start);
    if (end == std::string::npos) end = line.size();
    line.replace(start, end - start, std::to_string(key));
    return line;
  }

 private:
  record::DatasetSpec spec_;
  std::unique_ptr<record::LineGenerator> base_;
  ZipfKeySampler sampler_;
};

}  // namespace bench
}  // namespace fresque

#endif  // FRESQUE_BENCH_ARRIVALS_H_
