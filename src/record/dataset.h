#ifndef FRESQUE_RECORD_DATASET_H_
#define FRESQUE_RECORD_DATASET_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/rng.h"
#include "record/parser.h"

namespace fresque {
namespace record {

/// Everything the collector must know about one workload: how to parse its
/// raw lines and how its indexed attribute's domain is binned into the
/// PINED-RQ histogram.
struct DatasetSpec {
  std::string name;
  std::shared_ptr<const LineParser> parser;
  /// Indexed-attribute domain [domain_min, domain_max).
  double domain_min = 0;
  double domain_max = 0;
  /// Histogram bin (leaf) width Ib.
  double bin_width = 0;

  size_t num_bins() const {
    return static_cast<size_t>((domain_max - domain_min) / bin_width);
  }
};

/// NASA-HTTP-like workload: Apache common-log lines, 5 attributes, the
/// reply-byte attribute indexed over 3421 bins of 1 KB (paper §7.1).
Result<DatasetSpec> NasaDataset();

/// Gowalla-like workload: CSV check-ins, 3 attributes, the check-in time
/// indexed over 626 bins of one hour (paper §7.1).
Result<DatasetSpec> GowallaDataset();

/// Produces raw text lines for a workload. Deterministic given a seed, so
/// experiments are reproducible and ground truth can be recomputed.
class LineGenerator {
 public:
  virtual ~LineGenerator() = default;
  virtual std::string NextLine() = 0;
};

/// Synthesizes Apache common-log lines whose reply sizes follow a clipped
/// log-normal (heavy-tailed, like real web traffic) over the NASA domain.
class NasaLogGenerator : public LineGenerator {
 public:
  explicit NasaLogGenerator(uint64_t seed);

  std::string NextLine() override;

 private:
  Xoshiro256 rng_;
  int64_t clock_seconds_;
};

/// Synthesizes check-in CSV lines with times uniform over the 626-hour
/// Gowalla window.
class GowallaGenerator : public LineGenerator {
 public:
  explicit GowallaGenerator(uint64_t seed);

  std::string NextLine() override;

 private:
  Xoshiro256 rng_;
};

/// Constructs the generator matching a dataset spec by name.
Result<std::unique_ptr<LineGenerator>> MakeGenerator(const DatasetSpec& spec,
                                                     uint64_t seed);

}  // namespace record
}  // namespace fresque

#endif  // FRESQUE_RECORD_DATASET_H_
