#include "engine/config.h"

#include "dp/laplace.h"
#include "index/binning.h"
#include "index/index.h"
#include "index/layout.h"

namespace fresque {
namespace engine {

Status CollectorConfig::Validate() const {
  if (num_computing_nodes == 0) {
    return Status::InvalidArgument("num_computing_nodes must be >= 1");
  }
  if (mailbox_capacity == 0) {
    return Status::InvalidArgument(
        "mailbox_capacity must be >= 1: a zero-capacity mailbox deadlocks "
        "the first push");
  }
  if (fanout < 2) {
    return Status::InvalidArgument("fanout must be >= 2");
  }
  if (!(epsilon > 0)) {
    return Status::InvalidArgument("epsilon must be > 0");
  }
  if (!(delta > 0) || delta >= 1) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }
  if (!(alpha >= 2)) {
    return Status::InvalidArgument(
        "alpha must be >= 2: a smaller randomer buffer cannot hide the "
        "dummies from an informed online attacker (paper §5.2)");
  }
  if (admission.enabled) {
    if (!(admission.shed_low_watermark > 0) ||
        admission.shed_low_watermark > 1) {
      return Status::InvalidArgument(
          "admission.shed_low_watermark must be in (0, 1]");
    }
    if (!(admission.shed_high_watermark > 0) ||
        admission.shed_high_watermark > 1) {
      return Status::InvalidArgument(
          "admission.shed_high_watermark must be in (0, 1]");
    }
    if (admission.shed_low_watermark > admission.shed_high_watermark) {
      return Status::InvalidArgument(
          "admission.shed_low_watermark must be <= shed_high_watermark "
          "(low-priority traffic sheds first)");
    }
    if (admission.rate_records_per_sec < 0) {
      return Status::InvalidArgument(
          "admission.rate_records_per_sec must be >= 0 (0 disables the "
          "token bucket)");
    }
    if (admission.rate_records_per_sec > 0 && admission.burst_records < 1) {
      return Status::InvalidArgument(
          "admission.burst_records must be >= 1 when the token bucket is "
          "enabled");
    }
  }
  return Status::OK();
}

Result<size_t> RandomerBufferSize(const CollectorConfig& config) {
  auto binning = index::DomainBinning::Create(config.dataset.domain_min,
                                              config.dataset.domain_max,
                                              config.dataset.bin_width);
  if (!binning.ok()) return binning.status();
  auto layout = index::IndexLayout::Create(binning->num_bins(), config.fanout);
  if (!layout.ok()) return layout.status();
  const double scale = index::IndexPerturber::LevelScale(
      config.epsilon, layout->num_levels());
  return dp::RandomerBufferSize(scale, config.delta, layout->num_leaves(),
                                config.alpha);
}

}  // namespace engine
}  // namespace fresque
