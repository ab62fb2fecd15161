#include "engine/config.h"

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
  if (alpha < 1) {
    return Status::InvalidArgument("alpha must be >= 1");
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

}  // namespace engine
}  // namespace fresque
