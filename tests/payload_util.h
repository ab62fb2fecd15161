#ifndef FRESQUE_TESTS_PAYLOAD_UTIL_H_
#define FRESQUE_TESTS_PAYLOAD_UTIL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "index/binning.h"
#include "index/index.h"
#include "index/layout.h"
#include "index/overflow.h"
#include "net/payloads.h"

namespace fresque {

/// `pub` as the cloud installs it: one payload signed under `mac_key`
/// (net::EncodeSignedIndexPublication). Its empty overflow slots stay
/// empty.
inline std::shared_ptr<const Bytes> SignedPayload(
    const net::IndexPublication& pub, const Bytes& mac_key = Bytes(32, 0x4B)) {
  auto payload = net::EncodeSignedIndexPublication(
      pub, mac_key, 0,
      [](uint8_t*, std::span<const size_t>) { return Status::OK(); });
  return std::make_shared<const Bytes>(std::move(payload).ValueOrDie());
}

/// The payload of an index over `counts` (fanout 4) with one empty
/// overflow slot per leaf.
inline std::shared_ptr<const Bytes> MakePublication(
    const index::DomainBinning& binning, const std::vector<int64_t>& counts) {
  auto layout = index::IndexLayout::Create(binning.num_bins(), 4);
  auto idx = index::HistogramIndex::FromLeafCounts(
      std::move(layout).ValueOrDie(), binning, counts);
  return SignedPayload(
      net::IndexPublication(std::move(idx).ValueOrDie(),
                            index::OverflowArrays(binning.num_bins(), 1)));
}

}  // namespace fresque

#endif  // FRESQUE_TESTS_PAYLOAD_UTIL_H_
