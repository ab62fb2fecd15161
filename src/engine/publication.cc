#include "engine/publication.h"

#include <algorithm>
#include <span>
#include <utility>

#include "dp/laplace.h"
#include "index/overflow.h"
#include "net/payloads.h"

namespace fresque {
namespace engine {

namespace {

/// Slots in each leaf's overflow array for an index of `num_levels`
/// levels: the delta-probability bound on that leaf's negative noise
/// (symmetric to the dummy bound), and at least one.
size_t OverflowSlotsPerLeaf(const CollectorConfig& config, size_t num_levels) {
  const double scale =
      index::IndexPerturber::LevelScale(config.epsilon, num_levels);
  return static_cast<size_t>(
      std::max<int64_t>(1, dp::DummyUpperBoundPerLeaf(scale, config.delta)));
}

}  // namespace

Result<EncodedPublication> EncodePublication(
    const CollectorConfig& config, const crypto::KeyManager& keys, uint64_t pn,
    index::HistogramIndex index, std::vector<RemovedRecord> removed,
    record::SecureRecordCodec* codec, crypto::SecureRandom* rng) {
  EncodedPublication out;
  index::OverflowArrays overflow(
      index.layout().num_leaves(),
      OverflowSlotsPerLeaf(config, index.layout().num_levels()));
  for (RemovedRecord& rm : removed) {
    if (!overflow.Insert(rm.leaf, std::move(rm.e_record), rng).ok()) {
      ++out.overflow_drops;
    }
  }
  // One serialization: the payload is sized once, the dummies are
  // batch-encrypted straight into their slots, and the tag is computed
  // over the result in place (SHA-NI where the CPU has it).
  const size_t padding_len = config.dummy_padding_len;
  auto payload = net::EncodeSignedIndexPublication(
      net::IndexPublication(std::move(index), std::move(overflow)),
      keys.IndexMacKey(pn),
      record::SecureRecordCodec::DummyCiphertextSize(padding_len),
      [&](uint8_t* bytes, std::span<const size_t> at) {
        return codec->EncryptDummiesAt(padding_len, bytes, at);
      });
  if (!payload.ok()) return payload.status();
  out.payload = std::move(payload).ValueOrDie();
  return out;
}

}  // namespace engine
}  // namespace fresque
