#ifndef FRESQUE_ENGINE_PUBLICATION_H_
#define FRESQUE_ENGINE_PUBLICATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/chacha20.h"
#include "crypto/key_manager.h"
#include "engine/config.h"
#include "index/index.h"
#include "record/secure_codec.h"

namespace fresque {
namespace engine {

/// A record removed to satisfy a leaf's negative noise, encrypted.
struct RemovedRecord {
  size_t leaf = 0;
  Bytes e_record;
};

/// A publication payload and the removed records it could not hold.
struct EncodedPublication {
  Bytes payload;
  /// Removed records that no longer fit their leaf's overflow array
  /// (realized noise beyond the delta-probability bound); should be ~0.
  uint64_t overflow_drops = 0;
};

/// The payload every collector prototype ships for publication `pn`
/// (paper §4.1, §5.3): `index` plus one overflow array per leaf, as many
/// slots each as the delta-probability bound on a leaf's negative noise
/// (and at least one), serialized once and signed with
/// `keys.IndexMacKey(pn)` (net::EncodeSignedIndexPublication). Each
/// removed record goes to a random free slot of its leaf's array, drawn
/// from `rng`; every other slot holds a dummy `codec` encrypts in place.
/// Fails when a dummy cannot be encrypted: a partly padded array would
/// tell real removed records from padding.
Result<EncodedPublication> EncodePublication(
    const CollectorConfig& config, const crypto::KeyManager& keys, uint64_t pn,
    index::HistogramIndex index, std::vector<RemovedRecord> removed,
    record::SecureRecordCodec* codec, crypto::SecureRandom* rng);

}  // namespace engine
}  // namespace fresque

#endif  // FRESQUE_ENGINE_PUBLICATION_H_
