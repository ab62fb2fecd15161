#ifndef FRESQUE_NET_PAYLOADS_H_
#define FRESQUE_NET_PAYLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "index/index.h"
#include "index/matching.h"
#include "index/overflow.h"

namespace fresque {
namespace net {

/// Codecs for the structured control payloads that travel inside Message
/// frames. Hot-path record frames keep their fields in the envelope; these
/// are the cold-path publication artifacts.

/// kTemplateInit / kTemplateForward body: the noise-only index of a new
/// publication.
Bytes EncodeTemplate(const index::HistogramIndex& noise_index);
Result<index::HistogramIndex> DecodeTemplate(const Bytes& payload);

/// kAlSnapshot body: per-leaf true counts at the end of an interval.
Bytes EncodeAlSnapshot(const std::vector<int64_t>& al);
Result<std::vector<int64_t>> DecodeAlSnapshot(const Bytes& payload);

/// kIndexPublication body: secure index + overflow arrays + an
/// HMAC-SHA-256 integrity tag computed by the trusted collector with the
/// publication's IndexMacKey. The cloud is honest-but-curious, but the
/// tag gives the client tamper *evidence* (defense in depth): a modified
/// index or overflow array no longer verifies.
///
/// The payload is `u32 len ‖ index ‖ u32 len ‖ overflow ‖ u32 len ‖ tag`,
/// and the tag is the HMAC of every byte before the tag segment. So every
/// collector prototype writes the payload once and hashes it in place
/// (EncodeSignedIndexPublication, through engine::EncodePublication), and
/// the cloud installs a publication only from its payload, kept as one
/// immutable buffer that is both the evidence a client verifies and the
/// store the decoded overflow arrays read from
/// (DecodeSharedIndexPublication, DESIGN.md §12.5).
struct IndexPublication {
  index::HistogramIndex index;
  index::OverflowArrays overflow;
  /// The tag a decoded payload carried. Empty on a payload encoded from
  /// an untagged publication, which then fails verification.
  Bytes integrity_tag;

  IndexPublication(index::HistogramIndex idx, index::OverflowArrays ovf)
      : index(std::move(idx)), overflow(std::move(ovf)) {}
};
Bytes EncodeIndexPublication(const IndexPublication& pub);

/// Writes the empty overflow slots of a payload being encoded: the i-th
/// empty slot's bytes start at `payload + at[i]`, in slot order.
using SlotPadder =
    std::function<Status(uint8_t* payload, std::span<const size_t> at)>;

/// The payload EncodeIndexPublication gives after ComputeIndexPublicationTag
/// under `mac_key`, serialized once and tagged in place. `pub`'s own
/// integrity_tag is ignored. Each empty overflow slot of a built `pub` is
/// laid out with `slot_size` bytes, which `pad` writes before the tag is
/// taken over the finished prefix; the bytes are those of `pub` with each
/// empty slot holding what `pad` wrote there. A failed pad fails the
/// encode, so a partially padded array is never returned.
Result<Bytes> EncodeSignedIndexPublication(const IndexPublication& pub,
                                           const Bytes& mac_key,
                                           size_t slot_size,
                                           const SlotPadder& pad);

/// Decodes a payload into a publication whose overflow arrays read from
/// `payload` itself; no slot is copied. Fails with Corruption on a
/// malformed payload, bytes after the tag included.
Result<IndexPublication> DecodeSharedIndexPublication(
    std::shared_ptr<const Bytes> payload);
/// DecodeSharedIndexPublication over a private copy of `payload`.
Result<IndexPublication> DecodeIndexPublication(const Bytes& payload);

/// Computes the integrity tag for `pub` under `mac_key` (HMAC over the
/// length-prefixed index and overflow segments, serialized once).
Bytes ComputeIndexPublicationTag(const IndexPublication& pub,
                                 const Bytes& mac_key);

/// Verifies a stored publication payload against `mac_key`, hashing it in
/// place. Fails with Corruption on a mismatch or a malformed payload, and
/// FailedPrecondition when the payload carries no tag.
Status VerifyIndexPublicationPayload(const Bytes& payload,
                                     const Bytes& mac_key);

/// kMatchingTable body.
Bytes EncodeMatchingTable(const index::MatchingTable& table);
Result<index::MatchingTable> DecodeMatchingTable(const Bytes& payload);

}  // namespace net
}  // namespace fresque

#endif  // FRESQUE_NET_PAYLOADS_H_
