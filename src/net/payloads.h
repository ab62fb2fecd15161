#ifndef FRESQUE_NET_PAYLOADS_H_
#define FRESQUE_NET_PAYLOADS_H_

#include <cstdint>
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

/// kIndexPublication body: secure index + overflow arrays + an optional
/// HMAC-SHA-256 integrity tag computed by the trusted collector with the
/// publication's IndexMacKey. The cloud is honest-but-curious, but the
/// tag gives the client tamper *evidence* (defense in depth): a modified
/// index or overflow array no longer verifies.
///
/// The payload is `u32 len ‖ index ‖ u32 len ‖ overflow ‖ u32 len ‖ tag`,
/// and the tag is the HMAC of every byte before the tag segment. So the
/// merger writes the payload once and hashes it in place
/// (EncodeSignedIndexPublication), and the cloud keeps the received
/// payload as one immutable buffer that is both the evidence a client
/// verifies and the store the decoded overflow arrays read from
/// (DecodeSharedIndexPublication, DESIGN.md §12.5).
struct IndexPublication {
  index::HistogramIndex index;
  index::OverflowArrays overflow;
  /// Empty when the producing prototype does not sign (baselines).
  Bytes integrity_tag;

  IndexPublication(index::HistogramIndex idx, index::OverflowArrays ovf)
      : index(std::move(idx)), overflow(std::move(ovf)) {}
};
Bytes EncodeIndexPublication(const IndexPublication& pub);

/// The payload EncodeIndexPublication gives after ComputeIndexPublicationTag
/// under `mac_key`, serialized once and tagged in place. `pub`'s own
/// integrity_tag is ignored.
Bytes EncodeSignedIndexPublication(const IndexPublication& pub,
                                   const Bytes& mac_key);

/// Decodes a payload into a publication whose overflow arrays read from
/// `payload` itself; no slot is copied. Fails with Corruption on a
/// malformed payload, bytes after the tag included.
Result<IndexPublication> DecodeSharedIndexPublication(
    std::shared_ptr<const Bytes> payload);
/// DecodeSharedIndexPublication over a private copy of `payload`.
Result<IndexPublication> DecodeIndexPublication(const Bytes& payload);

/// The three segments of an encoded publication, as views into it.
struct IndexPublicationSegments {
  std::span<const uint8_t> index;
  std::span<const uint8_t> overflow;
  std::span<const uint8_t> tag;
  /// Length of the prefix the tag covers (everything before the tag's
  /// length prefix).
  size_t tagged_bytes = 0;
};
/// Splits `payload` without copying it. Corruption when it is truncated
/// or carries bytes after the tag.
Result<IndexPublicationSegments> SplitIndexPublication(
    std::span<const uint8_t> payload);

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
