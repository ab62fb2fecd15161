#include "net/payloads.h"

#include "crypto/hmac.h"

namespace fresque {
namespace net {

Bytes EncodeTemplate(const index::HistogramIndex& noise_index) {
  return noise_index.Serialize();
}

Result<index::HistogramIndex> DecodeTemplate(const Bytes& payload) {
  return index::HistogramIndex::Deserialize(payload);
}

Bytes EncodeAlSnapshot(const std::vector<int64_t>& al) {
  BinaryWriter w;
  w.PutU64(al.size());
  for (int64_t v : al) w.PutI64(v);
  return w.Release();
}

Result<std::vector<int64_t>> DecodeAlSnapshot(const Bytes& payload) {
  BinaryReader r(payload);
  auto n = r.GetU64();
  if (!n.ok()) return Status::Corruption("truncated AL snapshot");
  // Bound the claimed count by the bytes actually present (8 per entry),
  // so a corrupt header cannot trigger a huge allocation.
  if (*n > r.remaining() / sizeof(int64_t)) {
    return Status::Corruption("AL snapshot count exceeds payload");
  }
  std::vector<int64_t> al;
  al.reserve(*n);
  for (uint64_t i = 0; i < *n; ++i) {
    auto v = r.GetI64();
    if (!v.ok()) return Status::Corruption("truncated AL entry");
    al.push_back(*v);
  }
  return al;
}

namespace {

/// The tagged prefix `u32 len ‖ index ‖ u32 len ‖ overflow`, in a writer
/// sized for a tag segment of `tag_size` bytes after it.
BinaryWriter EncodeSegments(const IndexPublication& pub, size_t tag_size) {
  const Bytes index = pub.index.Serialize();
  const size_t overflow_size = pub.overflow.SerializedSize();
  BinaryWriter w;
  w.Reserve(4 + index.size() + 4 + overflow_size + 4 + tag_size);
  w.PutBytes(index);
  w.PutU32(static_cast<uint32_t>(overflow_size));
  pub.overflow.SerializeTo(&w);
  return w;
}

Bytes Tag(const uint8_t* data, size_t len, const Bytes& mac_key) {
  crypto::HmacSha256 mac(mac_key);
  mac.Update(data, len);
  auto digest = mac.Finish();
  return Bytes(digest.begin(), digest.end());
}

}  // namespace

Bytes EncodeIndexPublication(const IndexPublication& pub) {
  BinaryWriter w = EncodeSegments(pub, pub.integrity_tag.size());
  w.PutBytes(pub.integrity_tag);
  return w.Release();
}

Bytes EncodeSignedIndexPublication(const IndexPublication& pub,
                                   const Bytes& mac_key) {
  BinaryWriter w = EncodeSegments(pub, crypto::HmacSha256::kDigestSize);
  w.PutBytes(Tag(w.buffer().data(), w.size(), mac_key));
  return w.Release();
}

Result<IndexPublicationSegments> SplitIndexPublication(
    std::span<const uint8_t> payload) {
  BinaryReader r(payload.data(), payload.size());
  IndexPublicationSegments seg;
  auto index = r.GetBytesView();
  auto overflow = r.GetBytesView();
  seg.tagged_bytes = r.position();
  auto tag = r.GetBytesView();
  if (!index.ok() || !overflow.ok() || !tag.ok()) {
    return Status::Corruption("truncated index publication");
  }
  // The tag covers nothing after it: bytes there would ride along with a
  // verified payload, and the cloud serves the payload verbatim as
  // evidence.
  if (!r.exhausted()) {
    return Status::Corruption("bytes after the index publication's tag");
  }
  seg.index = *index;
  seg.overflow = *overflow;
  seg.tag = *tag;
  return seg;
}

Result<IndexPublication> DecodeSharedIndexPublication(
    std::shared_ptr<const Bytes> payload) {
  if (payload == nullptr) return Status::InvalidArgument("no payload");
  auto seg = SplitIndexPublication(*payload);
  if (!seg.ok()) return seg.status();
  auto idx = index::HistogramIndex::Deserialize(
      Bytes(seg->index.begin(), seg->index.end()));
  if (!idx.ok()) return idx.status();
  const size_t overflow_at =
      static_cast<size_t>(seg->overflow.data() - payload->data());
  Bytes tag(seg->tag.begin(), seg->tag.end());
  auto ovf = index::OverflowArrays::View(std::move(payload), overflow_at,
                                         seg->overflow.size());
  if (!ovf.ok()) return ovf.status();
  IndexPublication pub(std::move(idx).ValueOrDie(),
                       std::move(ovf).ValueOrDie());
  pub.integrity_tag = std::move(tag);
  return pub;
}

Result<IndexPublication> DecodeIndexPublication(const Bytes& payload) {
  return DecodeSharedIndexPublication(std::make_shared<const Bytes>(payload));
}

Bytes ComputeIndexPublicationTag(const IndexPublication& pub,
                                 const Bytes& mac_key) {
  const BinaryWriter segments = EncodeSegments(pub, 0);
  return Tag(segments.buffer().data(), segments.size(), mac_key);
}

Status VerifyIndexPublicationPayload(const Bytes& payload,
                                     const Bytes& mac_key) {
  auto seg = SplitIndexPublication(payload);
  if (!seg.ok()) return seg.status();
  if (seg->tag.empty()) {
    return Status::FailedPrecondition("publication carries no tag");
  }
  const Bytes expected = Tag(payload.data(), seg->tagged_bytes, mac_key);
  if (seg->tag.size() != expected.size() ||
      !crypto::ConstantTimeEquals(seg->tag.data(), expected.data(),
                                  expected.size())) {
    return Status::Corruption("publication integrity tag mismatch");
  }
  return Status::OK();
}

Bytes EncodeMatchingTable(const index::MatchingTable& table) {
  return table.Serialize();
}

Result<index::MatchingTable> DecodeMatchingTable(const Bytes& payload) {
  return index::MatchingTable::Deserialize(payload);
}

}  // namespace net
}  // namespace fresque
