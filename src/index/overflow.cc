#include "index/overflow.h"

#include <algorithm>
#include <limits>

namespace fresque {
namespace index {

namespace {

/// u64 leaves, u64 slots per leaf.
constexpr size_t kHeaderBytes = 16;
/// Every slot carries a u32 length prefix.
constexpr size_t kSlotPrefixBytes = 4;

}  // namespace

OverflowArrays::OverflowArrays(size_t num_leaves, size_t slots_per_leaf)
    : num_leaves_(num_leaves),
      slots_per_leaf_(slots_per_leaf),
      slots_(num_leaves),
      used_(num_leaves, 0) {
  for (auto& leaf : slots_) leaf.resize(slots_per_leaf);
}

Result<OverflowArrays> OverflowArrays::View(
    std::shared_ptr<const Bytes> buffer, size_t offset, size_t size) {
  if (buffer == nullptr || offset > buffer->size() ||
      size > buffer->size() - offset) {
    return Status::InvalidArgument("overflow view outside its buffer");
  }
  // Leaf offsets are u32: the serialized arrays sit behind a u32 length
  // prefix in every format that carries them.
  if (size > std::numeric_limits<uint32_t>::max()) {
    return Status::Corruption("overflow arrays exceed 4 GiB");
  }
  BinaryReader r(buffer->data() + offset, size);
  auto leaves = r.GetU64();
  auto per_leaf = r.GetU64();
  if (!leaves.ok() || !per_leaf.ok()) {
    return Status::Corruption("truncated overflow header");
  }
  // Each slot costs at least its length prefix; reject headers whose
  // claimed geometry cannot fit in the remaining bytes (corrupt input
  // must not drive allocation).
  const uint64_t max_slots = r.remaining() / kSlotPrefixBytes;
  if (*leaves != 0 && *per_leaf > max_slots / *leaves) {
    return Status::Corruption("overflow geometry exceeds payload");
  }
  OverflowArrays out(0, *per_leaf);
  out.num_leaves_ = *leaves;
  if (*per_leaf != 0) {
    out.leaf_begin_.reserve(*leaves);
    for (uint64_t i = 0; i < *leaves; ++i) {
      out.leaf_begin_.push_back(static_cast<uint32_t>(r.position()));
      for (uint64_t s = 0; s < *per_leaf; ++s) {
        auto len = r.GetU32();
        if (!len.ok() || !r.Skip(*len).ok()) {
          return Status::Corruption("truncated overflow slot");
        }
      }
    }
  }
  if (!r.exhausted()) {
    return Status::Corruption("trailing bytes after overflow arrays");
  }
  out.buffer_ = std::move(buffer);
  out.offset_ = offset;
  out.size_ = size;
  return out;
}

Result<OverflowArrays> OverflowArrays::Deserialize(const Bytes& data) {
  return View(std::make_shared<const Bytes>(data), 0, data.size());
}

Status OverflowArrays::Insert(size_t i, Bytes e_record,
                              crypto::SecureRandom* rng) {
  if (decoded()) {
    return Status::FailedPrecondition("decoded overflow arrays are read-only");
  }
  if (i >= slots_.size()) {
    return Status::OutOfRange("overflow leaf index out of range");
  }
  auto& leaf = slots_[i];
  if (used_[i] >= slots_per_leaf_) {
    return Status::ResourceExhausted(
        "overflow array full for leaf " + std::to_string(i));
  }
  // Place at a uniformly random empty slot so position reveals nothing
  // about arrival order.
  size_t free_count = slots_per_leaf_ - used_[i];
  size_t target = rng->NextBounded(free_count);
  for (auto& slot : leaf) {
    if (!slot.empty()) continue;
    if (target == 0) {
      slot = std::move(e_record);
      ++used_[i];
      return Status::OK();
    }
    --target;
  }
  return Status::Internal("overflow free-slot bookkeeping out of sync");
}

size_t OverflowArrays::SerializedSize() const {
  if (decoded()) return size_;
  return kHeaderBytes + num_leaves_ * slots_per_leaf_ * kSlotPrefixBytes +
         PayloadBytes();
}

void OverflowArrays::SerializeTo(BinaryWriter* w) const {
  if (decoded()) {
    w->PutRaw(buffer_->data() + offset_, size_);
    return;
  }
  w->PutU64(num_leaves_);
  w->PutU64(slots_per_leaf_);
  for (const auto& leaf : slots_) {
    for (const auto& slot : leaf) w->PutBytes(slot);
  }
}

Bytes OverflowArrays::Serialize() const {
  BinaryWriter w;
  w.Reserve(SerializedSize());
  SerializeTo(&w);
  return w.Release();
}

Status OverflowArrays::Rebase(std::shared_ptr<const Bytes> buffer) {
  if (!decoded()) {
    return Status::InvalidArgument("built overflow arrays have no buffer");
  }
  if (buffer == nullptr ||
      (buffer != buffer_ &&
       (buffer->size() != buffer_->size() ||
        !std::equal(buffer->begin(), buffer->end(), buffer_->begin())))) {
    return Status::InvalidArgument(
        "overflow arrays rebased onto different bytes");
  }
  buffer_ = std::move(buffer);
  return Status::OK();
}

size_t OverflowArrays::PayloadBytes() const {
  if (decoded()) {
    return size_ - kHeaderBytes -
           num_leaves_ * slots_per_leaf_ * kSlotPrefixBytes;
  }
  size_t t = 0;
  for (const auto& leaf : slots_) {
    for (const auto& slot : leaf) t += slot.size();
  }
  return t;
}

}  // namespace index
}  // namespace fresque
