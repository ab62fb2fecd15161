#ifndef FRESQUE_INDEX_OVERFLOW_H_
#define FRESQUE_INDEX_OVERFLOW_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/chacha20.h"

namespace fresque {
namespace index {

/// Per-leaf fixed-size arrays of encrypted slots that hide the records
/// removed to satisfy negative leaf noise (paper §4.1).
///
/// Every leaf's array has the same capacity regardless of how many real
/// records were actually removed; unused slots carry dummy ciphertexts,
/// so the array's size reveals only the public bound, not the noise.
///
/// The arrays take one of two forms:
///  - built, by the constructor: a collector Inserts the removed records,
///    one buffer per record, and leaves the other slots empty;
///    net::EncodeSignedIndexPublication lays each empty slot out in the
///    publication payload, where its dummy is encrypted in place
///    (SerializeTo's `empty_at`, engine::EncodePublication);
///  - decoded, by View or Deserialize: read-only over serialized bytes in
///    one shared, immutable buffer. At the cloud that buffer is the
///    received publication payload itself, which is also the
///    publication's integrity evidence (DESIGN.md §12.5). A leaf's slots
///    are contiguous in it, so one offset per leaf is all that is kept;
///    no slot is copied out.
/// Serialize reads either form; ForEachSlot and PayloadBytes read the
/// decoded form, the only one the cloud installs.
class OverflowArrays {
 public:
  /// `num_leaves` built arrays of `slots_per_leaf` empty slots each.
  OverflowArrays(size_t num_leaves, size_t slots_per_leaf);

  /// The decoded form of the Serialize() output held in `size` bytes of
  /// `*buffer` at `offset`; the arrays share `buffer`. Fails with
  /// Corruption when those bytes are truncated, claim a geometry they
  /// cannot hold, or carry trailing bytes.
  static Result<OverflowArrays> View(std::shared_ptr<const Bytes> buffer,
                                     size_t offset, size_t size);

  /// View over a private copy of `data`.
  static Result<OverflowArrays> Deserialize(const Bytes& data);

  size_t num_leaves() const { return num_leaves_; }
  size_t slots_per_leaf() const { return slots_per_leaf_; }
  bool decoded() const { return buffer_ != nullptr; }

  /// Inserts a removed record's ciphertext into leaf `i`'s array at a
  /// random free slot. Fails with ResourceExhausted when the array is
  /// full (the realized negative noise exceeded the public bound — a
  /// delta-probability event), and with FailedPrecondition on decoded
  /// arrays, which are read-only.
  Status Insert(size_t i, Bytes e_record, crypto::SecureRandom* rng);

  /// Visits every still-empty slot of a built array as a mutable Bytes*.
  /// Slot storage is stable, so callers may retain the pointers until the
  /// arrays are next mutated — this is what lets a caller stage all
  /// dummies into one hardware-interleaved batch encrypt
  /// (SecureRecordCodec::BatchEncryptor) instead of one call per slot.
  template <typename Fn>
  void ForEachEmptySlot(Fn&& fn) {
    for (auto& slot : slots_) {
      if (slot.empty()) fn(&slot);
    }
  }

  /// Visits leaf `i`'s slots of a decoded array in order as
  /// `fn(std::span<const uint8_t>)`. The spans point into its buffer and
  /// live as long as it does.
  template <typename Fn>
  void ForEachSlot(size_t i, Fn&& fn) const {
    if (slots_per_leaf_ == 0) return;
    const uint8_t* p = buffer_->data() + offset_ + leaf_begin_[i];
    for (size_t s = 0; s < slots_per_leaf_; ++s) {
      // Validated by View: every prefix and body lies inside the buffer.
      const size_t len = static_cast<size_t>(p[0]) |
                         static_cast<size_t>(p[1]) << 8 |
                         static_cast<size_t>(p[2]) << 16 |
                         static_cast<size_t>(p[3]) << 24;
      fn(std::span<const uint8_t>(p + 4, len));
      p += 4 + len;
    }
  }

  /// Size of the serialized arrays, in bytes, when each empty slot of a
  /// built array is laid out with `empty_slot_size` bytes.
  size_t SerializedSize(size_t empty_slot_size = 0) const;
  /// Appends the serialized arrays to `w` (the publication encoder writes
  /// them straight into the payload). Each empty slot of a built array is
  /// laid out as `u32 empty_slot_size ‖ empty_slot_size zero bytes` for
  /// the caller to fill in place; with `empty_at`, the offset of those
  /// bytes in `w` is appended to `*empty_at`, in slot order.
  void SerializeTo(BinaryWriter* w, size_t empty_slot_size = 0,
                   std::vector<size_t>* empty_at = nullptr) const;
  /// Serialized bytes of all arrays.
  Bytes Serialize() const;

  /// The buffer a decoded array reads from; null for a built one.
  const std::shared_ptr<const Bytes>& buffer() const { return buffer_; }

  /// Moves a decoded array onto `buffer`, which must be the buffer it
  /// reads from or an equal copy of it, and releases the old one. This is
  /// how a publication decoded from one copy of a payload ends up reading
  /// from the copy its installer keeps. InvalidArgument for a built array
  /// or different bytes.
  Status Rebase(std::shared_ptr<const Bytes> buffer);

  /// Total payload bytes across all slots of a decoded array
  /// (storage-overhead reporting).
  size_t PayloadBytes() const;

 private:
  size_t num_leaves_;
  size_t slots_per_leaf_;
  // Built form: leaf i's slots are slots_[i * slots_per_leaf_, ...).
  std::vector<Bytes> slots_;
  std::vector<size_t> used_;
  // Decoded form: the serialized arrays are `size_` bytes of `*buffer_`
  // at `offset_`; leaf i's first slot prefix is at offset_ +
  // leaf_begin_[i] (empty when slots_per_leaf_ is 0).
  std::shared_ptr<const Bytes> buffer_;
  size_t offset_ = 0;
  size_t size_ = 0;
  std::vector<uint32_t> leaf_begin_;
};

}  // namespace index
}  // namespace fresque

#endif  // FRESQUE_INDEX_OVERFLOW_H_
