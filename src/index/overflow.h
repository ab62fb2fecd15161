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
///  - built, by the constructor: the merger and the baselines Insert the
///    removed records and pad the rest, one buffer per slot, then
///    serialize them into the publication payload;
///  - decoded, by View or Deserialize: read-only over serialized bytes in
///    one shared, immutable buffer. At the cloud that buffer is the
///    received publication payload itself, which is also the
///    publication's integrity evidence (DESIGN.md §12.5). A leaf's slots
///    are contiguous in it, so one offset per leaf is all that is kept;
///    no slot is copied out.
/// ForEachSlot, Serialize and PayloadBytes read either form.
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

  /// Fills every remaining empty slot with `make_dummy()` ciphertexts.
  /// `make_dummy` may return Bytes or Result<Bytes>; the first failure
  /// aborts the pad and is returned, leaving later slots empty. A
  /// partially padded array must not ship — an empty slot would reveal
  /// which slots hold real removed records — so callers fail the whole
  /// publication on error instead of publishing.
  template <typename DummyFn>
  Status PadWithDummies(DummyFn&& make_dummy) {
    for (auto& leaf : slots_) {
      for (auto& slot : leaf) {
        if (!slot.empty()) continue;
        Result<Bytes> d = make_dummy();
        if (!d.ok()) return d.status();
        slot = std::move(*d);
      }
    }
    return Status::OK();
  }

  /// Visits every still-empty slot of a built array as a mutable Bytes*.
  /// Slot storage is stable, so callers may retain the pointers until the
  /// arrays are next mutated — this is what lets the merger stage all
  /// dummies into one hardware-interleaved batch encrypt instead of one
  /// call per slot.
  template <typename Fn>
  void ForEachEmptySlot(Fn&& fn) {
    for (auto& leaf : slots_) {
      for (auto& slot : leaf) {
        if (slot.empty()) fn(&slot);
      }
    }
  }

  /// Visits leaf `i`'s slots in order as `fn(std::span<const uint8_t>)`;
  /// an unfilled slot of a built array is an empty span. The spans of a
  /// decoded array point into its buffer and live as long as it does.
  template <typename Fn>
  void ForEachSlot(size_t i, Fn&& fn) const {
    if (!decoded()) {
      for (const Bytes& slot : slots_[i]) fn(std::span<const uint8_t>(slot));
      return;
    }
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

  /// Number of real (inserted) slots in leaf `i`. A decoded array's fill
  /// state is opaque: every slot counts as used.
  size_t used(size_t i) const {
    return decoded() ? slots_per_leaf_ : used_[i];
  }

  /// Size of the serialized arrays, in bytes.
  size_t SerializedSize() const;
  /// Appends the serialized arrays to `w` (the publication encoder writes
  /// them straight into the payload).
  void SerializeTo(BinaryWriter* w) const;
  /// Serialized bytes of all arrays (what the merger publishes).
  Bytes Serialize() const;

  /// The buffer a decoded array reads from; null for a built one.
  const std::shared_ptr<const Bytes>& buffer() const { return buffer_; }

  /// Moves a decoded array onto `buffer`, which must be the buffer it
  /// reads from or an equal copy of it, and releases the old one. This is
  /// how a publication decoded from one copy of a payload ends up reading
  /// from the copy its installer keeps. InvalidArgument for a built array
  /// or different bytes.
  Status Rebase(std::shared_ptr<const Bytes> buffer);

  /// Total payload bytes across all slots (storage-overhead reporting).
  size_t PayloadBytes() const;

 private:
  size_t num_leaves_;
  size_t slots_per_leaf_;
  // Built form.
  std::vector<std::vector<Bytes>> slots_;
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
