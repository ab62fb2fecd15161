#ifndef FRESQUE_CLOUD_STORAGE_H_
#define FRESQUE_CLOUD_STORAGE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace fresque {
namespace cloud {

/// Physical location of one stored e-record.
struct PhysicalAddress {
  uint32_t segment = 0;
  uint32_t offset = 0;
  uint32_t length = 0;

  bool operator==(const PhysicalAddress& o) const {
    return segment == o.segment && offset == o.offset && length == o.length;
  }
};

/// One borrowed `<leaf offset, e-record>` pair: the unit CloudServer and
/// the WAL take in runs. The bytes stay owned by the caller.
struct LeafRecord {
  uint32_t leaf = 0;
  std::span<const uint8_t> e_record;
};

/// Append-only segmented record store — the cloud's on-disk file for one
/// publication. Records append to the tail segment and are addressed by
/// (segment, offset, length), mirroring how the paper's cloud writes
/// e-records to disk and keeps their physical addresses in metadata.
class SegmentStorage {
 public:
  /// `segment_capacity` bytes per segment (default 4 MiB).
  explicit SegmentStorage(size_t segment_capacity = 4 << 20);

  /// Appends one e-record; returns its address.
  PhysicalAddress Append(std::span<const uint8_t> e_record);

  /// Reads the record at `addr`. This performs a copy — the "disk read" —
  /// so read-back-based matching (PINED-RQ++) pays a real per-record cost.
  Result<Bytes> Read(const PhysicalAddress& addr) const;

  /// Visits every stored record in append order without copying: `fn`
  /// receives the record's address plus a pointer/length into the live
  /// segment. The pointer is valid only for the duration of the call —
  /// callers must not retain it past `fn` returning (a later Append may
  /// reallocate the segment). Stops and propagates the first non-OK
  /// status `fn` returns.
  Status ForEachRecord(
      const std::function<Status(const PhysicalAddress&, const uint8_t* data,
                                 size_t size)>& fn) const;

  /// Zero-copy batch visitation of `addrs[0..n)`: `fn` receives each
  /// address plus a pointer/length into live segment memory, valid only
  /// for the duration of the call. One bounds check per address and no
  /// Status/Bytes machinery per record — this is the vectorized read path
  /// the query engine's leaf scan batches over (kScanBatch addresses per
  /// call). Fails on the first out-of-bounds address without visiting it.
  template <typename Fn>
  Status VisitAddresses(const PhysicalAddress* addrs, size_t n,
                        Fn&& fn) const {
    for (size_t i = 0; i < n; ++i) {
      const PhysicalAddress& a = addrs[i];
      if (!Contains(a)) {
        return Status::InvalidArgument("address outside stored segments");
      }
      fn(a, segments_[a.segment].data() + a.offset,
         static_cast<size_t>(a.length));
    }
    return Status::OK();
  }

  /// True when `addr` lies fully inside a stored segment.
  bool Contains(const PhysicalAddress& addr) const {
    return addr.segment < segments_.size() &&
           static_cast<size_t>(addr.offset) + addr.length <=
               segments_[addr.segment].size();
  }

  size_t num_segments() const { return segments_.size(); }
  size_t num_records() const { return num_records_; }
  size_t total_bytes() const { return total_bytes_; }

  /// Snapshot encoding (for cloud persistence).
  Bytes Serialize() const;
  /// Length of Serialize()'s output.
  size_t SerializedSize() const;
  /// Appends Serialize()'s output to `w` without an intermediate buffer.
  void SerializeTo(BinaryWriter* w) const;
  static Result<SegmentStorage> Deserialize(const Bytes& data);

 private:
  size_t segment_capacity_;
  std::vector<Bytes> segments_;
  /// Append-order index of every record; lets iteration and integrity
  /// checks walk segment memory directly instead of copying via Read.
  std::vector<PhysicalAddress> directory_;
  size_t num_records_ = 0;
  size_t total_bytes_ = 0;
};

}  // namespace cloud
}  // namespace fresque

#endif  // FRESQUE_CLOUD_STORAGE_H_
