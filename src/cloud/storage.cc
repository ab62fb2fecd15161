#include "cloud/storage.h"

#include <cstring>

namespace fresque {
namespace cloud {

SegmentStorage::SegmentStorage(size_t segment_capacity)
    : segment_capacity_(segment_capacity) {
  segments_.emplace_back();
  segments_.back().reserve(segment_capacity_);
}

PhysicalAddress SegmentStorage::Append(std::span<const uint8_t> e_record) {
  if (segments_.back().size() + e_record.size() > segment_capacity_ &&
      !segments_.back().empty()) {
    segments_.emplace_back();
    segments_.back().reserve(segment_capacity_);
  }
  Bytes& seg = segments_.back();
  PhysicalAddress addr;
  addr.segment = static_cast<uint32_t>(segments_.size() - 1);
  addr.offset = static_cast<uint32_t>(seg.size());
  addr.length = static_cast<uint32_t>(e_record.size());
  seg.insert(seg.end(), e_record.begin(), e_record.end());
  directory_.push_back(addr);
  ++num_records_;
  total_bytes_ += e_record.size();
  return addr;
}

Status SegmentStorage::ForEachRecord(
    const std::function<Status(const PhysicalAddress&, const uint8_t*, size_t)>&
        fn) const {
  for (const PhysicalAddress& addr : directory_) {
    const Bytes& seg = segments_[addr.segment];
    FRESQUE_RETURN_NOT_OK(fn(addr, seg.data() + addr.offset, addr.length));
  }
  return Status::OK();
}

Result<Bytes> SegmentStorage::Read(const PhysicalAddress& addr) const {
  if (addr.segment >= segments_.size()) {
    return Status::OutOfRange("segment out of range");
  }
  const Bytes& seg = segments_[addr.segment];
  if (static_cast<size_t>(addr.offset) + addr.length > seg.size()) {
    return Status::OutOfRange("record range outside segment");
  }
  Bytes out(addr.length);
  if (addr.length > 0) {
    std::memcpy(out.data(), seg.data() + addr.offset, addr.length);
  }
  return out;
}

Bytes SegmentStorage::Serialize() const {
  BinaryWriter w;
  w.Reserve(SerializedSize());
  SerializeTo(&w);
  return w.Release();
}

size_t SegmentStorage::SerializedSize() const {
  size_t n = 4 * 8 + 8 + 12 * directory_.size();
  for (const auto& seg : segments_) n += 4 + seg.size();
  return n;
}

void SegmentStorage::SerializeTo(BinaryWriter* w) const {
  w->PutU64(segment_capacity_);
  w->PutU64(num_records_);
  w->PutU64(total_bytes_);
  w->PutU64(segments_.size());
  for (const auto& seg : segments_) w->PutBytes(seg);
  w->PutU64(directory_.size());
  for (const PhysicalAddress& addr : directory_) {
    w->PutU32(addr.segment);
    w->PutU32(addr.offset);
    w->PutU32(addr.length);
  }
}

Result<SegmentStorage> SegmentStorage::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  auto capacity = r.GetU64();
  auto records = r.GetU64();
  auto total = r.GetU64();
  auto count = r.GetU64();
  if (!capacity.ok() || !records.ok() || !total.ok() || !count.ok()) {
    return Status::Corruption("truncated storage snapshot");
  }
  // Each serialized segment carries at least a 4-byte length prefix, so a
  // claimed count larger than the bytes left is corrupt — reject before
  // looping rather than trusting an attacker-controlled allocation count.
  if (*count > r.remaining() / 4 + 1) {
    return Status::Corruption("storage snapshot segment count implausible");
  }
  // Physical addresses index segments with u32 offset/length, so a capacity
  // beyond u32 range can never have been written by Serialize — and the
  // constructor reserves `capacity` bytes, so it must be validated before
  // it drives an allocation.
  if (*capacity == 0 || *capacity > UINT32_MAX) {
    return Status::Corruption("storage snapshot capacity implausible");
  }
  SegmentStorage out(*capacity);
  out.segments_.clear();
  size_t segment_bytes = 0;
  for (uint64_t i = 0; i < *count; ++i) {
    auto seg = r.GetBytes();
    if (!seg.ok()) return Status::Corruption("truncated storage segment");
    segment_bytes += seg->size();
    out.segments_.push_back(std::move(*seg));
  }
  if (segment_bytes != *total) {
    return Status::Corruption("storage snapshot byte total mismatch");
  }
  auto dir_count = r.GetU64();
  if (!dir_count.ok()) {
    return Status::Corruption("truncated storage directory");
  }
  if (*dir_count != *records || *dir_count > r.remaining() / 12) {
    return Status::Corruption("storage snapshot directory count mismatch");
  }
  out.directory_.reserve(*dir_count);
  for (uint64_t i = 0; i < *dir_count; ++i) {
    auto seg_idx = r.GetU32();
    auto offset = r.GetU32();
    auto length = r.GetU32();
    if (!seg_idx.ok() || !offset.ok() || !length.ok()) {
      return Status::Corruption("truncated storage directory entry");
    }
    if (*seg_idx >= out.segments_.size() ||
        static_cast<size_t>(*offset) + *length >
            out.segments_[*seg_idx].size()) {
      return Status::Corruption("storage directory entry out of bounds");
    }
    out.directory_.push_back({*seg_idx, *offset, *length});
  }
  if (out.segments_.empty()) out.segments_.emplace_back();
  out.num_records_ = *records;
  out.total_bytes_ = *total;
  return out;
}

}  // namespace cloud
}  // namespace fresque
