// WAL on-disk grammar (all integers little-endian):
//
//   segment file "wal-<base lsn, 10 digits>.log":
//     magic "FQWAL001" (8 bytes), u64 base_lsn, then frames back to back.
//
//   frame:
//     u32 crc        CRC32 over (len || body)
//     u32 len        body length, >= 9
//     body           u8 op, u64 lsn, op-specific payload
//
//   payloads:
//     kMeta          (1) f64 domain_min, f64 domain_max, f64 bin_width
//     kStart         (2) u64 pn
//     kRecordBatch   (3) u64 pn, u32 n, n x { u32 leaf, bytes e_record }
//     kInstall       (5) u64 pn, bytes publication
//
//   Only FRESQUE's `<leaf, e-record>` stream is logged. Ops 4 and 6 once
//   held PINED-RQ++'s tagged batches and installs; no writer emits them,
//   so they are unknown ops like any other id.
//
// LSNs are dense and strictly increasing in file order, so replay order is
// simply segment order. The crash model is a prefix truncation (the file
// is a prefix of the intended byte stream), so "torn" can only ever be ONE
// incomplete frame at the very end of the final segment: an incomplete
// frame header, a body shorter than its length field, or a CRC mismatch on
// the frame that ends exactly at EOF. Tolerated (and cut off) there,
// Corruption anywhere else — a bad CRC followed by more data, a
// structurally impossible length, bad magic, an unknown op or a
// non-increasing LSN are damage a crash cannot explain, and replaying past
// them would fabricate state.

#include "durability/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "durability/crc32.h"
#include "durability/io.h"
#include "obs/flight.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace fresque {
namespace durability {

namespace {

constexpr char kSegMagic[8] = {'F', 'Q', 'W', 'A', 'L', '0', '0', '1'};
constexpr size_t kSegHeaderSize = 16;
constexpr size_t kFrameHeaderSize = 8;  // crc + len
constexpr size_t kFrameBodyPrefix = 9;  // op + lsn
constexpr size_t kMaxFrameBody = 256u << 20;
/// Frames are staged in memory and written out once the stage reaches
/// this (or on Commit/rotation), so hot-path appends are memcpy-cheap.
constexpr size_t kStageBytes = 256u << 10;

void PutLE32(uint8_t* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<uint8_t>(v >> (8 * i));
}

void PutLE64(uint8_t* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint32_t GetLE32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t GetLE64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

Status Errno(const std::string& what, const std::string& path) {
  return Status::IOError(what + " " + path + ": " + std::strerror(errno));
}

std::string SegmentName(uint64_t base_lsn) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%010llu.log",
                static_cast<unsigned long long>(base_lsn));
  return name;
}

struct SegInfo {
  std::string path;
  uint64_t base_lsn = 0;
};

/// Finds wal-*.log files in `dir`, ordered by the base LSN encoded in the
/// file name (which is also replay order).
Result<std::vector<SegInfo>> ListSegments(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<SegInfo> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    unsigned long long base = 0;
    int consumed = 0;
    if (std::sscanf(name.c_str(), "wal-%10llu.log%n", &base, &consumed) != 1 ||
        static_cast<size_t>(consumed) != name.size()) {
      continue;
    }
    out.push_back({entry.path().string(), base});
  }
  if (ec) return Status::IOError("list " + dir + ": " + ec.message());
  std::sort(out.begin(), out.end(), [](const SegInfo& a, const SegInfo& b) {
    return a.base_lsn < b.base_lsn;
  });
  return out;
}

bool KnownOp(uint8_t op) {
  switch (static_cast<WalOp>(op)) {
    case WalOp::kMeta:
    case WalOp::kStart:
    case WalOp::kRecordBatch:
    case WalOp::kInstall:
      return true;
  }
  return false;
}

struct ScanResult {
  /// Byte offset where the last fully valid frame ends (never less than
  /// the header size for a well-formed segment).
  size_t valid_end = 0;
  uint64_t last_lsn = 0;
  uint64_t frames = 0;
  bool torn = false;
  size_t torn_bytes = 0;
};

/// Walks every frame of one segment image, stopping at the first torn or
/// invalid frame. `fn` (optional) receives each valid frame. Structural
/// impossibilities that a torn write cannot explain (bad magic with a full
/// header, an unknown op under a valid CRC, non-increasing LSNs) are
/// Corruption; everything else at the cut point is reported as torn.
Result<ScanResult> ScanSegment(
    const Bytes& data, const SegInfo& seg,
    const std::function<Status(Wal::Frame&&)>& fn) {
  ScanResult res;
  if (data.size() < kSegHeaderSize) {
    // The previous process died while writing the 16-byte header.
    res.torn = true;
    res.torn_bytes = data.size();
    return res;
  }
  if (!std::equal(std::begin(kSegMagic), std::end(kSegMagic),
                  reinterpret_cast<const char*>(data.data()))) {
    return Status::Corruption("bad WAL magic in " + seg.path);
  }
  if (GetLE64(data.data() + 8) != seg.base_lsn) {
    return Status::Corruption("WAL header/filename base LSN mismatch in " +
                              seg.path);
  }
  res.valid_end = kSegHeaderSize;
  uint64_t prev_lsn = seg.base_lsn == 0 ? 0 : seg.base_lsn - 1;
  size_t pos = kSegHeaderSize;
  while (pos < data.size()) {
    if (data.size() - pos < kFrameHeaderSize) break;  // torn header
    const uint32_t crc = GetLE32(data.data() + pos);
    const uint32_t len = GetLE32(data.data() + pos + 4);
    if (len < kFrameBodyPrefix || len > kMaxFrameBody) {
      // A truncation leaves every present byte intact, so a fully present
      // but impossible length field is damage, not an in-flight write.
      return Status::Corruption("impossible WAL frame length in " + seg.path);
    }
    if (len > data.size() - pos - kFrameHeaderSize) break;  // torn body
    const uint8_t* body = data.data() + pos + kFrameHeaderSize;
    uint8_t lenb[4];
    PutLE32(lenb, len);
    uint32_t actual = Crc32(lenb, sizeof(lenb));
    actual = Crc32(body, len, actual);
    if (actual != crc) {
      if (pos + kFrameHeaderSize + len < data.size()) {
        // More frames follow the mismatch: a torn write cannot be in the
        // middle of the stream. Refuse rather than silently drop them.
        return Status::Corruption("WAL frame CRC mismatch mid-segment in " +
                                  seg.path);
      }
      break;  // torn final write
    }
    const uint8_t op_raw = body[0];
    const uint64_t lsn = GetLE64(body + 1);
    if (!KnownOp(op_raw)) {
      return Status::Corruption("unknown WAL op " + std::to_string(op_raw) +
                                " in " + seg.path);
    }
    if (lsn <= prev_lsn) {
      return Status::Corruption("non-increasing WAL LSN in " + seg.path);
    }
    if (fn) {
      Wal::Frame frame;
      frame.lsn = lsn;
      frame.op = static_cast<WalOp>(op_raw);
      frame.body.assign(body + kFrameBodyPrefix, body + len);
      FRESQUE_RETURN_NOT_OK(fn(std::move(frame)));
    }
    prev_lsn = lsn;
    pos += kFrameHeaderSize + len;
    res.valid_end = pos;
    res.last_lsn = lsn;
    ++res.frames;
  }
  if (pos < data.size()) {
    res.torn = true;
    res.torn_bytes = data.size() - res.valid_end;
  }
  return res;
}

}  // namespace

const char* FsyncPolicyToString(FsyncPolicy p) {
  switch (p) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kIntervalMs:
      return "interval";
    case FsyncPolicy::kNever:
      return "never";
  }
  return "?";
}

Result<FsyncPolicy> ParseFsyncPolicy(const std::string& s,
                                     uint64_t* interval_ms) {
  if (s == "always") return FsyncPolicy::kAlways;
  if (s == "never") return FsyncPolicy::kNever;
  if (s == "interval") return FsyncPolicy::kIntervalMs;
  const std::string prefix = "interval:";
  if (s.rfind(prefix, 0) == 0) {
    char* end = nullptr;
    errno = 0;
    unsigned long long ms = std::strtoull(s.c_str() + prefix.size(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0' ||
        end == s.c_str() + prefix.size()) {
      return Status::InvalidArgument("bad fsync interval in \"" + s + "\"");
    }
    if (interval_ms != nullptr) *interval_ms = ms;
    return FsyncPolicy::kIntervalMs;
  }
  return Status::InvalidArgument(
      "unknown fsync policy \"" + s +
      "\" (want always|never|interval|interval:<ms>)");
}

const char* WalOpToString(WalOp op) {
  switch (op) {
    case WalOp::kMeta:
      return "meta";
    case WalOp::kStart:
      return "start";
    case WalOp::kRecordBatch:
      return "record-batch";
    case WalOp::kInstall:
      return "install";
  }
  return "?";
}

Result<WalMeta> DecodeWalMeta(const Bytes& body) {
  BinaryReader r(body);
  auto dmin = r.GetF64();
  auto dmax = r.GetF64();
  auto width = r.GetF64();
  if (!dmin.ok() || !dmax.ok() || !width.ok() || !r.exhausted()) {
    return Status::Corruption("bad WAL meta frame");
  }
  WalMeta m;
  m.domain_min = *dmin;
  m.domain_max = *dmax;
  m.bin_width = *width;
  return m;
}

Result<uint64_t> DecodeWalStart(const Bytes& body) {
  BinaryReader r(body);
  auto pn = r.GetU64();
  if (!pn.ok() || !r.exhausted()) {
    return Status::Corruption("bad WAL start frame");
  }
  return *pn;
}

Result<WalRecordBatch> DecodeWalRecordBatch(const Bytes& body) {
  BinaryReader r(body);
  auto pn = r.GetU64();
  auto n = r.GetU32();
  if (!pn.ok() || !n.ok()) {
    return Status::Corruption("bad WAL record batch header");
  }
  WalRecordBatch batch;
  batch.pn = *pn;
  // Each record takes at least its 8 header bytes: a larger count is
  // corrupt, and must not drive the reserve below.
  if (*n > r.remaining() / 8) {
    return Status::Corruption("truncated WAL record batch");
  }
  batch.records.reserve(*n);
  for (uint32_t i = 0; i < *n; ++i) {
    auto leaf = r.GetU32();
    auto len = r.GetU32();
    const size_t at = r.position();
    if (!leaf.ok() || !len.ok() || !r.Skip(*len).ok()) {
      return Status::Corruption("truncated WAL record batch");
    }
    batch.records.push_back(
        {*leaf, std::span<const uint8_t>(body.data() + at, *len)});
  }
  if (!r.exhausted()) {
    return Status::Corruption("trailing bytes in WAL record batch");
  }
  return batch;
}

Result<WalInstall> DecodeWalInstall(const Bytes& body) {
  BinaryReader r(body);
  auto pn = r.GetU64();
  auto publication = r.GetBytes();
  if (!pn.ok() || !publication.ok()) {
    return Status::Corruption("bad WAL install frame");
  }
  WalInstall ins;
  ins.pn = *pn;
  ins.publication = std::move(*publication);
  if (!r.exhausted()) {
    return Status::Corruption("trailing bytes in WAL install frame");
  }
  return ins;
}

Wal::Wal(WalOptions opts) : opts_(std::move(opts)) {}

Wal::~Wal() {
  MutexLock lock(mu_);
  if (fd_ >= 0) {
    // Best effort: push staged frames to the OS so a clean shutdown keeps
    // the tail. No fsync — destructors cannot report failures anyway and
    // Commit() is the durability point.
    (void)SealAllBatchesLocked();
    (void)WriteStageLocked();
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::unique_ptr<Wal>> Wal::Open(WalOptions opts) {
  if (opts.dir.empty()) {
    return Status::InvalidArgument("WalOptions.dir is empty");
  }
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(opts.dir, ec);
  if (ec) {
    return Status::IOError("create " + opts.dir + ": " + ec.message());
  }
  std::unique_ptr<Wal> wal(new Wal(std::move(opts)));
  MutexLock lock(wal->mu_);

  auto listed = ListSegments(wal->opts_.dir);
  if (!listed.ok()) return listed.status();
  for (const auto& seg : *listed) {
    wal->segments_.push_back({seg.path, seg.base_lsn});
  }

  if (wal->segments_.empty()) {
    FRESQUE_RETURN_NOT_OK(wal->OpenSegmentLocked(1));
    FRESQUE_RETURN_NOT_OK(SyncDir(wal->opts_.dir));
    wal->dir_unsynced_ = false;
    return wal;
  }

  // Reopen: find the end of the valid frame run in the final segment,
  // truncate any torn tail, and continue appending after it.
  const Segment last = wal->segments_.back();
  auto data = ReadFile(last.path);
  if (!data.ok()) return data.status();
  auto scan = ScanSegment(*data, {last.path, last.base_lsn}, nullptr);
  if (!scan.ok()) return scan.status();
  wal->next_lsn_ = scan->frames > 0
                       ? scan->last_lsn + 1
                       : (last.base_lsn > 0 ? last.base_lsn : 1);
  if (scan->torn) {
    wal->torn_bytes_discarded_ = scan->torn_bytes;
    if (::truncate(last.path.c_str(),
                   static_cast<off_t>(scan->valid_end)) != 0) {
      return Errno("truncate torn tail of", last.path);
    }
  }
  int fd = ::open(last.path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) return Errno("open", last.path);
  wal->fd_ = fd;
  wal->segment_written_ = scan->torn ? scan->valid_end : data->size();
  if (wal->segment_written_ < kSegHeaderSize) {
    // The torn tail was inside the header itself; rewrite it.
    uint8_t header[kSegHeaderSize];
    std::memcpy(header, kSegMagic, sizeof(kSegMagic));
    PutLE64(header + 8, last.base_lsn);
    if (::write(fd, header, sizeof(header)) !=
        static_cast<ssize_t>(sizeof(header))) {
      return Errno("rewrite header of", last.path);
    }
    wal->segment_written_ = kSegHeaderSize;
  }
  return wal;
}

Status Wal::OpenSegmentLocked(uint64_t base_lsn) {
  const std::string path = opts_.dir + "/" + SegmentName(base_lsn);
  int fd = ::open(path.c_str(),
                  O_CREAT | O_EXCL | O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("create segment", path);
  uint8_t header[kSegHeaderSize];
  std::memcpy(header, kSegMagic, sizeof(kSegMagic));
  PutLE64(header + 8, base_lsn);
  if (::write(fd, header, sizeof(header)) !=
      static_cast<ssize_t>(sizeof(header))) {
    ::close(fd);
    return Errno("write header of", path);
  }
  fd_ = fd;
  segment_written_ = kSegHeaderSize;
  synced_bytes_ = 0;
  segments_.push_back({path, base_lsn});
  ++segments_created_;
  dir_unsynced_ = true;
  ++dir_changes_;
  FRESQUE_FLIGHT_EVENT(kDurability, "wal segment opened", base_lsn,
                       segments_created_, 0);
  return Status::OK();
}

Status Wal::RotateLocked() {
  if (segment_written_ <= kSegHeaderSize) return Status::OK();  // empty
  FRESQUE_RETURN_NOT_OK(WriteStageLocked());
  // Seal: the closed segment never changes again. It is durable before
  // the next segment exists (unless the policy is kNever), so a crash
  // never leaves a newer segment beside an older one with a torn tail,
  // and later fsyncs only ever touch the active fd.
  if (opts_.fsync_policy != FsyncPolicy::kNever && fd_ >= 0 &&
      synced_bytes_ < segment_written_) {
    if (::fsync(fd_) != 0) return Errno("fsync sealed", segments_.back().path);
    ++fsyncs_;
  }
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  rotate_when_synced_ = false;
  return OpenSegmentLocked(next_lsn_);
}

Status Wal::WriteStageLocked() {
  if (stage_.empty()) return Status::OK();
  if (fd_ < 0) return Status::FailedPrecondition("wal is closed");
  size_t off = 0;
  while (off < stage_.size()) {
    ssize_t n = ::write(fd_, stage_.data() + off, stage_.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write", segments_.back().path);
    }
    off += static_cast<size_t>(n);
  }
  flushed_bytes_ += stage_.size();
  segment_written_ += stage_.size();
  stage_.clear();
  if (segment_written_ >= opts_.segment_bytes) return RotateLocked();
  return Status::OK();
}

Status Wal::AppendFrameLocked(WalOp op, std::span<const uint8_t> head,
                              std::span<const uint8_t> tail) {
  if (fd_ < 0) return Status::FailedPrecondition("wal is closed");
  const size_t payload = head.size() + tail.size();
  if (payload > kMaxFrameBody - kFrameBodyPrefix) {
    return Status::InvalidArgument("WAL frame payload too large");
  }
  const uint64_t lsn = next_lsn_;
  const uint32_t len = static_cast<uint32_t>(kFrameBodyPrefix + payload);
  uint8_t lenb[4];
  PutLE32(lenb, len);
  uint8_t prefix[kFrameBodyPrefix];
  prefix[0] = static_cast<uint8_t>(op);
  PutLE64(prefix + 1, lsn);
  uint32_t crc = Crc32(lenb, sizeof(lenb));
  crc = Crc32(prefix, sizeof(prefix), crc);
  crc = Crc32(head.data(), head.size(), crc);
  crc = Crc32(tail.data(), tail.size(), crc);
  uint8_t crcb[4];
  PutLE32(crcb, crc);

  stage_.insert(stage_.end(), crcb, crcb + sizeof(crcb));
  stage_.insert(stage_.end(), lenb, lenb + sizeof(lenb));
  stage_.insert(stage_.end(), prefix, prefix + sizeof(prefix));
  stage_.insert(stage_.end(), head.begin(), head.end());
  stage_.insert(stage_.end(), tail.begin(), tail.end());

  ++next_lsn_;
  ++frames_;
  if (stage_.size() >= kStageBytes) return WriteStageLocked();
  return Status::OK();
}

Wal::PendingBatch& Wal::OpenBatchLocked(uint64_t pn) {
  auto [it, fresh] = record_batches_.try_emplace(pn);
  if (fresh) {
    Bytes& body = it->second.body;
    body.swap(spare_body_);
    body.resize(12);  // u64 pn, u32 count
    PutLE64(body.data(), pn);
  }
  return it->second;
}

Status Wal::SealLocked(std::map<uint64_t, PendingBatch>::iterator it) {
  Bytes& body = it->second.body;
  PutLE32(body.data() + 8, it->second.count);
  ++record_batch_frames_;
  Status st = AppendFrameLocked(WalOp::kRecordBatch, body);
  body.clear();
  spare_body_.swap(body);
  record_batches_.erase(it);
  return st;
}

Status Wal::SealBatchLocked(uint64_t pn) {
  auto it = record_batches_.find(pn);
  return it == record_batches_.end() ? Status::OK() : SealLocked(it);
}

Status Wal::SealAllBatchesLocked() {
  while (!record_batches_.empty()) {
    FRESQUE_RETURN_NOT_OK(SealLocked(record_batches_.begin()));
  }
  return Status::OK();
}

Status Wal::AppendMeta(double domain_min, double domain_max,
                       double bin_width) {
  MutexLock lock(mu_);
  BinaryWriter w;
  w.PutF64(domain_min);
  w.PutF64(domain_max);
  w.PutF64(bin_width);
  return AppendFrameLocked(WalOp::kMeta, w.buffer());
}

Status Wal::AppendStart(uint64_t pn) {
  MutexLock lock(mu_);
  BinaryWriter w;
  w.PutU64(pn);
  return AppendFrameLocked(WalOp::kStart, w.buffer());
}

Status Wal::AppendRecords(uint64_t pn,
                          std::span<const cloud::LeafRecord> run) {
  MutexLock lock(mu_);
  const size_t cap = std::max<size_t>(1, opts_.batch_records);
  size_t i = 0;
  while (i < run.size()) {
    PendingBatch& batch = OpenBatchLocked(pn);
    for (; i < run.size() && batch.count < cap; ++i) {
      const std::span<const uint8_t> rec = run[i].e_record;
      const size_t at = batch.body.size();
      batch.body.resize(at + 8);
      PutLE32(batch.body.data() + at, run[i].leaf);
      PutLE32(batch.body.data() + at + 4, static_cast<uint32_t>(rec.size()));
      batch.body.insert(batch.body.end(), rec.begin(), rec.end());
      ++batch.count;
    }
    if (batch.count >= cap) FRESQUE_RETURN_NOT_OK(SealBatchLocked(pn));
  }
  return Status::OK();
}

Status Wal::AppendInstall(uint64_t pn, const Bytes& publication) {
  MutexLock lock(mu_);
  FRESQUE_RETURN_NOT_OK(SealBatchLocked(pn));
  // u64 pn and the publication's u32 length prefix; the publication
  // itself goes into the stage straight from its own buffer.
  uint8_t head[12];
  PutLE64(head, pn);
  PutLE32(head + 8, static_cast<uint32_t>(publication.size()));
  return AppendFrameLocked(WalOp::kInstall, head, publication);
}

Status Wal::FsyncLocked(bool force) {
  bool due = force;
  switch (opts_.fsync_policy) {
    case FsyncPolicy::kAlways:
      due = true;
      break;
    case FsyncPolicy::kIntervalMs: {
      const int64_t now = opts_.clock->NowNanos();
      if (now - last_fsync_nanos_ >=
          static_cast<int64_t>(opts_.fsync_interval_ms) * 1000000) {
        due = true;
      }
      break;
    }
    case FsyncPolicy::kNever:
      break;
  }
  if (!due) return Status::OK();
  if (fd_ < 0) return Status::FailedPrecondition("wal is closed");
  const int64_t fsync_start = telemetry::NowNanos();
  // The segment's directory entry first, so its fsynced frames cannot
  // vanish with it.
  if (dir_unsynced_) {
    FRESQUE_RETURN_NOT_OK(SyncDir(opts_.dir));
    dir_unsynced_ = false;
  }
  if (::fsync(fd_) != 0) return Errno("fsync", segments_.back().path);
  FRESQUE_HISTOGRAM_RECORD("wal.fsync_ns",
                           telemetry::NowNanos() - fsync_start);
  ++fsyncs_;
  synced_bytes_ = segment_written_;
  last_fsync_nanos_ = opts_.clock->NowNanos();
  // A rotation a truncation asked for: the segment is durable now.
  if (rotate_when_synced_) return RotateLocked();
  return Status::OK();
}

Status Wal::Commit() {
  MutexLock lock(mu_);
  const int64_t commit_start = telemetry::NowNanos();
  FRESQUE_RETURN_NOT_OK(SealAllBatchesLocked());
  FRESQUE_RETURN_NOT_OK(WriteStageLocked());
  FRESQUE_RETURN_NOT_OK(FsyncLocked(false));
  FRESQUE_HISTOGRAM_RECORD("wal.commit_ns",
                           telemetry::NowNanos() - commit_start);
  return Status::OK();
}

Status Wal::Flush() {
  MutexLock lock(mu_);
  FRESQUE_RETURN_NOT_OK(SealAllBatchesLocked());
  return WriteStageLocked();
}

Result<size_t> Wal::TruncateObsolete(uint64_t through_lsn) {
  std::vector<std::string> obsolete;
  bool sync_dir = false;
  uint64_t dir_changes = 0;
  {
    MutexLock lock(mu_);
    FRESQUE_RETURN_NOT_OK(SealAllBatchesLocked());
    FRESQUE_RETURN_NOT_OK(WriteStageLocked());
    // Seal the active segment so a later truncation can drop it. Sealing
    // an undurable segment would fsync it here, under mu_; its next fsync
    // (a due Commit(), which waits for the disk anyway) rotates it instead.
    if (opts_.fsync_policy == FsyncPolicy::kNever ||
        synced_bytes_ == segment_written_) {
      FRESQUE_RETURN_NOT_OK(RotateLocked());
    } else {
      rotate_when_synced_ = true;
    }
    // Segment i covers [base_i, base_{i+1} - 1]; it is obsolete once its
    // last frame is <= through_lsn. The active (last) segment never goes.
    while (segments_.size() > 1 &&
           segments_[1].base_lsn <= through_lsn + 1) {
      obsolete.push_back(segments_.front().path);
      segments_.erase(segments_.begin());
    }
    sync_dir = dir_unsynced_ || !obsolete.empty();
    dir_changes = dir_changes_;
  }
  // The disk waits, outside mu_. The obsolete segments are sealed and
  // durable, and the snapshot covering them is named by a MANIFEST.
  for (const std::string& path : obsolete) {
    if (::unlink(path.c_str()) != 0) return Errno("unlink", path);
  }
  if (sync_dir) FRESQUE_RETURN_NOT_OK(SyncDir(opts_.dir));
  MutexLock lock(mu_);
  segments_deleted_ += obsolete.size();
  if (dir_changes_ == dir_changes) dir_unsynced_ = false;
  return obsolete.size();
}

uint64_t Wal::last_lsn() const {
  MutexLock lock(mu_);
  return next_lsn_ - 1;
}

uint64_t Wal::flushed_bytes() const {
  MutexLock lock(mu_);
  return flushed_bytes_;
}

void Wal::FillMetrics(DurabilityMetrics* m) const {
  MutexLock lock(mu_);
  m->wal_frames = frames_;
  m->wal_record_batches = record_batch_frames_;
  m->wal_bytes = flushed_bytes_;
  m->wal_fsyncs = fsyncs_;
  m->wal_segments_created = segments_created_;
  m->wal_segments_deleted = segments_deleted_;
  m->wal_torn_bytes_discarded = torn_bytes_discarded_;
}

Result<Wal::ReplayStats> Wal::Replay(
    const std::string& dir, uint64_t after_lsn,
    const std::function<Status(const Frame&)>& fn) {
  auto listed = ListSegments(dir);
  if (!listed.ok()) return listed.status();
  ReplayStats stats;
  uint64_t prev_lsn = 0;
  for (size_t i = 0; i < listed->size(); ++i) {
    const SegInfo& seg = (*listed)[i];
    const bool is_last = i + 1 == listed->size();
    auto data = ReadFile(seg.path);
    if (!data.ok()) return data.status();
    auto deliver = [&](Frame&& frame) -> Status {
      if (prev_lsn != 0 && frame.lsn <= prev_lsn) {
        return Status::Corruption("WAL LSN went backwards across segments");
      }
      prev_lsn = frame.lsn;
      stats.last_lsn = frame.lsn;
      if (frame.lsn <= after_lsn) {
        ++stats.frames_skipped;
        return Status::OK();
      }
      ++stats.frames;
      return fn(frame);
    };
    auto scan = ScanSegment(*data, seg, deliver);
    if (!scan.ok()) return scan.status();
    if (scan->torn) {
      if (!is_last) {
        return Status::Corruption("torn frame inside non-final WAL segment " +
                                  seg.path);
      }
      stats.torn_tail = true;
      stats.torn_bytes = scan->torn_bytes;
    }
  }
  return stats;
}

}  // namespace durability
}  // namespace fresque
