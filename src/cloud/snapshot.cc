// CloudServer snapshot persistence: one binary file holding the state of
// every publication, or of a chosen subset; a server loads from one file
// or from several that hold disjoint publications. Format (little-endian,
// length-prefixed):
//   magic "FQSNAP02"
//   binning: f64 dmin, f64 dmax, f64 width
//   u64 publication count, then per publication:
//     u64 pn, u8 published
//     bytes storage snapshot
//     open state:    u64 metadata groups { u32 leaf, u64 n, n addresses }
//                    u64 tagged count { u64 tag, address }
//     published state: bytes index, bytes overflow, bytes evidence,
//                      u64 leaves { u64 n, n addresses }
// Addresses encode as u32 segment, u32 offset, u32 length.
//
// A published entry with evidence stores its index and overflow twice,
// alone and inside the evidence. Loading checks that the two agree, so
// queries never serve overflow bytes the evidence does not cover, and then
// keeps only the evidence: the restored overflow arrays read from it, as a
// live install's do. An entry without evidence (a publication installed
// without its payload) keeps its stored overflow bytes as the arrays'
// buffer.

#include <algorithm>
#include <fstream>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "cloud/server.h"

namespace fresque {
namespace cloud {

namespace {

constexpr char kMagic[8] = {'F', 'Q', 'S', 'N', 'A', 'P', '0', '2'};

void PutAddress(BinaryWriter* w, const PhysicalAddress& a) {
  w->PutU32(a.segment);
  w->PutU32(a.offset);
  w->PutU32(a.length);
}

bool SameBytes(std::span<const uint8_t> a, std::span<const uint8_t> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

/// An installed publication's index, overflow arrays and evidence, as
/// LoadSnapshotFile rebuilds them from one published entry.
struct Restored {
  net::IndexPublication pub;
  std::shared_ptr<const Bytes> evidence;
};

Result<Restored> RestorePublication(uint64_t pn,
                                    std::span<const uint8_t> index_bytes,
                                    std::span<const uint8_t> overflow_bytes,
                                    std::span<const uint8_t> evidence) {
  if (evidence.empty()) {
    auto idx = index::HistogramIndex::Deserialize(
        Bytes(index_bytes.begin(), index_bytes.end()));
    if (!idx.ok()) return idx.status();
    auto buffer = std::make_shared<const Bytes>(overflow_bytes.begin(),
                                                overflow_bytes.end());
    auto ovf = index::OverflowArrays::View(buffer, 0, buffer->size());
    if (!ovf.ok()) return ovf.status();
    return Restored{net::IndexPublication(std::move(idx).ValueOrDie(),
                                          std::move(ovf).ValueOrDie()),
                    nullptr};
  }
  auto buffer = std::make_shared<const Bytes>(evidence.begin(), evidence.end());
  auto seg = net::SplitIndexPublication(*buffer);
  if (!seg.ok()) return seg.status();
  if (!SameBytes(seg->index, index_bytes) ||
      !SameBytes(seg->overflow, overflow_bytes)) {
    return Status::Corruption("snapshot publication " + std::to_string(pn) +
                              ": stored index or overflow differs from its "
                              "evidence");
  }
  auto pub = net::DecodeSharedIndexPublication(buffer);
  if (!pub.ok()) return pub.status();
  return Restored{std::move(pub).ValueOrDie(), std::move(buffer)};
}

Result<PhysicalAddress> GetAddress(BinaryReader* r) {
  auto seg = r->GetU32();
  auto off = r->GetU32();
  auto len = r->GetU32();
  if (!seg.ok() || !off.ok() || !len.ok()) {
    return Status::Corruption("truncated address");
  }
  PhysicalAddress a;
  a.segment = *seg;
  a.offset = *off;
  a.length = *len;
  return a;
}

}  // namespace

std::vector<CloudServer::SnapshotEntry> CloudServer::CutSnapshot(
    const PublicationFilter& which) const {
  std::vector<SnapshotEntry> cut;
  MutexLock lock(mu_);
  for (const auto& [pn, pub] : publications_) {
    if (which && !which(pn, pub.published())) continue;
    SnapshotEntry& entry = cut.emplace_back();
    entry.pn = pn;
    if (pub.published()) {
      entry.installed = pub.installed;
      continue;
    }
    size_t size = 8 + 1 + 4 + pub.storage.SerializedSize() + 8 + 8 +
                  20 * pub.tagged.size();
    for (const auto& group : pub.metadata) size += 12 + 12 * group.second.size();
    BinaryWriter w;
    w.Reserve(size);
    w.PutU64(pn);
    w.PutU8(0);
    w.PutU32(static_cast<uint32_t>(pub.storage.SerializedSize()));
    pub.storage.SerializeTo(&w);
    w.PutU64(pub.metadata.size());
    for (const auto& [leaf, addrs] : pub.metadata) {
      w.PutU32(leaf);
      w.PutU64(addrs.size());
      for (const auto& a : addrs) PutAddress(&w, a);
    }
    w.PutU64(pub.tagged.size());
    for (const auto& [tag, addr] : pub.tagged) {
      w.PutU64(tag);
      PutAddress(&w, addr);
    }
    entry.open = w.Release();
  }
  return cut;
}

Bytes CloudServer::EncodeSnapshot(std::span<const SnapshotEntry> entries) const {
  // Sized exactly up front, so the buffer is never copied while it grows.
  std::vector<Bytes> indexes;
  size_t size = sizeof(kMagic) + 3 * 8 + 8;
  for (const SnapshotEntry& entry : entries) {
    if (entry.installed == nullptr) {
      size += entry.open.size();
      continue;
    }
    const query::InstalledPublication& inst = *entry.installed;
    indexes.push_back(inst.index.Serialize());
    size += 8 + 1 + 4 + inst.storage.SerializedSize() + 4 +
            indexes.back().size() + 4 + inst.overflow.SerializedSize() + 4 +
            (inst.evidence != nullptr ? inst.evidence->size() : 0) + 8;
    for (const auto& posting : inst.postings) size += 8 + 12 * posting.size();
  }

  BinaryWriter w;
  w.Reserve(size);
  for (const char c : kMagic) w.PutU8(static_cast<uint8_t>(c));
  w.PutF64(binning_.domain_min());
  w.PutF64(binning_.domain_max());
  w.PutF64(binning_.bin_width());
  w.PutU64(entries.size());
  size_t next_index = 0;
  for (const SnapshotEntry& entry : entries) {
    if (entry.installed == nullptr) {
      w.PutRaw(entry.open);
      continue;
    }
    const query::InstalledPublication& inst = *entry.installed;
    w.PutU64(entry.pn);
    w.PutU8(1);
    w.PutU32(static_cast<uint32_t>(inst.storage.SerializedSize()));
    inst.storage.SerializeTo(&w);
    w.PutBytes(indexes[next_index++]);
    w.PutU32(static_cast<uint32_t>(inst.overflow.SerializedSize()));
    inst.overflow.SerializeTo(&w);
    if (inst.evidence != nullptr) {
      w.PutBytes(*inst.evidence);
    } else {
      w.PutBytes(Bytes{});
    }
    w.PutU64(inst.postings.size());
    for (const auto& posting : inst.postings) {
      w.PutU64(posting.size());
      for (const auto& a : posting) PutAddress(&w, a);
    }
  }
  return w.Release();
}

Status CloudServer::SaveSnapshot(const std::string& path,
                                 const PublicationFilter& which) const {
  const Bytes data = EncodeSnapshot(CutSnapshot(which));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for write");
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  out.flush();
  if (!out) return Status::IOError("write failed for " + path);
  return Status::OK();
}

Result<std::unique_ptr<CloudServer>> CloudServer::LoadSnapshots(
    const std::vector<std::string>& paths) {
  if (paths.empty()) return Status::InvalidArgument("no snapshot file given");
  std::unique_ptr<CloudServer> server;
  for (const std::string& path : paths) {
    FRESQUE_RETURN_NOT_OK(LoadSnapshotFile(path, &server));
  }
  return server;
}

Status CloudServer::LoadSnapshotFile(const std::string& path,
                                     std::unique_ptr<CloudServer>* into) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IOError("cannot open " + path);
  std::streamsize size = in.tellg();
  in.seekg(0);
  Bytes data(static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(data.data()), size);
  if (!in) return Status::IOError("read failed for " + path);

  BinaryReader r(data);
  auto magic = r.GetRaw(sizeof(kMagic));
  if (!magic.ok() ||
      !std::equal(magic->begin(), magic->end(),
                  reinterpret_cast<const uint8_t*>(kMagic))) {
    return Status::Corruption("not a cloud snapshot: " + path);
  }
  auto dmin = r.GetF64();
  auto dmax = r.GetF64();
  auto width = r.GetF64();
  if (!dmin.ok() || !dmax.ok() || !width.ok()) {
    return Status::Corruption("truncated snapshot header");
  }
  if (*into == nullptr) {
    auto binning = index::DomainBinning::Create(*dmin, *dmax, *width);
    if (!binning.ok()) return binning.status();
    *into = std::make_unique<CloudServer>(std::move(binning).ValueOrDie());
  }
  CloudServer* server = into->get();
  if (*dmin != server->binning_.domain_min() ||
      *dmax != server->binning_.domain_max() ||
      *width != server->binning_.bin_width()) {
    return Status::Corruption("snapshot binning differs from the first: " +
                              path);
  }
  // The server is not visible to any other thread yet; the lock is
  // uncontended and exists so the thread-safety analysis can prove the
  // publications_ writes below.
  MutexLock lock(server->mu_);

  auto count = r.GetU64();
  if (!count.ok()) return Status::Corruption("truncated snapshot");
  // Every claimed element count below is cross-checked against the bytes
  // actually left in the file before it sizes an allocation, so a corrupt
  // or hostile snapshot produces a Status — never an OOM or a crash.
  if (*count > r.remaining() / 13) {  // pn + flag + storage prefix
    return Status::Corruption("snapshot publication count implausible");
  }
  for (uint64_t i = 0; i < *count; ++i) {
    auto pn = r.GetU64();
    auto published = r.GetU8();
    auto storage_bytes = r.GetBytes();
    if (!pn.ok() || !published.ok() || !storage_bytes.ok()) {
      return Status::Corruption("truncated publication header");
    }
    if (server->publications_.count(*pn) != 0) {
      return Status::Corruption("publication " + std::to_string(*pn) +
                                " appears twice in snapshot files (" + path +
                                ")");
    }
    Publication pub;
    auto storage = SegmentStorage::Deserialize(*storage_bytes);
    if (!storage.ok()) return storage.status();

    if (*published == 0) {
      pub.storage = std::move(*storage);
      auto groups = r.GetU64();
      if (!groups.ok()) return Status::Corruption("truncated metadata");
      if (*groups > r.remaining() / 12) {  // leaf + count per group
        return Status::Corruption("snapshot metadata group count implausible");
      }
      for (uint64_t g = 0; g < *groups; ++g) {
        auto leaf = r.GetU32();
        auto n = r.GetU64();
        if (!leaf.ok() || !n.ok()) {
          return Status::Corruption("truncated metadata group");
        }
        if (*n > r.remaining() / 12) {  // 12 bytes per address
          return Status::Corruption("snapshot metadata count implausible");
        }
        auto& addrs = pub.metadata[*leaf];
        addrs.reserve(*n);
        for (uint64_t j = 0; j < *n; ++j) {
          auto a = GetAddress(&r);
          if (!a.ok()) return a.status();
          if (!pub.storage.Contains(*a)) {
            return Status::Corruption("snapshot metadata address unbacked");
          }
          addrs.push_back(*a);
        }
      }
      auto tagged = r.GetU64();
      if (!tagged.ok()) return Status::Corruption("truncated tagged list");
      if (*tagged > r.remaining() / 20) {  // tag + address per entry
        return Status::Corruption("snapshot tagged count implausible");
      }
      for (uint64_t j = 0; j < *tagged; ++j) {
        auto tag = r.GetU64();
        auto a = GetAddress(&r);
        if (!tag.ok() || !a.ok()) {
          return Status::Corruption("truncated tagged entry");
        }
        if (!pub.storage.Contains(*a)) {
          return Status::Corruption("snapshot tagged address unbacked");
        }
        pub.tagged.emplace_back(*tag, *a);
      }
    } else {
      auto index_bytes = r.GetBytesView();
      auto overflow_bytes = r.GetBytesView();
      auto evidence = r.GetBytesView();
      auto leaves = r.GetU64();
      if (!index_bytes.ok() || !overflow_bytes.ok() || !evidence.ok() ||
          !leaves.ok()) {
        return Status::Corruption("truncated published state");
      }
      auto restored = RestorePublication(*pn, *index_bytes, *overflow_bytes,
                                         *evidence);
      if (!restored.ok()) return restored.status();
      if (*leaves > r.remaining() / 8) {  // one count per leaf
        return Status::Corruption("snapshot leaf count implausible");
      }
      std::vector<std::vector<PhysicalAddress>> postings(*leaves);
      for (uint64_t leaf = 0; leaf < *leaves; ++leaf) {
        auto n = r.GetU64();
        if (!n.ok()) return Status::Corruption("truncated postings");
        if (*n > r.remaining() / 12) {
          return Status::Corruption("snapshot posting count implausible");
        }
        postings[leaf].reserve(*n);
        for (uint64_t j = 0; j < *n; ++j) {
          auto a = GetAddress(&r);
          if (!a.ok()) return a.status();
          if (!storage->Contains(*a)) {
            return Status::Corruption("snapshot posting address unbacked");
          }
          postings[leaf].push_back(*a);
        }
      }
      // Re-freeze the publication and publish the view, so a restored
      // store serves lock-free queries exactly like a live one. The tag
      // filter is an install-time join accelerator and is not persisted;
      // a default (pass-everything) filter is correct here.
      pub.installed = std::make_shared<const query::InstalledPublication>(
          *pn, std::move(*storage), std::move(restored->pub.index),
          std::move(restored->pub.overflow), std::move(postings),
          std::move(restored->evidence), query::TagFilter());
      server->views_.Install(pub.installed);
    }
    server->publications_.emplace(*pn, std::move(pub));
  }
  if (!r.exhausted()) {
    return Status::Corruption("trailing bytes in snapshot " + path);
  }
  return Status::OK();
}

}  // namespace cloud
}  // namespace fresque
