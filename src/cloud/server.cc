#include "cloud/server.h"

#include "obs/flight.h"
#include "query/scan.h"
#include "telemetry/telemetry.h"

namespace fresque {
namespace cloud {

CloudServer::CloudServer(index::DomainBinning binning, const Clock* clock)
    : binning_(std::move(binning)), clock_(clock) {}

Status CloudServer::StartPublication(uint64_t pn) {
  MutexLock lock(mu_);
  auto [it, inserted] = publications_.try_emplace(pn);
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("publication " + std::to_string(pn) +
                                 " already open");
  }
  return Status::OK();
}

Result<CloudServer::Publication*> CloudServer::Find(uint64_t pn) {
  auto it = publications_.find(pn);
  if (it == publications_.end()) {
    return Status::NotFound("unknown publication " + std::to_string(pn));
  }
  return &it->second;
}

Status CloudServer::IngestRecords(uint64_t pn,
                                  std::span<const LeafRecord> run) {
  MutexLock lock(mu_);
  auto pub = Find(pn);
  if (!pub.ok()) return pub.status();
  if ((*pub)->published()) {
    return Status::FailedPrecondition("publication already published");
  }
  Publication& p = **pub;
  for (size_t i = 0; i < run.size(); ++i) {
    // The payloads were written by other threads long ago (the randomer
    // held them); start the next one's cache miss during this append.
    if (i + 1 < run.size()) __builtin_prefetch(run[i + 1].e_record.data());
    const PhysicalAddress addr = p.storage.Append(run[i].e_record);
    p.metadata[run[i].leaf].push_back(addr);
  }
  return Status::OK();
}

Status CloudServer::IngestTagged(uint64_t pn, uint64_t tag,
                                 const Bytes& e_record) {
  MutexLock lock(mu_);
  auto pub = Find(pn);
  if (!pub.ok()) return pub.status();
  if ((*pub)->published()) {
    return Status::FailedPrecondition("publication already published");
  }
  PhysicalAddress addr = (*pub)->storage.Append(e_record);
  (*pub)->tagged.emplace_back(tag, addr);
  return Status::OK();
}

Result<MatchingStats> CloudServer::PublishIndexed(
    uint64_t pn, std::shared_ptr<const Bytes> payload) {
  return Publish(pn, std::move(payload), nullptr);
}

Result<MatchingStats> CloudServer::PublishIndexed(
    uint64_t pn, net::IndexPublication publication, Bytes raw_payload) {
  // fresque-lint: allow(hot-alloc) one buffer per publication install
  auto payload = std::make_shared<const Bytes>(std::move(raw_payload));
  // Outside the lock: the copy is compared byte for byte with the bytes
  // `publication` reads from before it replaces them.
  FRESQUE_RETURN_NOT_OK(publication.overflow.Rebase(payload));
  return InstallPublication(pn, std::move(publication), nullptr,
                            std::move(payload));
}

Result<MatchingStats> CloudServer::PublishWithMatchingTable(
    uint64_t pn, std::shared_ptr<const Bytes> payload,
    const index::MatchingTable& table) {
  return Publish(pn, std::move(payload), &table);
}

Result<MatchingStats> CloudServer::Publish(
    uint64_t pn, std::shared_ptr<const Bytes> payload,
    const index::MatchingTable* table) {
  // Outside the lock: the overflow arrays are indexed in place, no slot
  // is copied.
  auto publication = net::DecodeSharedIndexPublication(payload);
  if (!publication.ok()) return publication.status();
  return InstallPublication(pn, std::move(*publication), table,
                            std::move(payload));
}

Result<MatchingStats> CloudServer::InstallPublication(
    uint64_t pn, net::IndexPublication publication,
    const index::MatchingTable* table, std::shared_ptr<const Bytes> payload) {
  MutexLock lock(mu_);
  auto found = Find(pn);
  if (!found.ok()) return found.status();
  Publication* pub = *found;
  if (pub->published()) {
    return Status::FailedPrecondition("publication already published");
  }
  Stopwatch watch(clock_);
  const size_t num_leaves = publication.index.layout().num_leaves();
  // fresque-lint: allow(hot-alloc) install runs once per publication epoch, not per record
  std::vector<std::vector<PhysicalAddress>> postings(num_leaves);

  MatchingStats stats;
  stats.pn = pn;

  if (table == nullptr) {
    // FRESQUE matching: the metadata cache already groups addresses by
    // leaf; matching is a move per leaf.
    for (auto& [leaf, addrs] : pub->metadata) {
      if (leaf < num_leaves) {
        stats.records_matched += addrs.size();
        auto& posting = postings[leaf];
        posting.insert(posting.end(), addrs.begin(), addrs.end());
      }
    }
  } else {
    // PINED-RQ++ matching: re-read every record from storage ("disk") and
    // join its tag against the matching table. A tag with no table entry
    // simply joins to nothing — the record stays stored but unreachable,
    // like any dropped join row.
    for (const auto& [tag, addr] : pub->tagged) {
      auto bytes = pub->storage.Read(addr);
      if (!bytes.ok()) return bytes.status();
      auto leaf = table->Lookup(tag);
      if (leaf.ok() && *leaf < num_leaves) {
        postings[*leaf].push_back(addr);
        ++stats.records_matched;
      }
    }
  }

  // Freeze the publication. From here on its storage, index, overflow and
  // postings are immutable and shared with every QueryView epoch that
  // includes it; the open-phase metadata is destroyed (paper §5.3).
  // fresque-lint: allow(hot-alloc) one allocation per publication install, not per record
  pub->installed = std::make_shared<const query::InstalledPublication>(
      pn, std::move(pub->storage), std::move(publication.index),
      std::move(publication.overflow), std::move(postings),
      std::move(payload));
  pub->metadata.clear();
  pub->tagged.clear();
  views_.Install(pub->installed);
  FRESQUE_FLIGHT_EVENT(kPublication, "view epoch installed", pn,
                       views_.epoch(), stats.records_matched);

  stats.matching_millis = watch.ElapsedMillis();
  return stats;
}

Result<query::QueryResult> CloudServer::ExecuteQuery(
    const index::RangeQuery& q, const query::QueryContext& ctx) const {
  query::QueryResult result;
  std::shared_ptr<const query::QueryView> view;
  {
    // Snapshot point. Installs publish the view under this same mutex, so
    // inside the critical section every publication is in exactly one of
    // two states: open (its pairs copied out here) or installed (present
    // in `view`). No publication can be missed or seen twice, and no
    // half-installed state is observable.
    MutexLock lock(mu_);
    view = views_.Current();
    for (const auto& [pn, pub] : publications_) {
      if (pub.published()) continue;
      // Open publication: no index yet; filter the cached pairs one by
      // one on the (public) leaf interval.
      for (const auto& [leaf, addrs] : pub.metadata) {
        double lo = binning_.LeafLow(leaf);
        double hi = binning_.LeafHigh(leaf);
        if (hi <= q.lo || lo > q.hi) continue;
        for (const auto& addr : addrs) {
          auto bytes = pub.storage.Read(addr);
          if (!bytes.ok()) return bytes.status();
          result.unindexed_records.push_back({pn, std::move(*bytes)});
        }
      }
    }
  }
  // Installed publications: scanned against the pinned immutable view
  // with no server lock held — ingest and installs proceed concurrently.
  FRESQUE_RETURN_NOT_OK(query::ScanView(*view, q, ctx, &result));
  return result;
}

int64_t CloudServer::ApproximateCount(const index::RangeQuery& q) const {
  // Served purely from the immutable view: no lock, no record access.
  auto view = views_.Current();
  int64_t total = 0;
  for (const auto& pub : view->publications()) {
    total += pub->index.NoisyRangeCount(q);
  }
  return total;
}

std::shared_ptr<const query::QueryView> CloudServer::CurrentView() const {
  return views_.Current();
}

uint64_t CloudServer::view_epoch() const { return views_.epoch(); }

Result<Bytes> CloudServer::PublicationEvidence(uint64_t pn) const {
  auto pub = views_.Current()->Find(pn);
  if (pub == nullptr) {
    return Status::NotFound("publication " + std::to_string(pn) +
                            " is not installed");
  }
  return *pub->evidence;
}

Status CloudServer::ForEachStoredRecord(
    uint64_t pn,
    const std::function<Status(const PhysicalAddress&, const uint8_t*,
                               size_t)>& fn) const {
  std::shared_ptr<const query::InstalledPublication> installed;
  {
    MutexLock lock(mu_);
    auto it = publications_.find(pn);
    if (it == publications_.end()) {
      return Status::NotFound("unknown publication " + std::to_string(pn));
    }
    if (!it->second.published()) {
      // Open publication: storage still mutates under mu_, so iterate
      // inside the critical section.
      return it->second.storage.ForEachRecord(fn);
    }
    installed = it->second.installed;
  }
  // Installed storage is immutable; iterate without the lock.
  return installed->storage.ForEachRecord(fn);
}

size_t CloudServer::num_publications() const {
  MutexLock lock(mu_);
  return publications_.size();
}

size_t CloudServer::total_records() const {
  MutexLock lock(mu_);
  size_t t = 0;
  for (const auto& [pn, pub] : publications_) {
    (void)pn;
    t += pub.published() ? pub.installed->storage.num_records()
                         : pub.storage.num_records();
  }
  return t;
}

size_t CloudServer::total_bytes() const {
  MutexLock lock(mu_);
  size_t t = 0;
  for (const auto& [pn, pub] : publications_) {
    (void)pn;
    if (pub.published()) {
      t += pub.installed->storage.total_bytes();
      t += pub.installed->index.CountBytes();
      t += pub.installed->overflow.PayloadBytes();
    } else {
      t += pub.storage.total_bytes();
    }
  }
  return t;
}

}  // namespace cloud
}  // namespace fresque
