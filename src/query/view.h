#ifndef FRESQUE_QUERY_VIEW_H_
#define FRESQUE_QUERY_VIEW_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cloud/storage.h"
#include "common/bytes.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "index/index.h"
#include "index/overflow.h"

namespace fresque {
namespace query {

/// The immutable, fully-installed state of one publication: everything a
/// range query needs, frozen at install time. Construction happens once
/// inside CloudServer's install critical section; afterwards the object
/// is shared read-only between the server, every live QueryView, and any
/// in-flight scans — shared_ptr refcounts are its GC.
///
/// A publication is installed from its payload and keeps it as one
/// shared, immutable buffer: `evidence` points to it and `overflow` reads
/// its slots from it, so the overflow arrays exist once in memory
/// (DESIGN.md §12.5).
struct InstalledPublication {
  InstalledPublication(uint64_t pn_in, cloud::SegmentStorage storage_in,
                       index::HistogramIndex index_in,
                       index::OverflowArrays overflow_in,
                       std::vector<std::vector<cloud::PhysicalAddress>>
                           postings_in,
                       std::shared_ptr<const Bytes> evidence_in)
      : pn(pn_in),
        storage(std::move(storage_in)),
        index(std::move(index_in)),
        overflow(std::move(overflow_in)),
        postings(std::move(postings_in)),
        evidence(std::move(evidence_in)) {}

  const uint64_t pn;
  const cloud::SegmentStorage storage;
  const index::HistogramIndex index;
  const index::OverflowArrays overflow;
  /// Per-leaf physical addresses into `storage`.
  const std::vector<std::vector<cloud::PhysicalAddress>> postings;
  /// Verbatim publication payload (integrity evidence), the buffer
  /// `overflow` reads from; never null.
  const std::shared_ptr<const Bytes> evidence;
};

/// An immutable snapshot of the installed publications, identified by a
/// monotonically increasing epoch. Queries pin one view for their whole
/// scan: publications installed after the pin are invisible, replaced ones
/// stay readable until the last pinned view drops its reference. A view
/// never contains a half-installed publication by construction — entries
/// are added only from a completed install.
class QueryView {
 public:
  uint64_t epoch() const { return epoch_; }

  /// Sorted by publication number, ascending.
  const std::vector<std::shared_ptr<const InstalledPublication>>&
  publications() const {
    return pubs_;
  }

  /// Binary search by pn; null when absent.
  std::shared_ptr<const InstalledPublication> Find(uint64_t pn) const;

  size_t num_publications() const { return pubs_.size(); }

 private:
  friend class ViewManager;
  uint64_t epoch_ = 0;
  std::vector<std::shared_ptr<const InstalledPublication>> pubs_;
};

/// RCU-style publication handoff between the install path and readers.
///
/// The writer (Install) builds a fresh QueryView — copy-on-write of the
/// publication pointer vector — and swaps it in under a short mutex;
/// readers copy the current shared_ptr under the same mutex (pointer copy
/// only) and then scan with no lock held. Replaced views are garbage
/// collected by refcount as soon as the last reader unpins them; nothing
/// ever blocks on a long scan.
class ViewManager {
 public:
  ViewManager();

  /// The current snapshot. Never null (an empty view has epoch 0).
  std::shared_ptr<const QueryView> Current() const FRESQUE_EXCLUDES(mu_);

  /// Publishes a new view containing `pub` (replacing any previous entry
  /// with the same pn; readers holding older views keep the replaced
  /// publication alive until they finish). Returns the new epoch.
  uint64_t Install(std::shared_ptr<const InstalledPublication> pub)
      FRESQUE_EXCLUDES(mu_);

  uint64_t epoch() const FRESQUE_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::shared_ptr<const QueryView> current_ FRESQUE_GUARDED_BY(mu_);
  uint64_t next_epoch_ FRESQUE_GUARDED_BY(mu_) = 1;
};

}  // namespace query
}  // namespace fresque

#endif  // FRESQUE_QUERY_VIEW_H_
