#ifndef FRESQUE_ENGINE_PUBLICATION_TRACKER_H_
#define FRESQUE_ENGINE_PUBLICATION_TRACKER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/metrics.h"

namespace fresque {
namespace engine {

/// One record per publication: the report slices its collector writes
/// (dispatcher, checking node, merger) and its terminal state. A
/// publication completes by a direct call to Complete(): from the cloud
/// node once its install is durable (or failed), or from the checking
/// node or merger when it fails there. Callers block on a publication
/// with Wait(). Every method is safe from any thread; one mutex guards
/// the map.
class PublicationTracker {
 public:
  void DispatcherInit(uint64_t pn, double millis, uint64_t dummies)
      FRESQUE_EXCLUDES(mu_);
  void DispatcherPublish(uint64_t pn, double millis) FRESQUE_EXCLUDES(mu_);
  void Checking(uint64_t pn, double millis, uint64_t real)
      FRESQUE_EXCLUDES(mu_);
  void Merger(uint64_t pn, double millis, uint64_t removed)
      FRESQUE_EXCLUDES(mu_);

  /// Records the terminal state of `pn` (the first one wins) and wakes
  /// waiters.
  void Complete(uint64_t pn, Status status) FRESQUE_EXCLUDES(mu_);

  /// Blocks until `pn` reached a terminal state or `timeout` elapsed.
  /// Returns the publication's terminal status, or DeadlineExceeded.
  Status Wait(uint64_t pn, std::chrono::milliseconds timeout) const
      FRESQUE_EXCLUDES(mu_);

  uint64_t completed_ok() const FRESQUE_EXCLUDES(mu_);
  uint64_t completed_failed() const FRESQUE_EXCLUDES(mu_);

  /// Every publication's report, by pn.
  std::vector<PublishReport> Reports() const FRESQUE_EXCLUDES(mu_);

 private:
  struct Publication {
    PublishReport report;
    std::optional<Status> outcome;
  };

  Publication& Slot(uint64_t pn) FRESQUE_REQUIRES(mu_);
  /// `pn`'s terminal state, or null while it has none.
  const Status* OutcomeOf(uint64_t pn) const FRESQUE_REQUIRES(mu_);
  uint64_t CountCompleted(bool ok) const FRESQUE_EXCLUDES(mu_);

  mutable Mutex mu_;
  mutable CondVar cv_;
  std::map<uint64_t, Publication> pubs_ FRESQUE_GUARDED_BY(mu_);
};

}  // namespace engine
}  // namespace fresque

#endif  // FRESQUE_ENGINE_PUBLICATION_TRACKER_H_
