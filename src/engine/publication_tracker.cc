#include "engine/publication_tracker.h"

#include <string>
#include <utility>

namespace fresque {
namespace engine {

void PublicationTracker::DispatcherInit(uint64_t pn, double millis,
                                        uint64_t dummies) {
  MutexLock lock(mu_);
  auto& r = Slot(pn).report;
  r.dispatcher_millis += millis;
  r.dummy_records = dummies;
}

void PublicationTracker::DispatcherPublish(uint64_t pn, double millis) {
  MutexLock lock(mu_);
  Slot(pn).report.dispatcher_millis += millis;
}

void PublicationTracker::Checking(uint64_t pn, double millis, uint64_t real) {
  MutexLock lock(mu_);
  auto& r = Slot(pn).report;
  r.checking_millis = millis;
  r.real_records = real;
}

void PublicationTracker::Merger(uint64_t pn, double millis,
                                uint64_t removed) {
  MutexLock lock(mu_);
  auto& r = Slot(pn).report;
  r.merger_millis = millis;
  r.removed_records = removed;
}

void PublicationTracker::Complete(uint64_t pn, Status status) {
  {
    MutexLock lock(mu_);
    auto& outcome = Slot(pn).outcome;
    if (outcome.has_value()) return;  // the first terminal state wins
    outcome = std::move(status);
  }
  cv_.NotifyAll();
}

Status PublicationTracker::Wait(uint64_t pn,
                                std::chrono::milliseconds timeout) const {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(mu_);
  for (;;) {
    if (const Status* st = OutcomeOf(pn)) return *st;
    if (cv_.WaitUntil(mu_, deadline) == std::cv_status::timeout) {
      if (const Status* st = OutcomeOf(pn)) return *st;
      return Status::DeadlineExceeded("publication " + std::to_string(pn) +
                                      " not completed within " +
                                      std::to_string(timeout.count()) + "ms");
    }
  }
}

uint64_t PublicationTracker::completed_ok() const {
  return CountCompleted(/*ok=*/true);
}

uint64_t PublicationTracker::completed_failed() const {
  return CountCompleted(/*ok=*/false);
}

std::vector<PublishReport> PublicationTracker::Reports() const {
  MutexLock lock(mu_);
  std::vector<PublishReport> out;
  out.reserve(pubs_.size());
  for (const auto& [pn, p] : pubs_) {
    (void)pn;
    out.push_back(p.report);
  }
  return out;
}

PublicationTracker::Publication& PublicationTracker::Slot(uint64_t pn) {
  auto& p = pubs_[pn];
  p.report.pn = pn;
  return p;
}

const Status* PublicationTracker::OutcomeOf(uint64_t pn) const {
  auto it = pubs_.find(pn);
  if (it == pubs_.end() || !it->second.outcome.has_value()) return nullptr;
  return &*it->second.outcome;
}

uint64_t PublicationTracker::CountCompleted(bool ok) const {
  MutexLock lock(mu_);
  uint64_t n = 0;
  for (const auto& [pn, p] : pubs_) {
    (void)pn;
    if (p.outcome.has_value() && p.outcome->ok() == ok) ++n;
  }
  return n;
}

}  // namespace engine
}  // namespace fresque
