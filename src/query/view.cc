#include "query/view.h"

#include <algorithm>

#include "telemetry/telemetry.h"

namespace fresque {
namespace query {

std::shared_ptr<const InstalledPublication> QueryView::Find(
    uint64_t pn) const {
  auto it = std::lower_bound(
      pubs_.begin(), pubs_.end(), pn,
      [](const std::shared_ptr<const InstalledPublication>& p, uint64_t v) {
        return p->pn < v;
      });
  if (it == pubs_.end() || (*it)->pn != pn) return nullptr;
  return *it;
}

ViewManager::ViewManager() {
  MutexLock lock(mu_);
  current_ = std::make_shared<const QueryView>();
}

std::shared_ptr<const QueryView> ViewManager::Current() const {
  MutexLock lock(mu_);
  return current_;
}

uint64_t ViewManager::Install(std::shared_ptr<const InstalledPublication> pub) {
  MutexLock lock(mu_);
  // fresque-lint: allow(hot-alloc) copy-on-write view swap runs once per publication install
  auto next = std::make_shared<QueryView>();
  next->pubs_.reserve(current_->pubs_.size() + 1);
  bool placed = false;
  for (const auto& p : current_->pubs_) {
    if (!placed && pub->pn <= p->pn) {
      next->pubs_.push_back(pub);
      placed = true;
      if (p->pn == pub->pn) continue;  // replace
    }
    next->pubs_.push_back(p);
  }
  if (!placed) next->pubs_.push_back(std::move(pub));
  next->epoch_ = next_epoch_++;
  FRESQUE_COUNTER_ADD("query.view.installs", 1);
  current_ = std::move(next);
  return current_->epoch();
}

uint64_t ViewManager::epoch() const {
  MutexLock lock(mu_);
  return current_->epoch();
}

}  // namespace query
}  // namespace fresque
