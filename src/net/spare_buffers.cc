#include "net/spare_buffers.h"

#include <utility>

#include "net/message.h"

namespace fresque {
namespace net {

void SpareBuffers::Give(Bytes&& buffer) {
  buffer.clear();
  give_.push_back(std::move(buffer));
  if (give_.size() < kMaxBatch) return;
  MutexLock lock(mu_);
  full_.push_back(std::move(give_));  // leaves give_ empty
  if (!empty_.empty()) {
    give_.swap(empty_.back());
    empty_.pop_back();
  }
}

Bytes SpareBuffers::Take() {
  if (take_.empty()) {
    MutexLock lock(mu_);
    if (full_.empty()) return Bytes();
    empty_.push_back(std::move(take_));
    take_.swap(full_.back());
    full_.pop_back();
  }
  Bytes out = std::move(take_.back());
  take_.pop_back();
  return out;
}

}  // namespace net
}  // namespace fresque
