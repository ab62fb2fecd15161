#include "engine/randomer.h"

#include <utility>

namespace fresque {
namespace engine {

Randomer::Randomer(size_t capacity, crypto::SecureRandom* rng)
    : capacity_(capacity == 0 ? 1 : capacity), rng_(rng) {
  // Push appends before it evicts, so a full buffer briefly holds one
  // more than its capacity.
  buffer_.reserve(capacity_ + 1);
}

std::optional<net::Message> Randomer::Push(net::Message m) {
  buffer_.push_back(std::move(m));
  if (buffer_.size() <= capacity_) return std::nullopt;
  // Trigger: release one uniformly random resident.
  size_t victim = rng_->NextBounded(buffer_.size());
  std::swap(buffer_[victim], buffer_.back());
  net::Message out = std::move(buffer_.back());
  buffer_.pop_back();
  return out;
}

std::vector<net::Message> Randomer::Flush() {
  // Fisher-Yates shuffle so the terminal batch reveals nothing about
  // arrival order either.
  for (size_t i = buffer_.size(); i > 1; --i) {
    size_t j = rng_->NextBounded(i);
    std::swap(buffer_[i - 1], buffer_[j]);
  }
  // The randomer lives for one interval, so the buffer leaves with the
  // records instead of being replaced by a fresh one.
  std::vector<net::Message> out;
  out.swap(buffer_);
  return out;
}

}  // namespace engine
}  // namespace fresque
