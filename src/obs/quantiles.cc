#include "obs/quantiles.h"

#include <algorithm>
#include <cstring>
#include <thread>
#include <utility>

namespace fresque {
namespace obs {

namespace {

// Thread-to-stripe assignment: hash the thread id once per thread so each
// writer sticks to one stripe and concurrent writers spread out.
size_t StripeIndex() {
  static thread_local const size_t idx =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      StreamingQuantiles::kStripes;
  return idx;
}

}  // namespace

StreamingQuantiles::StreamingQuantiles() {
  levels_.resize(kMaxLevels);
  for (auto& level : levels_) {
    // Worst case between compactions: kLevelCapacity resident survivors
    // plus one full promotion from below plus one buffer fold.
    level.reserve(kLevelCapacity + kLevelCapacity / 2 + kBufferLen);
  }
}

void StreamingQuantiles::InsertMany(const uint64_t* values, size_t n) {
  Stripe& s = stripes_[StripeIndex()];
  uint64_t spill[kBufferLen];
  while (n > 0) {
    size_t took = 0;
    size_t spill_n = 0;
    {
      MutexLock lock(s.mu);
      took = std::min(n, kBufferLen - s.n);
      std::memcpy(s.buf.data() + s.n, values, took * sizeof(uint64_t));
      s.n += took;
      if (s.n == kBufferLen) {
        // Copy to the stack and release the stripe lock before touching
        // the shared hierarchy — stripe locks and mu_ are never nested.
        std::memcpy(spill, s.buf.data(), sizeof(spill));
        spill_n = kBufferLen;
        s.n = 0;
      }
    }
    count_.fetch_add(took, std::memory_order_relaxed);
    if (spill_n != 0) Merge(spill, spill_n);
    values += took;
    n -= took;
  }
}

void StreamingQuantiles::Merge(const uint64_t* samples, size_t n) {
  MutexLock lock(mu_);
  auto& l0 = levels_[0];
  l0.insert(l0.end(), samples, samples + n);
  for (size_t i = 0; i + 1 < kMaxLevels; ++i) {
    auto& cur = levels_[i];
    if (cur.size() < kLevelCapacity) break;
    std::sort(cur.begin(), cur.end());
    // Compact an even prefix: alternating survivors from a random offset
    // carry double weight; a leftover odd element stays at this level so
    // total weight is conserved exactly.
    const size_t pairs = cur.size() / 2;
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    const size_t offset = static_cast<size_t>(rng_ & 1);
    auto& up = levels_[i + 1];
    for (size_t p = 0; p < pairs; ++p) up.push_back(cur[2 * p + offset]);
    if (cur.size() % 2 != 0) {
      cur[0] = cur.back();
      cur.resize(1);
    } else {
      cur.clear();
    }
  }
}

void StreamingQuantiles::Collect(
    std::vector<std::pair<uint64_t, uint64_t>>* out) const {
  out->clear();
  for (size_t si = 0; si < stripes_.size(); ++si) {
    Stripe& s = stripes_[si];
    uint64_t buf[kBufferLen];
    size_t n = 0;
    {
      MutexLock lock(s.mu);
      n = s.n;
      std::memcpy(buf, s.buf.data(), n * sizeof(uint64_t));
    }
    for (size_t i = 0; i < n; ++i) out->emplace_back(buf[i], 1);
  }
  {
    MutexLock lock(mu_);
    for (size_t i = 0; i < kMaxLevels; ++i) {
      const uint64_t w = uint64_t{1} << i;
      for (uint64_t v : levels_[i]) out->emplace_back(v, w);
    }
  }
}

uint64_t StreamingQuantiles::Query(double q) const {
  std::vector<double> qs{q};
  return QueryMany(qs)[0];
}

std::vector<uint64_t> StreamingQuantiles::QueryMany(
    const std::vector<double>& qs) const {
  std::vector<std::pair<uint64_t, uint64_t>> items;
  Collect(&items);
  std::vector<uint64_t> out(qs.size(), 0);
  if (items.empty()) return out;
  std::sort(items.begin(), items.end());
  uint64_t total = 0;
  for (const auto& it : items) total += it.second;
  size_t cursor = 0;
  uint64_t seen = 0;
  for (size_t i = 0; i < qs.size(); ++i) {
    double q = qs[i];
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const auto target = static_cast<uint64_t>(q * static_cast<double>(total));
    while (cursor < items.size() && seen + items[cursor].second < target) {
      seen += items[cursor].second;
      ++cursor;
    }
    out[i] = items[std::min(cursor, items.size() - 1)].first;
  }
  return out;
}

uint64_t StreamingQuantiles::TotalWeight() const {
  std::vector<std::pair<uint64_t, uint64_t>> items;
  Collect(&items);
  uint64_t total = 0;
  for (const auto& it : items) total += it.second;
  return total;
}

void StreamingQuantiles::ResetForTest() {
  for (size_t si = 0; si < stripes_.size(); ++si) {
    Stripe& s = stripes_[si];
    MutexLock lock(s.mu);
    s.n = 0;
  }
  MutexLock lock(mu_);
  for (auto& level : levels_) level.clear();
  count_.store(0, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace fresque
