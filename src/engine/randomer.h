#ifndef FRESQUE_ENGINE_RANDOMER_H_
#define FRESQUE_ENGINE_RANDOMER_H_

#include <optional>
#include <vector>

#include "crypto/chacha20.h"
#include "net/message.h"

namespace fresque {
namespace engine {

/// The randomer (paper §5.2): a fixed-size buffer that mixes real and
/// dummy e-records so their release order — and therefore arrival times at
/// the cloud — no longer tracks the true arrival distribution an informed
/// online attacker knows.
///
/// Push inserts the incoming record; once the buffer exceeds capacity the
/// trigger releases one *uniformly random* resident (possibly the new
/// one). Flush shuffles and empties the buffer at the end of the interval.
/// Capacity must exceed the publication's total dummy count with high
/// probability — use engine::RandomerBufferSize (S = alpha * T).
///
/// Thread-compatibility: deliberately unsynchronized. A Randomer is
/// confined to the checking node's thread (one per interval, inside
/// CheckingNodeImpl::IntervalState) and must never be shared across
/// threads without external locking — the buffer shuffle and the RNG it
/// borrows are both stateful.
class Randomer {
 public:
  /// `capacity` >= 1; `rng` must outlive the randomer.
  Randomer(size_t capacity, crypto::SecureRandom* rng);

  /// Inserts `m`. Returns the evicted record if the trigger fired.
  std::optional<net::Message> Push(net::Message m);

  /// Shuffles (Fisher-Yates) and returns all buffered records, emptying
  /// the buffer. The returned vector takes the buffer's memory along, so
  /// a randomer that is pushed to again allocates a new one.
  std::vector<net::Message> Flush();

  size_t size() const { return buffer_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_;
  crypto::SecureRandom* rng_;
  std::vector<net::Message> buffer_;
};

}  // namespace engine
}  // namespace fresque

#endif  // FRESQUE_ENGINE_RANDOMER_H_
