#ifndef FRESQUE_COMMON_QUEUE_H_
#define FRESQUE_COMMON_QUEUE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/hot.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace fresque {

namespace internal {

/// Nanoseconds this thread has spent in BoundedQueue pushes waiting for a
/// full queue to make room. Read through PushBlockedNanos().
inline thread_local uint64_t push_blocked_ns = 0;

/// FIFO over one contiguous slot array, the storage of BoundedQueue.
///
/// Grows by doubling when a push finds it full, up to `limit` (the owning
/// queue's capacity, which bounds the depth), and never shrinks: once a
/// queue has reached its working depth, pushes and pops touch no
/// allocator. A std::deque would instead allocate and free a block every
/// few items as the queue slides forward. Popped slots keep their
/// moved-from value until a later push overwrites it. `T` must be default
/// constructible and movable.
template <typename T>
class Ring {
 public:
  explicit Ring(size_t limit) : limit_(limit == 0 ? 1 : limit) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& front() { return slots_[head_]; }

  void push_back(T&& item) {
    if (size_ == slots_.size()) Grow();
    size_t tail = head_ + size_;
    if (tail >= slots_.size()) tail -= slots_.size();
    slots_[tail] = std::move(item);
    ++size_;
  }

  void pop_front() {
    if (++head_ == slots_.size()) head_ = 0;
    --size_;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  void Grow() {
    const size_t cap = std::max(
        size_ + 1, std::min(limit_, std::max<size_t>(8, slots_.size() * 2)));
    // fresque-lint: allow(hot-alloc) warm-up only: the ring grows until it reaches the queue's working depth, then never again
    std::vector<T> next(cap);
    for (size_t i = 0; i < size_; ++i) {
      size_t at = head_ + i;
      if (at >= slots_.size()) at -= slots_.size();
      next[i] = std::move(slots_[at]);
    }
    slots_.swap(next);
    head_ = 0;
  }

  const size_t limit_;
  std::vector<T> slots_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace internal

/// Nanoseconds the calling thread has spent blocked in BoundedQueue pushes
/// (Push, PushBatch) on full queues, since the thread started. Sample it
/// before and after a stretch of work to learn how much of that stretch
/// was back-pressure. Only the not-full wait path reads the clock, so a
/// push that finds room costs nothing extra.
inline uint64_t PushBlockedNanos() { return internal::push_blocked_ns; }

/// Thread-safe bounded FIFO used as the mailbox between pipeline nodes.
///
/// Push blocks while full (back-pressure, like a TCP socket with a bounded
/// send window); Pop blocks while empty. Close() wakes all waiters: pushes
/// after Close fail, pops drain the remaining items then return nullopt.
///
/// The queue keeps lifetime counters (accepted pushes, rejects split by
/// cause, depth high-watermark) so operators can see where back-pressure
/// builds up — and tell it apart from shutdown — without attaching a
/// profiler.
///
/// Items live in a ring (internal::Ring) that grows to the deepest the
/// queue has been and stays there, so a warmed queue moves items without
/// touching the allocator; a large capacity costs nothing until used.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity)
      : capacity_(capacity), items_(capacity), stamps_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while the queue is full. Returns false iff the queue is closed.
  FRESQUE_HOT bool Push(T item) FRESQUE_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      WaitForRoomLocked();
      if (closed_) {
        ++rejected_closed_;
        return false;
      }
      items_.push_back(std::move(item));
      StampPushLocked();
      ++enqueued_;
      if (items_.size() > high_water_) high_water_ = items_.size();
    }
    not_empty_.NotifyOne();
    return true;
  }

  /// Pushes items[0..n) in FIFO order with one lock acquisition and one
  /// consumer wakeup per chunk instead of one per item. Blocks while the
  /// queue is full, so batches larger than the capacity land in chunks as
  /// the consumer frees space. Returns how many items were accepted —
  /// `n`, or fewer iff the queue was closed mid-batch (the rest are
  /// counted as rejected-closed and left in a valid moved-from state).
  FRESQUE_HOT size_t PushBatch(T* items, size_t n) FRESQUE_EXCLUDES(mu_) {
    size_t accepted = 0;
    while (accepted < n) {
      size_t chunk = 0;
      {
        MutexLock lock(mu_);
        WaitForRoomLocked();
        if (closed_) {
          rejected_closed_ += n - accepted;
          return accepted;
        }
        while (accepted < n && items_.size() < capacity_) {
          items_.push_back(std::move(items[accepted]));
          StampPushLocked();
          ++enqueued_;
          ++accepted;
          ++chunk;
        }
        if (items_.size() > high_water_) high_water_ = items_.size();
      }
      if (chunk > 1) {
        not_empty_.NotifyAll();
      } else if (chunk == 1) {
        not_empty_.NotifyOne();
      }
    }
    return accepted;
  }

  /// Blocks while empty. Returns nullopt once closed and drained.
  FRESQUE_HOT std::optional<T> Pop() FRESQUE_EXCLUDES(mu_) {
    std::optional<T> item;
    {
      MutexLock lock(mu_);
      while (!closed_ && items_.empty()) not_empty_.Wait(mu_);
      if (items_.empty()) return std::nullopt;
      item = std::move(items_.front());
      items_.pop_front();
      StampPopLocked();
    }
    not_full_.NotifyOne();
    return item;
  }

  /// Pops up to `max` items into `*out` (appended) with one lock
  /// acquisition. Blocks until at least one item is available, then takes
  /// whatever is queued up to `max` and returns without waiting for more:
  /// under load batches fill from natural queue depth, and an idle-queue
  /// pop returns the moment one item arrives. Returns the number popped;
  /// 0 means closed-and-drained (or `max == 0`), the terminal state.
  FRESQUE_HOT size_t PopBatch(std::vector<T>* out, size_t max)
      FRESQUE_EXCLUDES(mu_) {
    if (max == 0) return 0;
    size_t popped = 0;
    {
      MutexLock lock(mu_);
      while (!closed_ && items_.empty()) not_empty_.Wait(mu_);
      while (popped < max && !items_.empty()) {
        out->push_back(std::move(items_.front()));
        items_.pop_front();
        StampPopLocked();
        ++popped;
      }
    }
    if (popped > 1) {
      not_full_.NotifyAll();
    } else if (popped == 1) {
      not_full_.NotifyOne();
    }
    return popped;
  }

  /// Non-blocking pop.
  std::optional<T> TryPop() FRESQUE_EXCLUDES(mu_) {
    std::optional<T> item;
    {
      MutexLock lock(mu_);
      if (items_.empty()) return std::nullopt;
      item = std::move(items_.front());
      items_.pop_front();
      StampPopLocked();
    }
    not_full_.NotifyOne();
    return item;
  }

  /// After Close, pushes fail and pops drain then return nullopt.
  void Close() FRESQUE_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

  bool closed() const FRESQUE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return closed_;
  }

  size_t size() const FRESQUE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

  /// Items accepted over the queue's lifetime.
  uint64_t enqueued() const FRESQUE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return enqueued_;
  }

  /// Pushes that failed because the queue was closed — expected during
  /// shutdown, alarming mid-run.
  uint64_t rejected_closed() const FRESQUE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return rejected_closed_;
  }

  /// Deepest the queue has ever been; `== capacity()` means producers
  /// have hit back-pressure at least once.
  size_t high_watermark() const FRESQUE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return high_water_;
  }

  /// Attaches a time-in-queue observer: `hook(wait_ns)` fires on pop
  /// with the nanoseconds the item spent enqueued (monotonic clock).
  /// Systematically sampled — every `kWaitSampleStride`-th item is
  /// stamped, the rest pay one ring slot and no clock read — because the
  /// clock reads sit inside the queue critical section, where on the
  /// contended hops (k producers into the checking node) they would
  /// serialize the whole pipeline. Arrivals are oblivious to the stride,
  /// so the sampled waits are an unbiased draw of the distribution; only
  /// hooks see the sampling, the queue's own accounting stays exact.
  /// Existing callers with no hook attached pay nothing. Items already
  /// enqueued are stamped "now", so their reported wait starts at attach
  /// time. The hook runs under the queue lock: keep it cheap and
  /// lock-free (a relaxed-atomic histogram record is fine), and never
  /// touch this queue from inside it. Passing nullptr detaches.
  static constexpr uint64_t kWaitSampleStride = 64;

  void SetWaitHook(std::function<void(int64_t)> hook) FRESQUE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    wait_hook_ = std::move(hook);
    stamps_.clear();
    if (wait_hook_) {
      const int64_t now = NowNs();
      for (size_t i = 0; i < items_.size(); ++i) {
        stamps_.push_back(int64_t{now});
      }
    }
  }

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Blocks while the queue is full and open, adding the wait to the
  /// calling thread's PushBlockedNanos().
  void WaitForRoomLocked() FRESQUE_REQUIRES(mu_) {
    if (closed_ || items_.size() < capacity_) return;
    const int64_t start = NowNs();
    while (!closed_ && items_.size() >= capacity_) not_full_.Wait(mu_);
    internal::push_blocked_ns += static_cast<uint64_t>(NowNs() - start);
  }

  void StampPushLocked() FRESQUE_REQUIRES(mu_) {
    if (wait_hook_) {
      // 0 marks an unsampled item (a real stamp is never 0 on a
      // monotonic clock that started in the past).
      stamps_.push_back(stamp_round_robin_++ % kWaitSampleStride == 0
                            ? NowNs()
                            : int64_t{0});
    }
  }

  void StampPopLocked() FRESQUE_REQUIRES(mu_) {
    if (wait_hook_ && !stamps_.empty()) {
      const int64_t stamp = stamps_.front();
      stamps_.pop_front();
      if (stamp != 0) wait_hook_(NowNs() - stamp);
    }
  }

  const size_t capacity_;
  mutable Mutex mu_;
  CondVar not_empty_;
  CondVar not_full_;
  internal::Ring<T> items_ FRESQUE_GUARDED_BY(mu_);
  /// Parallel enqueue stamps; non-empty only while a wait hook is set.
  internal::Ring<int64_t> stamps_ FRESQUE_GUARDED_BY(mu_);
  std::function<void(int64_t)> wait_hook_ FRESQUE_GUARDED_BY(mu_);
  uint64_t stamp_round_robin_ FRESQUE_GUARDED_BY(mu_) = 0;
  uint64_t enqueued_ FRESQUE_GUARDED_BY(mu_) = 0;
  uint64_t rejected_closed_ FRESQUE_GUARDED_BY(mu_) = 0;
  size_t high_water_ FRESQUE_GUARDED_BY(mu_) = 0;
  bool closed_ FRESQUE_GUARDED_BY(mu_) = false;
};

}  // namespace fresque

#endif  // FRESQUE_COMMON_QUEUE_H_
