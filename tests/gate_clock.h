#ifndef FRESQUE_TESTS_GATE_CLOCK_H_
#define FRESQUE_TESTS_GATE_CLOCK_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/clock.h"

namespace fresque {

/// A clock that holds every caller while it is closed. A SnapshotManager
/// reads its clock only on the thread that writes, when a write starts
/// and when it ends, so a closed gate holds a background write in flight
/// before it touches the disk.
class GateClock : public Clock {
 public:
  int64_t NowNanos() const override {
    std::unique_lock<std::mutex> lock(mu_);
    ++waiting_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
    --waiting_;
    return SystemClock::Global()->NowNanos();
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  /// Returns once a caller is held at the closed gate.
  void AwaitHeld() const {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return waiting_ > 0 && !open_; });
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool open_ = true;
  mutable int waiting_ = 0;
};

}  // namespace fresque

#endif  // FRESQUE_TESTS_GATE_CLOCK_H_
