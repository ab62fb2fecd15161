#ifndef FRESQUE_NET_NODE_H_
#define FRESQUE_NET_NODE_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/message.h"

namespace fresque {
namespace telemetry {
class Counter;
}  // namespace telemetry

namespace net {

/// One shared-nothing logical machine: a thread draining an inbox into a
/// handler. Components (dispatcher, computing node, checking node, merger,
/// cloud front-end) are handlers; wiring their mailboxes together forms
/// the cluster of Figure 6.
///
/// Each turn of the loop pops whatever is queued, up to kMaxBatch frames,
/// in one lock acquisition (PopBatch) and hands them to the handler
/// together; it never waits for a batch to fill. The loop stops when the
/// handler returns false or the inbox is closed and drained; components
/// decide themselves how to react to kShutdown (e.g. the checking node
/// waits for one per computing node).
///
/// Time accounting: every node owns three counters, registered when it is
/// built and shared with same-named nodes of other shards (like
/// `queue.<name>.wait_ns`). `node.<name>.idle_ns` is the time spent
/// inside the inbox pop, `node.<name>.blocked_ns` the time the handler
/// waited for room in a full downstream mailbox (PushBlockedNanos), and
/// `node.<name>.busy_ns` the rest of the handler's time, including
/// destroying the popped frames. The loop reads the clock twice per popped
/// batch, never per frame.
///
/// Thread-safety contract: the inbox (BoundedQueue) is the only
/// cross-thread channel — any thread may Push into it. The handler runs
/// exclusively on the node's own thread, so handler-owned state needs no
/// locking; `frames_` / `running_` are atomics readable from any thread.
/// Start() must be called exactly once, before any concurrent use of
/// Join()/Stop() (`started_` is intentionally unsynchronized: it is part
/// of the single-threaded setup phase).
class Node {
 public:
  /// Handler invoked with each batch the loop pops (size in
  /// [1, kMaxBatch]); returns false to stop the loop. The vector is
  /// owned by the loop and reused across iterations, so steady state
  /// costs no allocation; the handler may consume/move its elements
  /// freely (the loop clears it).
  using BatchHandler = std::function<bool(std::vector<Message>&)>;

  /// `handler` runs on the node's own thread. It must be callable until
  /// Join() returns.
  Node(std::string name, MailboxPtr inbox, BatchHandler handler);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  ~Node();

  /// Spawns the node thread. Call once.
  void Start();

  /// Blocks until the node loop exits. Idempotent.
  void Join();

  /// Closes the inbox, letting the loop drain and exit.
  void Stop();

  const std::string& name() const { return name_; }
  const MailboxPtr& inbox() const { return inbox_; }
  uint64_t frames_processed() const {
    return frames_.load(std::memory_order_relaxed);
  }

  /// True between Start() and the loop's exit — i.e. the node is still
  /// draining its inbox. False once the handler stopped the loop or the
  /// closed inbox drained dry.
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Current inbox depth; a persistently full inbox means this node is
  /// the pipeline's bottleneck.
  size_t queue_depth() const { return inbox_->size(); }

 private:
  void Loop();
  /// Adds one turn of the loop to the time counters: `popped_ns` is when
  /// the pop returned, `done_ns` when the handler's turn ended, and
  /// `blocked_ns` the handler's PushBlockedNanos() delta.
  void AccountTurn(int64_t popped_ns, int64_t done_ns, uint64_t blocked_ns);

  std::string name_;
  MailboxPtr inbox_;
  BatchHandler handler_;
  telemetry::Counter* busy_ns_ = nullptr;
  telemetry::Counter* idle_ns_ = nullptr;
  telemetry::Counter* blocked_ns_ = nullptr;
  std::thread thread_;
  std::atomic<uint64_t> frames_{0};
  std::atomic<bool> running_{false};
  bool started_ = false;
};

}  // namespace net
}  // namespace fresque

#endif  // FRESQUE_NET_NODE_H_
