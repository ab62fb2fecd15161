#include "net/node.h"

#include "telemetry/metrics.h"

namespace fresque {
namespace net {

Node::Node(std::string name, MailboxPtr inbox,
           std::function<bool(Message&&)> handler)
    : name_(std::move(name)),
      inbox_(std::move(inbox)),
      handler_(std::move(handler)) {
  AttachWaitHook();
}

Node::Node(std::string name, MailboxPtr inbox, BatchHandler handler)
    : name_(std::move(name)),
      inbox_(std::move(inbox)),
      batch_handler_(std::move(handler)) {
  AttachWaitHook();
}

void Node::AttachWaitHook() {
  // Per-node time-in-queue histogram: "queue.cn0.wait_ns" etc. The hook
  // only records into a relaxed-atomic histogram, as the queue contract
  // requires.
  telemetry::Histogram* wait =
      telemetry::Registry::Global()->GetHistogram("queue." + name_ +
                                                  ".wait_ns");
  inbox_->SetWaitHook([wait](int64_t ns) { wait->RecordNanos(ns); });
}

Node::~Node() {
  Stop();
  Join();
}

void Node::Start() {
  if (started_) return;
  started_ = true;
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] {
    if (batch_handler_) {
      BatchLoop();
    } else {
      Loop();
    }
  });
}

void Node::Loop() {
  for (;;) {
    auto msg = inbox_->Pop();
    if (!msg.has_value()) break;  // closed and drained
    frames_.fetch_add(1, std::memory_order_relaxed);
    if (!handler_(std::move(*msg))) break;
  }
  running_.store(false, std::memory_order_release);
}

void Node::BatchLoop() {
  std::vector<Message> batch;
  batch.reserve(kMaxBatch);
  for (;;) {
    batch.clear();
    const size_t n = inbox_->PopBatch(&batch, kMaxBatch);
    if (n == 0) break;  // closed and drained
    frames_.fetch_add(n, std::memory_order_relaxed);
    if (!batch_handler_(batch)) break;
  }
  running_.store(false, std::memory_order_release);
}

void Node::Join() {
  if (thread_.joinable()) thread_.join();
}

void Node::Stop() { inbox_->Close(); }

}  // namespace net
}  // namespace fresque
