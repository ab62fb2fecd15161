#include "net/node.h"

#include <algorithm>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace fresque {
namespace net {

Node::Node(std::string name, MailboxPtr inbox, BatchHandler handler)
    : name_(std::move(name)),
      inbox_(std::move(inbox)),
      handler_(std::move(handler)) {
  auto* reg = telemetry::Registry::Global();
  busy_ns_ = reg->GetCounter("node." + name_ + ".busy_ns");
  idle_ns_ = reg->GetCounter("node." + name_ + ".idle_ns");
  blocked_ns_ = reg->GetCounter("node." + name_ + ".blocked_ns");
  // Per-node time-in-queue histogram: "queue.cn0.wait_ns" etc. The hook
  // only records into a relaxed-atomic histogram, as the queue contract
  // requires.
  telemetry::Histogram* wait =
      reg->GetHistogram("queue." + name_ + ".wait_ns");
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
  thread_ = std::thread([this] { Loop(); });
}

void Node::AccountTurn(int64_t popped_ns, int64_t done_ns,
                       uint64_t blocked_ns) {
  const uint64_t turn =
      done_ns > popped_ns ? static_cast<uint64_t>(done_ns - popped_ns) : 0;
  if (blocked_ns != 0) blocked_ns_->Add(blocked_ns);
  busy_ns_->Add(turn > blocked_ns ? turn - blocked_ns : 0);
}

void Node::Loop() {
  std::vector<Message> batch;
  batch.reserve(kMaxBatch);
  int64_t mark = telemetry::NowNanos();
  for (;;) {
    const size_t n = inbox_->PopBatch(&batch, kMaxBatch);
    const int64_t popped = telemetry::NowNanos();
    idle_ns_->Add(static_cast<uint64_t>(std::max<int64_t>(popped - mark, 0)));
    if (n == 0) break;  // closed and drained
    frames_.fetch_add(n, std::memory_order_relaxed);
    const uint64_t blocked_before = PushBlockedNanos();
    const bool keep = handler_(batch);
    // Destroying the popped frames (and any payload they still own) is
    // part of the turn's busy time.
    batch.clear();
    mark = telemetry::NowNanos();
    AccountTurn(popped, mark, PushBlockedNanos() - blocked_before);
    if (!keep) break;
  }
  running_.store(false, std::memory_order_release);
}

void Node::Join() {
  if (thread_.joinable()) thread_.join();
}

void Node::Stop() { inbox_->Close(); }

}  // namespace net
}  // namespace fresque
