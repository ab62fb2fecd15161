#include "net/tcp_bridge.h"

#include <vector>

#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace fresque {
namespace net {

TcpEgress::TcpEgress(TcpConnection conn, size_t mailbox_capacity)
    : conn_(std::move(conn)), mailbox_(MakeMailbox(mailbox_capacity)) {}

Result<std::unique_ptr<TcpEgress>> TcpEgress::Connect(
    uint16_t port, size_t mailbox_capacity) {
  auto conn = TcpConnect(port);
  if (!conn.ok()) return conn.status();
  auto egress = std::unique_ptr<TcpEgress>(
      new TcpEgress(std::move(*conn), mailbox_capacity));
  egress->thread_ = std::thread([raw = egress.get()] { raw->Pump(); });
  return egress;
}

TcpEgress::~TcpEgress() { Shutdown(); }

void TcpEgress::Pump() {
  // Drain the mailbox in batches and flush each as one gathered write:
  // under load one syscall covers dozens of frames. PopBatch returns the
  // moment a single frame is available, so sparse traffic still goes out
  // immediately.
  std::vector<Message> batch;
  batch.reserve(kMaxBatch);
  for (;;) {
    batch.clear();
    if (mailbox_->PopBatch(&batch, kMaxBatch) == 0) {
      return;  // mailbox closed and drained
    }
    // Nothing after a kShutdown frame may reach the peer (the receiving
    // pump stops at it anyway): truncate the batch there.
    size_t n = batch.size();
    bool is_shutdown = false;
    for (size_t i = 0; i < n; ++i) {
      if (batch[i].type == MessageType::kShutdown) {
        is_shutdown = true;
        n = i + 1;
        break;
      }
    }
    Status st = conn_.SendBatch(batch.data(), n);
    if (!st.ok()) {
      MutexLock lock(mu_);
      if (first_error_.ok()) {
        first_error_ = st;
        FRESQUE_LOG(Warn) << "tcp egress: " << st.ToString();
      }
    }
    if (is_shutdown) {
      // Frames behind the kShutdown — the batch remainder plus whatever
      // is still in the mailbox — can never be delivered. Count them
      // instead of discarding silently: a nonzero count means someone
      // pushed after initiating shutdown.
      uint64_t dropped = batch.size() - n;
      while (mailbox_->TryPop().has_value()) ++dropped;
      if (dropped > 0) {
        dropped_after_shutdown_.fetch_add(dropped, std::memory_order_relaxed);
        FRESQUE_COUNTER_ADD("net.egress.dropped_after_shutdown",
                            static_cast<int64_t>(dropped));
        FRESQUE_LOG(Warn) << "tcp egress: dropped " << dropped
                          << " frame(s) queued after kShutdown";
      }
      return;
    }
  }
}

Status TcpEgress::first_error() const {
  MutexLock lock(mu_);
  return first_error_;
}

void TcpEgress::Shutdown() {
  mailbox_->Close();
  if (thread_.joinable()) thread_.join();
  conn_.Close();
}

TcpIngress::TcpIngress(TcpListener listener, MailboxPtr sink)
    : listener_(std::move(listener)), sink_(std::move(sink)) {}

Result<std::unique_ptr<TcpIngress>> TcpIngress::Listen(MailboxPtr sink) {
  auto listener = TcpListener::Bind();
  if (!listener.ok()) return listener.status();
  return std::unique_ptr<TcpIngress>(
      new TcpIngress(std::move(*listener), std::move(sink)));
}

TcpIngress::~TcpIngress() { Join(); }

void TcpIngress::Start() {
  thread_ = std::thread([this] { Pump(); });
}

void TcpIngress::Pump() {
  auto conn = listener_.Accept();
  if (!conn.ok()) {
    MutexLock lock(mu_);
    first_error_ = conn.status();
    return;
  }
  for (;;) {
    auto m = conn->Receive();
    if (!m.ok()) {
      if (m.status().code() != StatusCode::kCancelled) {
        MutexLock lock(mu_);
        if (first_error_.ok()) first_error_ = m.status();
      }
      return;  // peer closed (or errored)
    }
    bool is_shutdown = m->type == MessageType::kShutdown;
    sink_->Push(std::move(*m));
    if (is_shutdown) return;
  }
}

Status TcpIngress::first_error() const {
  MutexLock lock(mu_);
  return first_error_;
}

void TcpIngress::Join() {
  if (thread_.joinable()) thread_.join();
}

}  // namespace net
}  // namespace fresque
