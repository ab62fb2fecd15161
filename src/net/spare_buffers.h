#ifndef FRESQUE_NET_SPARE_BUFFERS_H_
#define FRESQUE_NET_SPARE_BUFFERS_H_

#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/hot.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace fresque {
namespace net {

/// Emptied record buffers on their way back to the thread that allocated
/// them.
///
/// A record's payload buffer is allocated by the dispatcher and consumed
/// by the cloud node on another thread. Instead of freeing it there (a
/// cross-thread free, which contends with the dispatcher's allocator), the
/// cloud node Give()s it back and the dispatcher Take()s it for the next
/// frame it creates. Buffers travel in batches of net::kMaxBatch: the
/// giver fills a private batch, and the taker drains a private batch, so
/// each side takes the mutex once per kMaxBatch buffers. The batch vectors
/// themselves are recycled too.
///
/// Threading: Give() must only be called from one thread at a time (the
/// giver, the cloud node's thread) and Take() from one thread at a time
/// (the taker, the dispatcher's thread; FresqueCollector's threading
/// contract applies). The two sides may run concurrently. The pool is
/// shared through SpareBuffersPtr, since its two ends live in objects that
/// die in no fixed order.
///
/// A given buffer is clear()ed, not zeroed: nothing reads past size(), and
/// its stale bytes never leave the process. The pool has no cap: it holds
/// at most the peak number of buffers in flight between taker and giver,
/// which the mailboxes bound, provided the taker takes for every buffer
/// that may come back.
class SpareBuffers {
 public:
  SpareBuffers() = default;
  SpareBuffers(const SpareBuffers&) = delete;
  SpareBuffers& operator=(const SpareBuffers&) = delete;

  /// Giver side: returns `buffer` (cleared, capacity kept) to the pool.
  /// It becomes takeable once the giver's batch fills.
  FRESQUE_HOT void Give(Bytes&& buffer) FRESQUE_EXCLUDES(mu_);

  /// Taker side: a buffer with size 0 that keeps its capacity, or an empty
  /// Bytes (no capacity) when no full batch has been given.
  FRESQUE_HOT Bytes Take() FRESQUE_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  /// Full batches the giver handed over, newest last.
  std::vector<std::vector<Bytes>> full_ FRESQUE_GUARDED_BY(mu_);
  /// Drained batch vectors the taker handed back for the giver to refill.
  std::vector<std::vector<Bytes>> empty_ FRESQUE_GUARDED_BY(mu_);
  // fresque-lint: allow(guarded-by) confined to the giver's thread
  std::vector<Bytes> give_;
  // fresque-lint: allow(guarded-by) confined to the taker's thread
  std::vector<Bytes> take_;
};

using SpareBuffersPtr = std::shared_ptr<SpareBuffers>;

}  // namespace net
}  // namespace fresque

#endif  // FRESQUE_NET_SPARE_BUFFERS_H_
