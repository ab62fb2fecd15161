#ifndef FRESQUE_NET_MESSAGE_H_
#define FRESQUE_NET_MESSAGE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/queue.h"
#include "common/result.h"

namespace fresque {
namespace net {

/// Frame types exchanged between collector components and the cloud.
enum class MessageType : uint8_t {
  /// Data source / dispatcher -> computing node: one raw text line.
  kRawLine = 0,
  /// Computing node -> checking node: <leaf offset, e-record> pair, plus
  /// the collector-private dummy flag (stripped before the cloud).
  kTaggedRecord = 1,
  /// Checking node -> cloud: <leaf offset, e-record> of one publication.
  kCloudRecord = 2,
  /// Checker -> merger: a record removed to satisfy negative noise.
  kRemovedRecord = 3,
  /// Dispatcher -> computing nodes and checking node: interval over.
  kPublish = 4,
  /// Checking node -> computing nodes: previous publication flushed.
  kDone = 5,
  /// Dispatcher -> checking node: index template + PN for a new interval.
  kTemplateInit = 6,
  /// Checking node -> merger: the same template, forwarded.
  kTemplateForward = 7,
  /// Checking node -> merger: AL snapshot at end of interval.
  kAlSnapshot = 8,
  /// Checking node -> cloud: publication number opened.
  kPublicationStart = 9,
  /// Merger -> cloud: secure index + overflow arrays for a publication.
  kIndexPublication = 10,
  /// PINED-RQ++ collector -> cloud: matching table of a publication.
  kMatchingTable = 11,
  /// PINED-RQ++ collector -> cloud: `<random tag, e-record>` pair whose
  /// leaf stays hidden until the matching table is published.
  kCloudTaggedRecord = 12,
  /// Producer -> consumer: no more input, drain and stop. Always the last
  /// type: Deserialize rejects any id above it.
  kShutdown = 13,
};

const char* MessageTypeToString(MessageType t);

/// One frame. The envelope fields cover the hot-path cases; larger control
/// payloads (templates, indexes, AL snapshots) travel serialized in
/// `payload`.
struct Message {
  MessageType type = MessageType::kShutdown;
  /// Publication number the frame belongs to.
  uint64_t pn = 0;
  /// Leaf offset for record frames; random tag for PINED-RQ++ records.
  uint64_t leaf = 0;
  /// Collector-private dummy marker (paper's "special flag"); never set on
  /// frames addressed to the cloud.
  bool dummy = false;
  /// Monotonic (steady_clock) nanosecond stamp set when the frame's
  /// payload entered the pipeline, carried end-to-end so the final
  /// consumer can histogram true arrival→install latency. 0 = unstamped.
  /// Monotonic clocks are per-process, so the stamp is only meaningful
  /// within the process that set it (the in-process pipeline; across TCP
  /// it still measures bytes+frames but not latency).
  int64_t born_ns = 0;
  Bytes payload;

  /// Wire encoding; used by tests and by the frame-counting transports.
  Bytes Serialize() const;

  /// Appends the wire encoding to `*out` (same bytes as Serialize); a
  /// reused buffer makes repeated serialization allocation-free.
  void SerializeAppend(Bytes* out) const;

  /// Bytes SerializeAppend will append for this message.
  size_t SerializedSize() const { return 30 + payload.size(); }

  static Result<Message> Deserialize(const Bytes& data);
};

/// Bounded mailbox carrying frames between two components. Capacity gives
/// back-pressure like a bounded socket buffer.
using Mailbox = BoundedQueue<Message>;
using MailboxPtr = std::shared_ptr<Mailbox>;

/// Convenience: a mailbox with the default per-link capacity.
MailboxPtr MakeMailbox(size_t capacity = 4096);

/// The pipeline's one batch size: the most frames (or lines) any hop moves
/// per mailbox lock acquisition — a node's pop, a dispatcher or router
/// buffer's flush, a TCP egress write. A pop takes whatever is queued up
/// to this and never waits for more, so batches fill from natural queue
/// depth under load and a lone frame is handled the moment it arrives.
inline constexpr size_t kMaxBatch = 64;

}  // namespace net
}  // namespace fresque

#endif  // FRESQUE_NET_MESSAGE_H_
