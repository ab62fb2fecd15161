#ifndef FRESQUE_ENGINE_FRESQUE_COLLECTOR_H_
#define FRESQUE_ENGINE_FRESQUE_COLLECTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/hot.h"
#include "common/result.h"
#include "crypto/key_manager.h"
#include "engine/config.h"
#include "engine/metrics.h"
#include "net/message.h"
#include "net/node.h"

namespace fresque {
namespace engine {

namespace internal {
class ComputingNodeImpl;
class CheckingNodeImpl;
class MergerImpl;
class DispatcherState;
class ReportSink;
class PublicationTracker;
}  // namespace internal

/// The FRESQUE collector (paper §5, Figure 6): dispatcher, k computing
/// nodes, checking node (randomer + checker + updater) and merger, wired
/// by bounded mailboxes, streaming `<leaf offset, e-record>` pairs to a
/// cloud inbox.
///
/// The caller's thread *is* the dispatcher: Ingest() round-robins raw
/// lines (and due dummy directives) to the computing nodes; Publish()
/// ends the interval asynchronously — publication work shifts to the
/// merger while the dispatcher immediately opens the next publication.
///
/// Thread-safety: Start/Ingest/SetIntervalProgress/Publish/Shutdown are
/// the dispatcher's calls and must not overlap — the round-robin cursor,
/// interval counters and dummy schedule are deliberately unsynchronized
/// dispatcher state. A call made on another thread than the previous one
/// must happen after that call returned (a join is enough; the sharded
/// pipeline starts collectors on threads it joins, then ingests on the
/// caller's). Metrics(), Reports(), the drop
/// counters and WaitForPublication() are safe from any thread at any
/// time: they read atomics or the annotated ReportSink /
/// PublicationTracker locks.
///
/// Publication lifecycle: every publication moves through
///   open -> ingest -> flush (kPublish barrier) -> publish (merger) ->
///   ack (kPublicationAck)
/// Shutdown() *drains*: the open interval is published first (if it
/// ingested anything), so no buffered record is lost at teardown.
/// WaitForPublication() blocks until a publication's terminal ack.
///
/// Typical driving loop:
///   collector.Start();
///   cloud_node.RouteAcksTo(collector.publication_acks());
///   for (...) collector.Ingest(line);
///   collector.Publish();          // as many intervals as desired
///   collector.Shutdown();         // drains: publishes the open interval
///   collector.WaitForPublication(pn);  // bound publication latency
class FresqueCollector {
 public:
  /// `cloud_inbox` is the mailbox of a CloudNode (or test double).
  FresqueCollector(CollectorConfig config, crypto::KeyManager key_manager,
                   net::MailboxPtr cloud_inbox);
  ~FresqueCollector();

  FresqueCollector(const FresqueCollector&) = delete;
  FresqueCollector& operator=(const FresqueCollector&) = delete;

  /// Validates the config (CollectorConfig::Validate — a bad knob
  /// combination fails here, before any thread spawns), then spawns all
  /// nodes and opens publication 0 (samples its template, schedules its
  /// dummies). Call once.
  Status Start();

  /// Dispatcher ingest path: forwards one raw line, releasing any dummy
  /// records whose scheduled point has passed.
  ///
  /// With admission control enabled (config.admission), the record may
  /// instead be shed *before* entering the pipeline: the call returns
  /// StatusCode::kOverloaded, nothing is enqueued, and the shed is
  /// counted in `ingest.shed_records` (never in `ingest.records_in`, so
  /// the conservation ledger keeps balancing over admitted records).
  /// `priority` picks the shedding tier (see IngestPriority); kHigh is
  /// never watermark-shed and may overdraw the token bucket.
  ///
  /// `intended_born_ns` optionally overrides the record's birth stamp
  /// with the *scheduled* arrival time (telemetry clock domain,
  /// telemetry::NowNanos). Open-loop drivers pass the time the
  /// record was supposed to arrive, so `pipeline.record_e2e_ns` measures
  /// latency free of coordinated omission — a sender that falls behind
  /// no longer hides the queueing delay its backlog caused. 0 (default)
  /// stamps the actual ingest time.
  ///
  /// An admitted line is copied once, into a buffer reserved with
  /// SecureRecordCodec::CiphertextHeadroom(schema) spare bytes: it travels
  /// as the record's frame payload and the computing node encrypts into it
  /// without reallocating.
  FRESQUE_HOT Status Ingest(
      std::string_view line,
      IngestPriority priority = IngestPriority::kNormal,
      int64_t intended_born_ns = 0);

  /// Records shed at admission since Start(), total and by priority.
  /// Safe from any thread.
  uint64_t shed_records() const;
  uint64_t shed_records(IngestPriority priority) const;

  /// Informs the dummy schedule how far the current interval has
  /// progressed, in [0, 1]. Optional; anything unreleased flushes at
  /// Publish().
  void SetIntervalProgress(double fraction);

  /// Ends the current publishing interval: flushes remaining dummies,
  /// fans kPublish out to the computing nodes, and immediately opens the
  /// next publication (asynchronous publication, §5.1(c)).
  Status Publish();

  /// Graceful drain-and-stop. If the open interval ingested any lines it
  /// is published first (scheduled dummies flushed, kPublish barrier
  /// emitted), so the randomer buffer, AL snapshot, and merger
  /// publication for the final interval all complete; then kShutdown
  /// cascades and all collector threads join. An open interval that
  /// never saw an Ingest() is skipped — there is nothing to lose.
  Status Shutdown();

  /// Blocks until publication `pn` reaches a terminal state: installed at
  /// the cloud (requires CloudNode::RouteAcksTo(publication_acks())), or
  /// failed anywhere in the pipeline (acked internally, no routing
  /// needed). Returns the terminal status, or DeadlineExceeded. Callable
  /// during ingestion and after Shutdown() — acks keep being consumed
  /// until the collector is destroyed.
  Status WaitForPublication(
      uint64_t pn,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(10000));

  /// Mailbox on which the collector consumes kPublicationAck frames.
  /// Hand it to CloudNode::RouteAcksTo() so cloud-side installs complete
  /// the lifecycle; collector-internal failure acks arrive regardless.
  const net::MailboxPtr& publication_acks() const { return ack_inbox_; }

  /// Point-in-time health snapshot: per-node frame counts and queue
  /// depths, every drop counter, and publication ack totals.
  CollectorMetrics Metrics() const;

  /// Per-publication reports. Complete only after Shutdown() (the merger
  /// fills its part asynchronously).
  std::vector<PublishReport> Reports() const;

  /// Lines dropped because they failed to parse or fell outside the
  /// indexed domain.
  uint64_t parse_errors() const;

  /// Records lost to codec construction or encryption failures.
  uint64_t codec_failures() const;

  /// Records dropped at the checking node waiting for a template that
  /// never arrived (lost or undecodable kTemplateInit).
  uint64_t pending_dropped() const;

  /// Removed records that no longer fit their overflow array (realized
  /// negative noise beyond the delta-probability bound). Expected ~0;
  /// nonzero values mean delta/alpha are configured too aggressively.
  uint64_t overflow_drops() const;

  uint64_t current_publication() const { return pn_; }
  const CollectorConfig& config() const { return config_; }

 private:
  Status OpenInterval();
  /// Admission decision for one record (dispatcher thread). OK admits;
  /// kOverloaded sheds — the caller must not enqueue. Samples the
  /// pipeline-inbox fill fractions every kAdmissionSampleStride records
  /// (mailbox size() takes the queue lock; per-record sampling would
  /// serialize the dispatcher against every node) and refills the token
  /// bucket from the wall clock.
  Status Admit(IngestPriority priority);
  /// Flushes unreleased dummies and fans the kPublish barrier out to the
  /// computing nodes for the current interval, without opening the next.
  void PublishCurrentInterval();

  /// Buffers one raw-line/dummy frame for its round-robin computing node,
  /// flushing that node's buffer as one PushBatch when it reaches
  /// net::kMaxBatch.
  FRESQUE_HOT void DispatchBuffered(net::Message&& m);
  /// Hands every buffered frame to its computing node. Must run before
  /// any barrier frame (kPublish/kShutdown) so per-link FIFO keeps
  /// records ahead of the barrier.
  void FlushDispatchBuffers();

  CollectorConfig config_;
  crypto::KeyManager key_manager_;
  net::MailboxPtr cloud_inbox_;

  std::unique_ptr<internal::ReportSink> reports_;
  std::unique_ptr<internal::DispatcherState> dispatcher_;
  std::vector<std::unique_ptr<internal::ComputingNodeImpl>> computing_;
  std::unique_ptr<internal::CheckingNodeImpl> checking_;
  std::unique_ptr<internal::MergerImpl> merger_;

  // Ack path: lives from construction to destruction so late cloud acks
  // (after Shutdown) still resolve WaitForPublication calls. Declaration
  // order matters: ack_node_ references tracker_ and must die first.
  net::MailboxPtr ack_inbox_;
  std::unique_ptr<internal::PublicationTracker> tracker_;
  std::unique_ptr<net::Node> ack_node_;

  uint64_t pn_ = 0;
  uint64_t open_interval_lines_ = 0;  // Ingest() calls since OpenInterval
  size_t line_headroom_ = 0;  // CiphertextHeadroom of the schema, at Start
  size_t rr_ = 0;  // round-robin cursor over computing nodes

  // Admission state. The gate runs on the dispatcher thread (like the
  // round-robin cursor); only the shed counters are atomics, for
  // Metrics() readers on other threads.
  static constexpr uint64_t kAdmissionSampleStride = 32;
  uint64_t admission_ticks_ = 0;      // records seen since Start
  double cached_fill_ = 0;            // last sampled max inbox fill
  bool shedding_ = false;             // edge detector for flight events
  double bucket_tokens_ = 0;          // token bucket level
  int64_t bucket_refill_ns_ = 0;      // last refill stamp (SystemClock)
  std::atomic<uint64_t> shed_low_{0};
  std::atomic<uint64_t> shed_normal_{0};
  std::atomic<uint64_t> shed_high_{0};
  /// Per-computing-node dispatch buffers (dispatcher-thread state):
  /// frames accumulate here and enter the node's mailbox in one PushBatch
  /// of net::kMaxBatch, amortizing the mailbox lock/wakeup.
  std::vector<std::vector<net::Message>> dispatch_buf_;
  bool started_ = false;
  bool shut_down_ = false;
};

}  // namespace engine
}  // namespace fresque

#endif  // FRESQUE_ENGINE_FRESQUE_COLLECTOR_H_
