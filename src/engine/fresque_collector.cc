#include "engine/fresque_collector.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"
#include "engine/collector_nodes.h"
#include "index/binning.h"
#include "obs/flight.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace fresque {
namespace engine {

FresqueCollector::FresqueCollector(CollectorConfig config,
                                   crypto::KeyManager key_manager,
                                   net::MailboxPtr cloud_inbox)
    : config_(std::move(config)),
      key_manager_(std::move(key_manager)),
      cloud_inbox_(std::move(cloud_inbox)),
      spares_(std::make_shared<net::SpareBuffers>()),
      ingest_blocked_ns_(
          telemetry::Registry::Global()->GetCounter("ingest.blocked_ns")),
      publications_(std::make_shared<PublicationTracker>()) {}

FresqueCollector::~FresqueCollector() {
  if (started_ && !shut_down_) {
    Status st = Shutdown();
    if (!st.ok()) {
      FRESQUE_LOG(Warn) << "shutdown in destructor: " << st.ToString();
    }
  }
}

Status FresqueCollector::Start() {
  if (started_) return Status::FailedPrecondition("already started");
  FRESQUE_RETURN_NOT_OK(config_.Validate());
  auto randomer_buffer = RandomerBufferSize(config_);
  if (!randomer_buffer.ok()) return randomer_buffer.status();
  auto binning = index::DomainBinning::Create(config_.dataset.domain_min,
                                              config_.dataset.domain_max,
                                              config_.dataset.bin_width);
  if (!binning.ok()) return binning.status();

  merger_ = std::make_unique<internal::MergerImpl>(
      config_, &key_manager_, cloud_inbox_, publications_.get());
  checking_ = std::make_unique<internal::CheckingNodeImpl>(
      config_, *randomer_buffer, merger_->inbox(), cloud_inbox_,
      publications_.get());
  dispatcher_ = std::make_unique<internal::DispatcherState>(
      config_, *binning, checking_->inbox(), publications_.get());

  computing_.clear();
  for (size_t i = 0; i < config_.num_computing_nodes; ++i) {
    computing_.push_back(std::make_unique<internal::ComputingNodeImpl>(
        i, config_, *binning, &key_manager_, checking_->inbox()));
  }
  dispatch_buf_.assign(computing_.size(), {});
  line_headroom_ = record::SecureRecordCodec::CiphertextHeadroom(
      config_.dataset.parser->schema());

  merger_->Start();
  checking_->Start();
  for (auto& cn : computing_) cn->Start();

  started_ = true;
  pn_ = 0;
  FRESQUE_FLIGHT_EVENT(kConfig, "collector pipeline started",
                       config_.num_computing_nodes, config_.mailbox_capacity,
                       config_.admission.enabled ? 1 : 0);
  if (config_.admission.enabled && config_.admission.rate_records_per_sec > 0) {
    bucket_tokens_ = config_.admission.burst_records;
    bucket_refill_ns_ = SystemClock::Global()->NowNanos();
  }
  return OpenInterval();
}

Status FresqueCollector::Admit(IngestPriority priority) {
  const AdmissionConfig& adm = config_.admission;

  // Gate 1: token bucket over the admitted rate, refilled from
  // SystemClock. kHigh may overdraw — the bucket protects against
  // sustained aggregate rate, not against must-deliver traffic.
  if (adm.rate_records_per_sec > 0 && priority != IngestPriority::kHigh) {
    const int64_t now = SystemClock::Global()->NowNanos();
    const double elapsed_s =
        static_cast<double>(now - bucket_refill_ns_) * 1e-9;
    if (elapsed_s > 0) {
      bucket_tokens_ = std::min(
          adm.burst_records,
          bucket_tokens_ + elapsed_s * adm.rate_records_per_sec);
      bucket_refill_ns_ = now;
    }
    if (bucket_tokens_ < 1.0) {
      return Status::Overloaded("admitted rate above " +
                                std::to_string(adm.rate_records_per_sec) +
                                " records/s");
    }
    bucket_tokens_ -= 1.0;
  }

  // Gate 2: queue-fill watermarks over the pipeline's input mailboxes.
  // size() takes each queue's lock, so the fill fractions are sampled
  // every kAdmissionSampleStride records rather than per record — a
  // stride of 32 bounds the staleness to microseconds at overload rates
  // while keeping the dispatcher off the nodes' locks.
  if (admission_ticks_++ % kAdmissionSampleStride == 0) {
    double fill = 0;
    for (const auto& cn : computing_) {
      const auto& q = *cn->inbox();
      fill = std::max(fill, static_cast<double>(q.size()) /
                                static_cast<double>(q.capacity()));
    }
    if (checking_) {
      const auto& q = *checking_->inbox();
      fill = std::max(fill, static_cast<double>(q.size()) /
                                static_cast<double>(q.capacity()));
    }
    // The merger inbox is the last collector-owned queue before the cloud
    // link: when the bottleneck is downstream (merger, socket, or the
    // cloud node itself), backlog pools here first, so skipping it would
    // blind the gate to exactly the overloads it exists for.
    if (merger_) {
      const auto& q = *merger_->inbox();
      fill = std::max(fill, static_cast<double>(q.size()) /
                                static_cast<double>(q.capacity()));
    }
    cached_fill_ = fill;
  }
  if (priority == IngestPriority::kLow && cached_fill_ > adm.shed_low_watermark) {
    return Status::Overloaded("pipeline inboxes above low-priority watermark");
  }
  if (priority == IngestPriority::kNormal &&
      cached_fill_ > adm.shed_high_watermark) {
    return Status::Overloaded("pipeline inboxes above shed watermark");
  }
  // kHigh is never watermark-shed: it rides the blocking back-pressure
  // path instead, so must-deliver traffic is delayed, not dropped.
  return Status::OK();
}

Status FresqueCollector::OpenInterval() {
  open_interval_lines_ = 0;
  FRESQUE_FLIGHT_EVENT(kPublication, "interval opened", pn_, 0, 0);
  return dispatcher_->OpenInterval(pn_);
}

Status FresqueCollector::Ingest(std::string_view line, IngestPriority priority,
                                int64_t intended_born_ns) {
  if (!started_ || shut_down_) {
    return Status::FailedPrecondition("collector not running");
  }
  if (config_.admission.enabled) {
    Status admitted = Admit(priority);
    if (!admitted.ok()) {
      // Shed before anything enters the pipeline: counted separately
      // from records_in so the conservation ledger still balances over
      // admitted records.
      switch (priority) {
        case IngestPriority::kLow:
          shed_low_.fetch_add(1, std::memory_order_relaxed);
          break;
        case IngestPriority::kNormal:
          shed_normal_.fetch_add(1, std::memory_order_relaxed);
          break;
        case IngestPriority::kHigh:
          shed_high_.fetch_add(1, std::memory_order_relaxed);
          break;
      }
      // Flight-record shed *transitions*, not every shed: the ring must
      // keep hours of control-plane history, not seconds of overload.
      if (!shedding_) {
        shedding_ = true;
        FRESQUE_FLIGHT_EVENT(kShed, "admission shedding began", pn_,
                             static_cast<int64_t>(cached_fill_ * 100),
                             static_cast<int64_t>(priority));
      }
      return admitted;
    }
    if (shedding_) {
      shedding_ = false;
      FRESQUE_FLIGHT_EVENT(kShed, "admission shedding ended", pn_,
                           static_cast<int64_t>(cached_fill_ * 100), 0);
    }
  }
  // Honest-latency stamp: open-loop drivers pass the record's *scheduled*
  // arrival so pipeline.record_e2e_ns includes the delay a lagging sender
  // caused (coordinated-omission-free); 0 falls back to "now".
  const int64_t now_ns = intended_born_ns != 0 ? intended_born_ns
                                               : telemetry::NowNanos();
  // Release dummies whose scheduled point has passed.
  if (auto* sched = dispatcher_->schedule()) {
    for (uint32_t leaf : sched->Due(dispatcher_->progress())) {
      DispatchBuffered(NewFrame(/*dummy=*/true, leaf, now_ns));
      FRESQUE_COUNTER_ADD("ingest.dummy_records", 1);
    }
  }
  net::Message m = NewFrame(/*dummy=*/false, /*leaf=*/0, now_ns);
  // The line's one copy: this buffer becomes the record's frame payload
  // and, at the computing node, its ciphertext.
  m.payload.reserve(line.size() + line_headroom_);
  m.payload.assign(line.begin(), line.end());
  DispatchBuffered(std::move(m));
  ++open_interval_lines_;
  FRESQUE_COUNTER_ADD("ingest.records_in", 1);
  return Status::OK();
}

net::Message FresqueCollector::NewFrame(bool dummy, uint64_t leaf,
                                        int64_t born_ns) {
  net::Message m;
  m.type = net::MessageType::kRawLine;
  m.pn = pn_;
  m.leaf = leaf;
  m.dummy = dummy;
  m.born_ns = born_ns;
  m.payload = spares_->Take();
  return m;
}

void FresqueCollector::PushToComputingNode(size_t cn, net::Message* frames,
                                           size_t n) {
  const uint64_t before = PushBlockedNanos();
  computing_[cn]->inbox()->PushBatch(frames, n);
  const uint64_t blocked = PushBlockedNanos() - before;
  if (blocked != 0) ingest_blocked_ns_->Add(blocked);
}

void FresqueCollector::DispatchBuffered(net::Message&& m) {
  const size_t cn = rr_++ % computing_.size();
  auto& buf = dispatch_buf_[cn];
  buf.push_back(std::move(m));
  if (buf.size() >= net::kMaxBatch) {
    PushToComputingNode(cn, buf.data(), buf.size());
    buf.clear();
  }
}

void FresqueCollector::FlushDispatchBuffers() {
  for (size_t cn = 0; cn < computing_.size(); ++cn) {
    auto& buf = dispatch_buf_[cn];
    if (buf.empty()) continue;
    PushToComputingNode(cn, buf.data(), buf.size());
    buf.clear();
  }
}

void FresqueCollector::SetIntervalProgress(double fraction) {
  if (dispatcher_) dispatcher_->set_progress(fraction);
}

void FresqueCollector::PublishCurrentInterval() {
  const int64_t now_ns = telemetry::NowNanos();
  Stopwatch watch;
  // Flush unreleased dummies, then the publish barrier, one per CN.
  if (auto* sched = dispatcher_->schedule()) {
    for (uint32_t leaf : sched->Due(1.0)) {
      DispatchBuffered(NewFrame(/*dummy=*/true, leaf, now_ns));
      FRESQUE_COUNTER_ADD("ingest.dummy_records", 1);
    }
  }
  // Per-link FIFO is the barrier's correctness condition: every buffered
  // record must enter its node's mailbox before that node's kPublish.
  FlushDispatchBuffers();
  FRESQUE_FLIGHT_EVENT(kPublication, "publish barrier dispatched", pn_,
                       open_interval_lines_, computing_.size());
  for (size_t cn = 0; cn < computing_.size(); ++cn) {
    net::Message p;
    p.type = net::MessageType::kPublish;
    p.pn = pn_;
    // Stamps the barrier so the cloud can histogram publish-initiation ->
    // install latency (pipeline.publish_e2e_ns).
    p.born_ns = now_ns;
    PushToComputingNode(cn, &p, 1);
  }
  publications_->DispatcherPublish(pn_, watch.ElapsedMillis());
}

Status FresqueCollector::Publish() {
  if (!started_ || shut_down_) {
    return Status::FailedPrecondition("collector not running");
  }
  PublishCurrentInterval();

  // Asynchronous publication: the next interval opens immediately.
  ++pn_;
  return OpenInterval();
}

Status FresqueCollector::Shutdown() {
  if (!started_) return Status::FailedPrecondition("never started");
  if (shut_down_) return Status::OK();
  shut_down_ = true;
  FRESQUE_FLIGHT_EVENT(kLifecycle, "collector shutdown drain", pn_,
                       open_interval_lines_, 0);

  // Drain: the open interval's records are already inside the pipeline —
  // tearing threads down without the publish barrier would destroy them
  // in the randomer buffer. Publish it first, unless nothing was ever
  // ingested (an untouched interval has nothing to lose and publishing
  // it would burn privacy budget on a noise-only index nobody asked for).
  if (open_interval_lines_ > 0) {
    PublishCurrentInterval();
  }
  FlushDispatchBuffers();  // no-op after publish; safety for the skip path

  for (auto& cn : computing_) {
    net::Message s;
    s.type = net::MessageType::kShutdown;
    cn->inbox()->Push(std::move(s));
  }
  // FIFO per link guarantees the kPublish barrier outruns kShutdown at
  // every stage, so joining here means the final interval's flush, AL
  // snapshot and index publication have all been handed to the cloud.
  for (auto& cn : computing_) cn->Join();
  checking_->Join();
  merger_->Join();
  return Status::OK();
}

Status FresqueCollector::WaitForPublication(uint64_t pn,
                                            std::chrono::milliseconds timeout) {
  if (!started_) return Status::FailedPrecondition("never started");
  return publications_->Wait(pn, timeout);
}

CollectorMetrics FresqueCollector::Metrics() const {
  CollectorMetrics out;
  auto add_node = [&out](const net::Node& n) {
    NodeMetrics nm;
    nm.name = n.name();
    nm.running = n.running();
    nm.frames_processed = n.frames_processed();
    const auto& q = *n.inbox();
    nm.inbox.depth = q.size();
    nm.inbox.capacity = q.capacity();
    nm.inbox.enqueued = q.enqueued();
    nm.inbox.rejected_closed = q.rejected_closed();
    nm.inbox.high_watermark = q.high_watermark();
    out.nodes.push_back(std::move(nm));
  };
  for (const auto& cn : computing_) {
    add_node(cn->node());
    out.parse_errors += cn->parse_errors();
    out.codec_failures += cn->codec_failures();
  }
  if (checking_) {
    add_node(checking_->node());
    out.pending_dropped = checking_->pending_dropped();
  }
  if (merger_) {
    add_node(merger_->node());
    out.codec_failures += merger_->codec_failures();
    out.overflow_drops = merger_->overflow_drops();
  }
  out.shed_low = shed_low_.load(std::memory_order_relaxed);
  out.shed_normal = shed_normal_.load(std::memory_order_relaxed);
  out.shed_high = shed_high_.load(std::memory_order_relaxed);
  out.shed_records = out.shed_low + out.shed_normal + out.shed_high;
  out.publications_completed = publications_->completed_ok();
  out.publications_failed = publications_->completed_failed();
  return out;
}

std::vector<PublishReport> FresqueCollector::Reports() const {
  return publications_->Reports();
}

size_t FresqueCollector::randomer_buffer() const {
  return checking_ ? checking_->randomer_buffer() : 0;
}

}  // namespace engine
}  // namespace fresque
