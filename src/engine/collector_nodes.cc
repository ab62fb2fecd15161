#include "engine/collector_nodes.h"

#include <string_view>

#include "common/clock.h"
#include "common/logging.h"
#include "index/index.h"
#include "index/overflow.h"
#include "net/payloads.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace fresque {
namespace engine {
namespace internal {

// ---------------------------------------------------------------------------
// ComputingNodeImpl

ComputingNodeImpl::ComputingNodeImpl(size_t id, const CollectorConfig& config,
                                     index::DomainBinning binning,
                                     const crypto::KeyManager* keys,
                                     net::MailboxPtr checking)
    : config_(config),
      binning_(std::move(binning)),
      keys_(keys),
      checking_(std::move(checking)),
      rng_(config.seed ^ (0x9E3779B97F4A7C15ULL * (id + 1))),
      node_("cn" + std::to_string(id),
            net::MakeMailbox(config.mailbox_capacity),
            [this](std::vector<net::Message>& b) { return HandleBatch(b); }) {}

bool ComputingNodeImpl::HandleBatch(std::vector<net::Message>& batch) {
  // Raw lines of the same publication are staged into one batch encrypt:
  // hardware backends interleave the independent CBC chains, and the
  // resulting kTaggedRecord frames leave as one PushBatch. A run ends at
  // any control frame or publication turnover (the codec is
  // per-publication), and its ciphertexts flush *before* the boundary
  // frame is forwarded — the checking node must see every record of an
  // interval ahead of that interval's kPublish vote.
  //
  // The encryptor holds &out_[k].payload pointers until FlushStaged, so
  // out_ must not reallocate mid-run: one run stages at most the whole
  // batch, and out_ is empty here (every path through the loop flushes).
  out_.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    net::Message& m = batch[i];
    switch (m.type) {
      case net::MessageType::kRawLine: {
        const uint64_t pn = m.pn;
        auto* codec = CodecFor(pn);
        size_t j = i;
        for (; j < batch.size() &&
               batch[j].type == net::MessageType::kRawLine &&
               batch[j].pn == pn;
             ++j) {
          if (codec == nullptr) {
            codec_failures_.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          StageLine(std::move(batch[j]), codec);
        }
        FlushStaged();
        i = j - 1;
        break;
      }
      case net::MessageType::kPublish:
        // Forward the barrier so the checking node can count one per CN.
        checking_->Push(std::move(m));
        break;
      case net::MessageType::kShutdown:
        checking_->Push(std::move(m));
        return false;
      default:
        FRESQUE_LOG(Warn) << "computing node: unexpected "
                          << net::MessageTypeToString(m.type);
        break;
    }
  }
  return true;
}

void ComputingNodeImpl::StageLine(net::Message&& m,
                                  record::SecureRecordCodec* codec) {
  if (!enc_) enc_.emplace(codec);
  // The frame becomes its own <leaf offset, e-record> output. Its payload
  // buffer, which the router reserved with ciphertext headroom, receives
  // the ciphertext: the plaintext is staged in the encryptor's arena, so
  // nothing reads the line once it is parsed. pn and the pipeline-entry
  // stamp ride on to the cloud.
  m.type = net::MessageType::kTaggedRecord;
  if (m.dummy) {
    out_.push_back(std::move(m));
    enc_->StageDummy(config_.dummy_padding_len, &out_.back().payload);
    return;
  }

  std::string_view line(reinterpret_cast<const char*>(m.payload.data()),
                        m.payload.size());
  Status parsed = config_.dataset.parser->ParseInto(line, &scratch_rec_);
  if (!parsed.ok()) {
    parse_errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto leaf = [&]() -> Result<size_t> {
    auto v = scratch_rec_.IndexedValue(config_.dataset.parser->schema());
    if (!v.ok()) return v.status();
    return binning_.LeafOffsetChecked(*v);
  }();
  if (!leaf.ok()) {
    parse_errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  m.leaf = *leaf;
  out_.push_back(std::move(m));
  Status staged = enc_->StageRecord(scratch_rec_, &out_.back().payload);
  if (!staged.ok()) {
    out_.pop_back();
    codec_failures_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ComputingNodeImpl::FlushStaged() {
  if (out_.empty()) return;
  Status st = enc_->Flush();
  if (!st.ok()) {
    // Every record of the batch is lost; the counters keep the
    // record-conservation ledger honest.
    FRESQUE_LOG(Warn) << "batch encrypt failed: " << st.ToString();
    codec_failures_.fetch_add(out_.size(), std::memory_order_relaxed);
    out_.clear();
    return;
  }
  checking_->PushBatch(out_.data(), out_.size());
  out_.clear();
}

record::SecureRecordCodec* ComputingNodeImpl::CodecFor(uint64_t pn) {
  if (!codec_ || codec_pn_ != pn) {
    auto c = record::SecureRecordCodec::Create(
        keys_->RecordKey(pn), &config_.dataset.parser->schema(), &rng_);
    if (!c.ok()) {
      FRESQUE_LOG(Error) << "codec create failed: " << c.status().ToString();
      return nullptr;
    }
    codec_.emplace(std::move(c).ValueOrDie());
    codec_pn_ = pn;
  }
  return &*codec_;
}

// ---------------------------------------------------------------------------
// CheckingNodeImpl

CheckingNodeImpl::CheckingNodeImpl(const CollectorConfig& config,
                                   size_t randomer_buffer,
                                   net::MailboxPtr merger,
                                   net::MailboxPtr cloud,
                                   PublicationTracker* publications)
    : config_(config),
      randomer_buffer_(randomer_buffer),
      merger_(std::move(merger)),
      cloud_(std::move(cloud)),
      publications_(publications),
      rng_(config.seed ^ 0xC0FFEE),
      node_("checking", net::MakeMailbox(config.mailbox_capacity),
            [this](std::vector<net::Message>& b) { return HandleBatch(b); }) {}

bool CheckingNodeImpl::HandleBatch(std::vector<net::Message>& batch) {
  bool keep_going = true;
  for (auto& m : batch) {
    if (!Handle(std::move(m))) {
      keep_going = false;
      break;
    }
  }
  FlushOutputs();
  return keep_going;
}

bool CheckingNodeImpl::Handle(net::Message&& m) {
  switch (m.type) {
    case net::MessageType::kTemplateInit:
      HandleTemplate(std::move(m));
      return true;
    case net::MessageType::kTaggedRecord:
      HandleRecord(std::move(m));
      return true;
    case net::MessageType::kPublish:
      HandlePublish(std::move(m));
      return true;
    case net::MessageType::kShutdown:
      if (++shutdown_votes_ < config_.num_computing_nodes) return true;
      // Appended (not pushed) so the batch-end flush delivers it after
      // everything already staged toward the merger.
      merger_out_.push_back(std::move(m));
      return false;
    default:
      FRESQUE_LOG(Warn) << "checking node: unexpected "
                        << net::MessageTypeToString(m.type);
      return true;
  }
}

void CheckingNodeImpl::FlushOutputs() {
  if (!cloud_out_.empty()) {
    cloud_->PushBatch(cloud_out_.data(), cloud_out_.size());
    cloud_out_.clear();
  }
  if (!merger_out_.empty()) {
    merger_->PushBatch(merger_out_.data(), merger_out_.size());
    merger_out_.clear();
  }
}

void CheckingNodeImpl::HandleTemplate(net::Message&& m) {
  const uint64_t pn = m.pn;
  auto tmpl = net::DecodeTemplate(m.payload);
  if (!tmpl.ok()) {
    // No interval state will ever exist for `pn`; the barrier completion
    // in HandlePublish detects that and fails the publication.
    FRESQUE_LOG(Error) << "bad template: " << tmpl.status().ToString();
    return;
  }
  states_.emplace(std::piecewise_construct, std::forward_as_tuple(pn),
                  std::forward_as_tuple(tmpl->leaf_counts(), randomer_buffer_,
                                        &rng_));

  // Tell the cloud a publication opened; hand the template itself on to
  // the merger for the eventual secure-index build.
  net::Message start;
  start.type = net::MessageType::kPublicationStart;
  start.pn = pn;
  cloud_out_.push_back(std::move(start));

  net::Message fwd = std::move(m);
  fwd.type = net::MessageType::kTemplateForward;
  merger_out_.push_back(std::move(fwd));
}

void CheckingNodeImpl::HandleRecord(net::Message&& m) {
  auto it = states_.find(m.pn);
  if (it == states_.end()) {
    // The template entered this inbox before any record of its
    // publication could, so it failed to decode (HandleTemplate logged
    // it); the barrier fails the publication.
    pending_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto evicted = it->second.randomer.Push(std::move(m));
  if (evicted.has_value()) {
    Dispatch(it->second, std::move(*evicted));
  }
}

/// Checker + updater on one record leaving the randomer.
void CheckingNodeImpl::Dispatch(IntervalState& state, net::Message&& m) {
  if (m.dummy) {
    // Dummies skip AL/ALN entirely; strip the collector-private flag.
    m.type = net::MessageType::kCloudRecord;
    m.dummy = false;
    cloud_out_.push_back(std::move(m));
    return;
  }
  auto decision = state.leaves.Admit(static_cast<size_t>(m.leaf));
  if (decision == index::LeafArrays::Decision::kRemove) {
    // Leaves the per-record cloud path here: the merger folds removed
    // records into the publication's overflow arrays instead. The counter
    // keeps the record-conservation ledger balanced (ingest.records_in +
    // ingest.dummy_records == cloud arrivals + drops + removals).
    FRESQUE_COUNTER_ADD("collector.records_removed", 1);
    m.type = net::MessageType::kRemovedRecord;
    merger_out_.push_back(std::move(m));
    return;
  }
  m.type = net::MessageType::kCloudRecord;
  cloud_out_.push_back(std::move(m));
}

void CheckingNodeImpl::HandlePublish(net::Message&& m) {
  const uint64_t pn = m.pn;
  // Votes are counted independently of interval state: a lost or
  // undecodable template must not wedge the barrier for its publication.
  size_t votes = ++publish_votes_[pn];
  if (votes < config_.num_computing_nodes) return;
  publish_votes_.erase(pn);

  auto it = states_.find(pn);
  if (it == states_.end()) {
    // fresque-lint: allow(hot-alloc) publication-failure path
    FailPublication(pn, "publication " + std::to_string(pn) +
                            ": barrier completed with no interval state "
                            "(template lost or undecodable)");
  } else {
    // All computing nodes flushed publication `pn`: release the buffer,
    // snapshot AL, hand both downstream.
    const int64_t flush_start = telemetry::NowNanos();
    Stopwatch watch;
    auto& state = it->second;
    for (auto& r : state.randomer.Flush()) {
      Dispatch(state, std::move(r));
    }
    net::Message snap;
    snap.type = net::MessageType::kAlSnapshot;
    snap.pn = pn;
    snap.born_ns = m.born_ns;  // publish-barrier stamp rides to the merger
    snap.payload = net::EncodeAlSnapshot(state.leaves.al_snapshot());
    merger_out_.push_back(std::move(snap));

    publications_->Checking(pn, watch.ElapsedMillis(),
                            static_cast<uint64_t>(state.leaves.TotalReal()));
    states_.erase(it);
    publications_flushed_.fetch_add(1, std::memory_order_relaxed);
    FRESQUE_HISTOGRAM_RECORD("checking.flush_ns",
                             telemetry::NowNanos() - flush_start);
  }
}

void CheckingNodeImpl::FailPublication(uint64_t pn,
                                       const std::string& reason) {
  FRESQUE_LOG(Error) << "checking node: " << reason;
  publications_failed_.fetch_add(1, std::memory_order_relaxed);
  publications_->Complete(pn, Status::Internal(reason));
}

// ---------------------------------------------------------------------------
// MergerImpl

MergerImpl::MergerImpl(const CollectorConfig& config,
                       const crypto::KeyManager* keys, net::MailboxPtr cloud,
                       PublicationTracker* publications)
    : config_(config),
      keys_(keys),
      cloud_(std::move(cloud)),
      publications_(publications),
      rng_(config.seed ^ 0x4D455247),  // "MERG"
      node_("merger", net::MakeMailbox(config.mailbox_capacity),
            [this](std::vector<net::Message>& b) { return HandleBatch(b); }) {}

bool MergerImpl::HandleBatch(std::vector<net::Message>& batch) {
  bool keep_going = true;
  for (auto& m : batch) {
    if (!Handle(std::move(m))) {
      keep_going = false;
      break;
    }
  }
  FlushOutputs();
  return keep_going;
}

void MergerImpl::FlushOutputs() {
  if (cloud_out_.empty()) return;
  cloud_->PushBatch(cloud_out_.data(), cloud_out_.size());
  cloud_out_.clear();
}

bool MergerImpl::Handle(net::Message&& m) {
  switch (m.type) {
    case net::MessageType::kTemplateForward: {
      auto tmpl = net::DecodeTemplate(m.payload);
      if (!tmpl.ok()) {
        FailPublication(m.pn, "merger: bad template " +
                                  tmpl.status().ToString());
        return true;
      }
      pending_[m.pn].tmpl.emplace(std::move(*tmpl));
      return true;
    }
    case net::MessageType::kRemovedRecord:
      pending_[m.pn].removed.push_back(std::move(m));
      return true;
    case net::MessageType::kAlSnapshot:
      FinishPublication(std::move(m));
      return true;
    case net::MessageType::kShutdown:
      // Appended so the batch-end flush delivers it after any
      // publication shipped earlier in this batch.
      cloud_out_.push_back(std::move(m));
      return false;
    default:
      FRESQUE_LOG(Warn) << "merger: unexpected "
                        << net::MessageTypeToString(m.type);
      return true;
  }
}

void MergerImpl::FinishPublication(net::Message&& snap) {
  auto it = pending_.find(snap.pn);
  if (it == pending_.end() || !it->second.tmpl.has_value()) {
    // The template was lost upstream (or its forward failed to decode
    // here); the AL snapshot is the publication's last frame, so release
    // whatever state accumulated and fail the publication.
    if (it != pending_.end()) pending_.erase(it);
    FailPublication(snap.pn,
                    "merger: AL snapshot for publication " +
                        // fresque-lint: allow(hot-alloc) failure path
                        std::to_string(snap.pn) + " without a template");
    return;
  }
  auto al = net::DecodeAlSnapshot(snap.payload);
  if (!al.ok()) {
    pending_.erase(it);
    FailPublication(snap.pn, "merger: bad AL " + al.status().ToString());
    return;
  }

  const int64_t build_start = telemetry::NowNanos();
  Stopwatch watch;
  auto& pending = it->second;

  // Secure index = template noise + true counts, aggregated up.
  auto true_index = index::HistogramIndex::FromLeafCounts(
      pending.tmpl->layout(), pending.tmpl->binning(), *al);
  if (!true_index.ok()) {
    // fresque-lint: allow(hot-alloc) publication-failure path
    std::string reason =
        "merger: AL shape mismatch " + true_index.status().ToString();
    pending_.erase(it);
    FailPublication(snap.pn, reason);
    return;
  }
  auto merged = pending.tmpl->Plus(*true_index);
  if (!merged.ok()) {
    // fresque-lint: allow(hot-alloc) publication-failure path
    std::string reason = "merger: merge failed " + merged.status().ToString();
    pending_.erase(it);
    FailPublication(snap.pn, reason);
    return;
  }

  // Overflow arrays: one fixed-size array per leaf (OverflowSlotsPerLeaf).
  // Removed records go to random slots; the rest pads with dummy
  // ciphertexts.
  index::OverflowArrays overflow(
      merged->layout().num_leaves(),
      OverflowSlotsPerLeaf(config_, merged->layout().num_levels()));
  for (auto& rm : pending.removed) {
    Status st = overflow.Insert(static_cast<size_t>(rm.leaf),
                                std::move(rm.payload), &rng_);
    if (!st.ok()) {
      overflow_drops_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  auto codec = record::SecureRecordCodec::Create(
      keys_->RecordKey(snap.pn), &config_.dataset.parser->schema(), &rng_);
  if (!codec.ok()) {
    // fresque-lint: allow(hot-alloc) publication-failure path
    std::string reason = "merger: codec " + codec.status().ToString();
    pending_.erase(it);
    FailPublication(snap.pn, reason);
    return;
  }
  // Pad the remaining slots with dummy ciphertexts, batch-encrypted in
  // one interleaved AES call (slot storage is stable, so staging directly
  // into the slots is safe). An encrypt failure here fails the whole
  // publication: shipping empty or partially-padded slots would let the
  // cloud distinguish real removed records from padding.
  {
    record::SecureRecordCodec::BatchEncryptor enc(&*codec);
    overflow.ForEachEmptySlot(
        [&](Bytes* slot) { enc.StageDummy(config_.dummy_padding_len, slot); });
    Status padded = enc.Flush();
    if (!padded.ok()) {
      codec_failures_.fetch_add(1, std::memory_order_relaxed);
      // fresque-lint: allow(hot-alloc) publication-failure path
      std::string reason =
          "merger: overflow dummy encrypt " + padded.ToString();
      pending_.erase(it);
      FailPublication(snap.pn, reason);
      return;
    }
  }

  // One serialization: the payload is written once and its tag computed
  // over it in place (SHA-NI where the CPU has it).
  net::Message out;
  out.type = net::MessageType::kIndexPublication;
  out.pn = snap.pn;
  out.born_ns = snap.born_ns;  // publish-barrier stamp rides to the cloud
  out.payload = net::EncodeSignedIndexPublication(
      net::IndexPublication(std::move(*merged), std::move(overflow)),
      keys_->IndexMacKey(snap.pn));
  cloud_out_.push_back(std::move(out));
  FRESQUE_COUNTER_ADD("collector.publications_shipped", 1);
  FRESQUE_HISTOGRAM_RECORD("merger.build_ns",
                           telemetry::NowNanos() - build_start);

  publications_->Merger(snap.pn, watch.ElapsedMillis(),
                        static_cast<uint64_t>(pending.removed.size()));
  pending_.erase(it);
}

void MergerImpl::FailPublication(uint64_t pn, const std::string& reason) {
  FRESQUE_LOG(Error) << reason;
  publications_->Complete(pn, Status::Internal(reason));
}

// ---------------------------------------------------------------------------
// DispatcherState

DispatcherState::DispatcherState(const CollectorConfig& config,
                                 index::DomainBinning binning,
                                 net::MailboxPtr checking,
                                 PublicationTracker* publications)
    : config_(config),
      binning_(std::move(binning)),
      checking_(std::move(checking)),
      rng_(config.seed ^ 0xD15C0),
      publications_(publications) {}

Status DispatcherState::OpenInterval(uint64_t pn) {
  Stopwatch watch;
  auto tmpl = index::IndexTemplate::Create(binning_, config_.fanout,
                                           config_.epsilon, &rng_);
  if (!tmpl.ok()) return tmpl.status();

  schedule_.emplace(tmpl->leaf_noise(), &rng_);
  progress_ = 0;

  net::Message init;
  init.type = net::MessageType::kTemplateInit;
  init.pn = pn;
  init.payload = net::EncodeTemplate(tmpl->noise_index());
  checking_->Push(std::move(init));

  publications_->DispatcherInit(pn, watch.ElapsedMillis(), schedule_->total());
  return Status::OK();
}

}  // namespace internal
}  // namespace engine
}  // namespace fresque
