#ifndef FRESQUE_ENGINE_COLLECTOR_NODES_H_
#define FRESQUE_ENGINE_COLLECTOR_NODES_H_

/// Internal pipeline nodes of the FRESQUE collector (paper §5.3), split
/// out of fresque_collector.cc so the per-node protocol logic — in
/// particular the checking node's barrier and lost-template handling —
/// is unit-testable in isolation. Everything here is collector-private;
/// the supported public surface is FresqueCollector.
///
/// Concurrency model (see DESIGN.md §8): each *Impl's mutable state is
/// confined to its own net::Node thread — only the mailbox crosses
/// threads — except the std::atomic drop/progress counters (readable
/// from any thread) and the collector's PublicationTracker, whose locking
/// is annotated and checked by Clang's thread-safety analysis.

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/hot.h"
#include "common/status.h"
#include "crypto/key_manager.h"
#include "engine/config.h"
#include "engine/dummy_schedule.h"
#include "engine/publication.h"
#include "engine/publication_tracker.h"
#include "engine/randomer.h"
#include "index/al.h"
#include "index/binning.h"
#include "index/index.h"
#include "net/message.h"
#include "net/node.h"
#include "record/secure_codec.h"

namespace fresque {
namespace engine {
namespace internal {

/// Computing node (paper §5.3): parse raw line -> leaf offset -> encrypt,
/// emit <leaf offset, e-record> to the checking node. Also encrypts the
/// dispatcher's dummy directives.
class ComputingNodeImpl {
 public:
  ComputingNodeImpl(size_t id, const CollectorConfig& config,
                    index::DomainBinning binning,
                    const crypto::KeyManager* keys, net::MailboxPtr checking);

  void Start() { node_.Start(); }
  void Join() { node_.Join(); }
  const net::MailboxPtr& inbox() const { return node_.inbox(); }
  const net::Node& node() const { return node_; }
  uint64_t parse_errors() const {
    return parse_errors_.load(std::memory_order_relaxed);
  }
  /// Records lost to codec construction or encryption failures (distinct
  /// from malformed input, which counts as parse_errors).
  uint64_t codec_failures() const {
    return codec_failures_.load(std::memory_order_relaxed);
  }

 private:
  FRESQUE_HOT bool HandleBatch(std::vector<net::Message>& batch);

  /// Parses/stages one raw line (or dummy directive) into the pending
  /// encrypt batch; the ciphertext lands in `out_` at FlushStaged().
  FRESQUE_HOT void StageLine(net::Message&& m,
                             record::SecureRecordCodec* codec);

  /// Encrypts everything staged in one batch call and hands the resulting
  /// kTaggedRecord frames to the checking node with one PushBatch.
  FRESQUE_HOT void FlushStaged();

  /// Per-publication record codec, rebuilt when the publication turns
  /// over (each publication has its own derived AES key).
  record::SecureRecordCodec* CodecFor(uint64_t pn);

  const CollectorConfig& config_;
  index::DomainBinning binning_;
  const crypto::KeyManager* keys_;
  net::MailboxPtr checking_;
  crypto::SecureRandom rng_;
  std::optional<record::SecureRecordCodec> codec_;
  uint64_t codec_pn_ = ~0ULL;
  /// Batch encryptor bound to `codec_`'s stable address (std::optional
  /// re-emplacement never moves the object), created with the first
  /// codec. All scratch inside it is reused across batches.
  std::optional<record::SecureRecordCodec::BatchEncryptor> enc_;
  /// Reused parse target and outbound staging buffer (each staged frame
  /// is the input frame itself; its ciphertext is encrypted into its own
  /// payload buffer at FlushStaged).
  record::Record scratch_rec_;
  std::vector<net::Message> out_;
  std::atomic<uint64_t> parse_errors_{0};
  std::atomic<uint64_t> codec_failures_{0};
  net::Node node_;
};

/// Checking node (paper §5.3): randomer + checker + updater. O(1) AL/ALN
/// array operations replace the PINED-RQ++ tree walk.
///
/// A publication's kTemplateInit enters this inbox before any of its
/// records can (docs/PROTOCOL.md, ordering guarantee 2), so a record
/// whose publication has no interval state is dropped on arrival and
/// counted: its template failed to decode. Publish votes are tracked
/// independently of interval state, so such a publication still completes
/// its barrier and is then completed as failed in `publications`.
class CheckingNodeImpl {
 public:
  /// Every interval's randomer holds `randomer_buffer` records
  /// (RandomerBufferSize(config)). `publications` receives this node's
  /// report slice and completes the publications that fail here.
  CheckingNodeImpl(const CollectorConfig& config, size_t randomer_buffer,
                   net::MailboxPtr merger, net::MailboxPtr cloud,
                   PublicationTracker* publications);

  void Start() { node_.Start(); }
  void Join() { node_.Join(); }
  const net::MailboxPtr& inbox() const { return node_.inbox(); }
  const net::Node& node() const { return node_; }
  size_t randomer_buffer() const { return randomer_buffer_; }

  /// Records dropped because their publication has no interval state.
  uint64_t pending_dropped() const {
    return pending_dropped_.load(std::memory_order_relaxed);
  }
  /// Publications flushed through the AL-snapshot path.
  uint64_t publications_flushed() const {
    return publications_flushed_.load(std::memory_order_relaxed);
  }
  /// Publications whose barrier completed without interval state.
  uint64_t publications_failed() const {
    return publications_failed_.load(std::memory_order_relaxed);
  }

 private:
  struct IntervalState {
    index::LeafArrays leaves;
    Randomer randomer;

    IntervalState(const std::vector<int64_t>& noise, size_t buffer_size,
                  crypto::SecureRandom* rng)
        : leaves(noise), randomer(buffer_size, rng) {}
  };

  FRESQUE_HOT bool HandleBatch(std::vector<net::Message>& batch);
  FRESQUE_HOT bool Handle(net::Message&& m);
  void HandleTemplate(net::Message&& m);
  FRESQUE_HOT void HandleRecord(net::Message&& m);
  FRESQUE_HOT void Dispatch(IntervalState& state, net::Message&& m);
  void HandlePublish(net::Message&& m);
  void FailPublication(uint64_t pn, const std::string& reason);

  /// Hands the accumulated output of one input batch downstream, one
  /// PushBatch per link. Cloud flushes before merger: the merger's
  /// kIndexPublication for a publication must enter the cloud inbox
  /// behind all of that publication's kCloudRecord frames, and the
  /// merger cannot see the AL snapshot before this cloud flush lands.
  FRESQUE_HOT void FlushOutputs();

  const CollectorConfig& config_;
  const size_t randomer_buffer_;
  net::MailboxPtr merger_;
  net::MailboxPtr cloud_;
  PublicationTracker* publications_;
  crypto::SecureRandom rng_;
  std::map<uint64_t, IntervalState> states_;
  std::map<uint64_t, size_t> publish_votes_;
  /// Per-batch outbound staging; Handle appends, FlushOutputs drains.
  /// FIFO order within each buffer preserves the per-link protocol
  /// ordering (kPublicationStart before records, records before the AL
  /// snapshot, kShutdown last).
  std::vector<net::Message> cloud_out_;
  std::vector<net::Message> merger_out_;
  size_t shutdown_votes_ = 0;
  std::atomic<uint64_t> pending_dropped_{0};
  std::atomic<uint64_t> publications_flushed_{0};
  std::atomic<uint64_t> publications_failed_{0};
  net::Node node_;
};

/// Merger (paper §5.3): runs publication work off the ingestion path —
/// merges IT + AL into the secure index, builds overflow arrays, ships
/// the publication to the cloud. Publications that fail to build are
/// completed as failed in `publications` and their pending state
/// released.
class MergerImpl {
 public:
  MergerImpl(const CollectorConfig& config, const crypto::KeyManager* keys,
             net::MailboxPtr cloud, PublicationTracker* publications);

  void Start() { node_.Start(); }
  void Join() { node_.Join(); }
  const net::MailboxPtr& inbox() const { return node_.inbox(); }
  const net::Node& node() const { return node_; }

  /// Removed records that no longer fit their overflow array (realized
  /// noise beyond the delta-probability bound); should be ~0.
  uint64_t overflow_drops() const {
    return overflow_drops_.load(std::memory_order_relaxed);
  }
  /// Publications failed because overflow-array dummies could not be
  /// encrypted (previously those shipped with empty slots — a
  /// distinguishable, privacy-breaking publication).
  uint64_t codec_failures() const {
    return codec_failures_.load(std::memory_order_relaxed);
  }

 private:
  struct PendingPublication {
    std::optional<index::HistogramIndex> tmpl;
    std::vector<RemovedRecord> removed;
  };

  FRESQUE_HOT bool HandleBatch(std::vector<net::Message>& batch);
  FRESQUE_HOT bool Handle(net::Message&& m);
  void FinishPublication(net::Message&& snap);
  void FailPublication(uint64_t pn, const std::string& reason);
  void FlushOutputs();

  const CollectorConfig& config_;
  const crypto::KeyManager* keys_;
  net::MailboxPtr cloud_;
  PublicationTracker* publications_;
  crypto::SecureRandom rng_;
  std::map<uint64_t, PendingPublication> pending_;
  /// Per-batch outbound staging toward the cloud (see CheckingNodeImpl).
  std::vector<net::Message> cloud_out_;
  std::atomic<uint64_t> overflow_drops_{0};
  std::atomic<uint64_t> codec_failures_{0};
  net::Node node_;
};

/// Dispatcher-side per-interval state (runs on the caller's thread).
class DispatcherState {
 public:
  DispatcherState(const CollectorConfig& config, index::DomainBinning binning,
                  net::MailboxPtr checking, PublicationTracker* publications);

  /// Samples the template for publication `pn`, schedules its dummies and
  /// hands the template to the checking node.
  Status OpenInterval(uint64_t pn);

  DummySchedule* schedule() { return schedule_ ? &*schedule_ : nullptr; }
  void set_progress(double p) { progress_ = p; }
  double progress() const { return progress_; }

 private:
  const CollectorConfig& config_;
  index::DomainBinning binning_;
  net::MailboxPtr checking_;
  crypto::SecureRandom rng_;
  std::optional<DummySchedule> schedule_;
  double progress_ = 0;
  PublicationTracker* publications_;
};

}  // namespace internal
}  // namespace engine
}  // namespace fresque

#endif  // FRESQUE_ENGINE_COLLECTOR_NODES_H_
