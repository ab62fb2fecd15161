#include "engine/pined_rq.h"

#include <optional>
#include <utility>

#include "common/clock.h"
#include "engine/publication.h"
#include "index/index.h"
#include "record/secure_codec.h"

namespace fresque {
namespace engine {

PinedRqCollector::PinedRqCollector(CollectorConfig config,
                                   crypto::KeyManager key_manager,
                                   net::MailboxPtr cloud_inbox)
    : config_(std::move(config)),
      key_manager_(std::move(key_manager)),
      cloud_inbox_(std::move(cloud_inbox)),
      rng_(config_.seed ^ 0xBA7C4) {}

Status PinedRqCollector::Start() {
  if (started_) return Status::FailedPrecondition("already started");
  auto binning = index::DomainBinning::Create(config_.dataset.domain_min,
                                              config_.dataset.domain_max,
                                              config_.dataset.bin_width);
  if (!binning.ok()) return binning.status();
  binning_.emplace(std::move(binning).ValueOrDie());
  started_ = true;
  return Status::OK();
}

Status PinedRqCollector::Ingest(std::string_view line) {
  if (!started_) return Status::FailedPrecondition("not started");
  buffered_lines_.emplace_back(line);
  return Status::OK();
}

Status PinedRqCollector::Publish() {
  if (!started_) return Status::FailedPrecondition("not started");
  Stopwatch watch;
  PublishReport report;
  report.pn = pn_;

  const auto& schema = config_.dataset.parser->schema();
  auto codec = record::SecureRecordCodec::Create(key_manager_.RecordKey(pn_),
                                                 &schema, &rng_);
  if (!codec.ok()) return codec.status();

  // Step 0: parse the whole batch (the deferred heavy work).
  struct Parsed {
    record::Record rec;
    size_t leaf;
  };
  std::vector<Parsed> parsed;
  parsed.reserve(buffered_lines_.size());
  for (const auto& line : buffered_lines_) {
    auto rec = config_.dataset.parser->Parse(line);
    if (!rec.ok()) {
      ++parse_errors_;
      continue;
    }
    auto v = rec->IndexedValue(schema);
    if (!v.ok()) {
      ++parse_errors_;
      continue;
    }
    auto leaf = binning_->LeafOffsetChecked(*v);
    if (!leaf.ok()) {
      ++parse_errors_;
      continue;
    }
    parsed.push_back({std::move(*rec), *leaf});
  }
  buffered_lines_.clear();
  report.real_records = parsed.size();

  // Step 1: clear index over the batch.
  auto layout = index::IndexLayout::Create(binning_->num_bins(),
                                           config_.fanout);
  if (!layout.ok()) return layout.status();
  std::vector<int64_t> leaf_counts(binning_->num_bins(), 0);
  for (const auto& p : parsed) ++leaf_counts[p.leaf];
  auto clear = index::HistogramIndex::FromLeafCounts(
      std::move(layout).ValueOrDie(), *binning_, leaf_counts);
  if (!clear.ok()) return clear.status();

  // Step 2: perturb every count with Laplace noise.
  index::HistogramIndex noisy = std::move(clear).ValueOrDie();
  index::IndexPerturber perturber(config_.epsilon, &rng_);
  std::vector<int64_t> leaf_noise = perturber.Perturb(&noisy);

  // Step 3: materialize the noise — dummies for positive leaves, removals
  // into overflow arrays for negative ones.
  std::vector<std::pair<size_t, Bytes>> batch;  // <leaf, e-record>
  batch.reserve(parsed.size());
  std::vector<RemovedRecord> removed;
  std::vector<int64_t> to_remove = leaf_noise;  // negative entries count
  for (auto& p : parsed) {
    auto ct = codec->EncryptRecord(p.rec);
    if (!ct.ok()) return ct.status();
    if (to_remove[p.leaf] < 0) {
      ++to_remove[p.leaf];
      removed.push_back({p.leaf, std::move(*ct)});
      continue;
    }
    batch.emplace_back(p.leaf, std::move(*ct));
  }
  report.removed_records = removed.size();
  for (size_t leaf = 0; leaf < leaf_noise.size(); ++leaf) {
    for (int64_t d = 0; d < leaf_noise[leaf]; ++d) {
      auto ct = codec->EncryptDummy(config_.dummy_padding_len);
      if (!ct.ok()) return ct.status();
      batch.emplace_back(leaf, std::move(*ct));
      ++report.dummy_records;
    }
  }
  auto encoded = EncodePublication(config_, key_manager_, pn_, std::move(noisy),
                                   std::move(removed), &*codec, &rng_);
  if (!encoded.ok()) return encoded.status();

  // Step 4: ship everything as one synchronous publication.
  net::Message start;
  start.type = net::MessageType::kPublicationStart;
  start.pn = pn_;
  cloud_inbox_->Push(std::move(start));
  for (auto& [leaf, ct] : batch) {
    net::Message m;
    m.type = net::MessageType::kCloudRecord;
    m.pn = pn_;
    m.leaf = leaf;
    m.payload = std::move(ct);
    cloud_inbox_->Push(std::move(m));
  }
  net::Message pub;
  pub.type = net::MessageType::kIndexPublication;
  pub.pn = pn_;
  pub.payload = std::move(encoded->payload);
  cloud_inbox_->Push(std::move(pub));

  // The whole pipeline ran on this thread: every millisecond here is
  // ingestion stall, which is PINED-RQ's bottleneck.
  report.dispatcher_millis = watch.ElapsedMillis();
  reports_.push_back(report);
  ++pn_;
  return Status::OK();
}

Status PinedRqCollector::Shutdown() {
  if (!started_) return Status::FailedPrecondition("never started");
  net::Message s;
  s.type = net::MessageType::kShutdown;
  cloud_inbox_->Push(std::move(s));
  return Status::OK();
}

}  // namespace engine
}  // namespace fresque
