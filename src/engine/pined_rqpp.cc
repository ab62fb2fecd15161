#include "engine/pined_rqpp.h"

#include "common/clock.h"
#include "engine/publication.h"
#include "net/payloads.h"

namespace fresque {
namespace engine {

PinedRqPpCollector::PinedRqPpCollector(CollectorConfig config,
                                       crypto::KeyManager key_manager,
                                       net::MailboxPtr cloud_inbox)
    : config_(std::move(config)),
      key_manager_(std::move(key_manager)),
      cloud_inbox_(std::move(cloud_inbox)),
      rng_(config_.seed ^ 0x9B1E) {}

Status PinedRqPpCollector::Start() {
  if (started_) return Status::FailedPrecondition("already started");
  auto binning = index::DomainBinning::Create(config_.dataset.domain_min,
                                              config_.dataset.domain_max,
                                              config_.dataset.bin_width);
  if (!binning.ok()) return binning.status();
  binning_.emplace(std::move(binning).ValueOrDie());
  started_ = true;
  return OpenInterval();
}

Status PinedRqPpCollector::OpenInterval() {
  Stopwatch watch;
  auto tmpl = index::IndexTemplate::Create(*binning_, config_.fanout,
                                           config_.epsilon, &rng_);
  if (!tmpl.ok()) return tmpl.status();
  template_.emplace(tmpl->noise_index());
  table_.emplace();
  schedule_.emplace(tmpl->leaf_noise(), &rng_);
  removed_.clear();
  progress_ = 0;
  real_count_ = 0;
  dummy_count_ = 0;

  auto codec = record::SecureRecordCodec::Create(
      key_manager_.RecordKey(pn_), &config_.dataset.parser->schema(), &rng_);
  if (!codec.ok()) return codec.status();
  codec_.emplace(std::move(codec).ValueOrDie());

  net::Message start;
  start.type = net::MessageType::kPublicationStart;
  start.pn = pn_;
  cloud_inbox_->Push(std::move(start));

  init_millis_ = watch.ElapsedMillis();
  return Status::OK();
}

Status PinedRqPpCollector::EmitDummy(uint32_t leaf) {
  // Dummies represent pre-sampled positive noise: no template update, but
  // the matching table must link them to their leaf.
  uint64_t tag = rng_.NextU64();
  FRESQUE_RETURN_NOT_OK(table_->Add(tag, leaf));
  auto ct = codec_->EncryptDummy(config_.dummy_padding_len);
  if (!ct.ok()) return ct.status();
  net::Message m;
  m.type = net::MessageType::kCloudTaggedRecord;
  m.pn = pn_;
  m.leaf = tag;
  m.payload = std::move(*ct);
  cloud_inbox_->Push(std::move(m));
  ++dummy_count_;
  return Status::OK();
}

Status PinedRqPpCollector::ReleaseDueDummies(double progress) {
  for (uint32_t leaf : schedule_->Due(progress)) {
    FRESQUE_RETURN_NOT_OK(EmitDummy(leaf));
  }
  return Status::OK();
}

Status PinedRqPpCollector::Ingest(std::string_view line) {
  if (!started_) return Status::FailedPrecondition("not started");
  FRESQUE_RETURN_NOT_OK(ReleaseDueDummies(progress_));

  // Parser.
  auto rec = config_.dataset.parser->Parse(line);
  if (!rec.ok()) {
    ++parse_errors_;
    return Status::OK();
  }
  auto v = rec->IndexedValue(config_.dataset.parser->schema());
  if (!v.ok() || *v < binning_->domain_min() || *v >= binning_->domain_max()) {
    ++parse_errors_;
    return Status::OK();
  }

  // Checker: O(log_k n) descent to the leaf, then the negativity test.
  size_t leaf = template_->WalkToLeaf(*v);
  ++real_count_;
  if (template_->leaf_count(leaf) < 0) {
    // Record satisfies one unit of negative noise: buffered at the
    // collector until publish, but still counted into the template.
    template_->AddAlongPath(leaf, 1);
    removed_.emplace_back(leaf, std::move(*rec));
    return Status::OK();
  }

  // Enricher: random id decouples the streamed record from its leaf.
  uint64_t tag = rng_.NextU64();

  // Updater: O(log_k n) path update + matching-table entry.
  template_->AddAlongPath(leaf, 1);
  FRESQUE_RETURN_NOT_OK(table_->Add(tag, static_cast<uint32_t>(leaf)));

  // Encrypter.
  auto ct = codec_->EncryptRecord(*rec);
  if (!ct.ok()) return ct.status();
  net::Message m;
  m.type = net::MessageType::kCloudTaggedRecord;
  m.pn = pn_;
  m.leaf = tag;
  m.payload = std::move(*ct);
  cloud_inbox_->Push(std::move(m));
  return Status::OK();
}

Status PinedRqPpCollector::Publish() {
  if (!started_) return Status::FailedPrecondition("not started");
  FRESQUE_RETURN_NOT_OK(ReleaseDueDummies(1.0));

  Stopwatch watch;
  PublishReport report;
  report.pn = pn_;
  report.real_records = real_count_;
  report.dummy_records = dummy_count_;
  report.removed_records = removed_.size();

  // Synchronous publishing tasks: sequentially encrypt removed records
  // into fixed-size overflow arrays, then ship index + matching table.
  std::vector<RemovedRecord> removed;
  removed.reserve(removed_.size());
  for (auto& [leaf, rec] : removed_) {
    auto ct = codec_->EncryptRecord(rec);
    if (!ct.ok()) return ct.status();
    removed.push_back({leaf, std::move(*ct)});
  }
  auto encoded =
      EncodePublication(config_, key_manager_, pn_, std::move(*template_),
                        std::move(removed), &*codec_, &rng_);
  if (!encoded.ok()) return encoded.status();

  net::Message table_msg;
  table_msg.type = net::MessageType::kMatchingTable;
  table_msg.pn = pn_;
  table_msg.payload = net::EncodeMatchingTable(*table_);
  cloud_inbox_->Push(std::move(table_msg));

  net::Message pub;
  pub.type = net::MessageType::kIndexPublication;
  pub.pn = pn_;
  pub.payload = std::move(encoded->payload);
  cloud_inbox_->Push(std::move(pub));

  // Synchronous: the next interval cannot open until this completes.
  report.dispatcher_millis = init_millis_ + watch.ElapsedMillis();
  reports_.push_back(report);
  ++pn_;
  return OpenInterval();
}

Status PinedRqPpCollector::Shutdown() {
  if (!started_) return Status::FailedPrecondition("never started");
  net::Message s;
  s.type = net::MessageType::kShutdown;
  cloud_inbox_->Push(std::move(s));
  return Status::OK();
}

}  // namespace engine
}  // namespace fresque
