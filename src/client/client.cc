#include "client/client.h"

#include <optional>
#include <string>
#include <unordered_set>

#include "record/secure_codec.h"

namespace fresque {
namespace client {

Client::Client(crypto::KeyManager key_manager, const record::Schema* schema)
    : key_manager_(std::move(key_manager)), schema_(schema) {}

Status Client::DecryptInto(const std::vector<cloud::ResultRecord>& batch,
                           const index::RangeQuery& q,
                           std::vector<record::Record>* out) {
  // Group by publication to build each codec once.
  uint64_t current_pn = 0;
  bool have_codec = false;
  std::optional<record::SecureRecordCodec> codec;

  for (const auto& rr : batch) {
    if (!have_codec || rr.pn != current_pn) {
      auto c = record::SecureRecordCodec::Create(
          key_manager_.RecordKey(rr.pn), schema_, &rng_);
      if (!c.ok()) return c.status();
      codec.emplace(std::move(c).ValueOrDie());
      current_pn = rr.pn;
      have_codec = true;
    }
    auto opened = codec->Decrypt(rr.e_record);
    if (!opened.ok()) return opened.status();
    if (opened->is_dummy) continue;
    auto v = opened->rec.IndexedValue(*schema_);
    if (!v.ok()) return v.status();
    if (*v >= q.lo && *v <= q.hi) {
      out->push_back(std::move(opened->rec));
    }
  }
  return Status::OK();
}

Result<std::vector<record::Record>> Client::Query(
    const cloud::CloudServer& server, const index::RangeQuery& q) {
  auto result = server.ExecuteQuery(q);
  if (!result.ok()) return result.status();
  return Decrypt(*result, q);
}

Result<std::vector<record::Record>> Client::Decrypt(
    const cloud::QueryResult& result, const index::RangeQuery& q) {
  std::vector<record::Record> records;
  FRESQUE_RETURN_NOT_OK(DecryptInto(result.indexed_records, q, &records));
  FRESQUE_RETURN_NOT_OK(DecryptInto(result.overflow_records, q, &records));
  FRESQUE_RETURN_NOT_OK(DecryptInto(result.unindexed_records, q, &records));
  return records;
}

Result<std::vector<record::Record>> Client::QueryMulti(
    const cloud::CloudServer& server,
    const std::vector<index::RangeQuery>& ranges) {
  // Gather ciphertexts across ranges, dedup on (pn, e-record) — fresh
  // per-record IVs make the ciphertext a unique handle — then decrypt
  // once per distinct record against the union predicate.
  std::unordered_set<std::string> seen;
  std::vector<cloud::ResultRecord> unique;
  for (const auto& q : ranges) {
    auto result = server.ExecuteQuery(q);
    if (!result.ok()) return result.status();
    for (auto* batch : {&result->indexed_records, &result->overflow_records,
                        &result->unindexed_records}) {
      for (auto& rr : *batch) {
        if (seen.emplace(rr.e_record.begin(), rr.e_record.end()).second) {
          unique.push_back(std::move(rr));
        }
      }
    }
  }

  std::vector<record::Record> records;
  for (const auto& rr : unique) {
    auto c = record::SecureRecordCodec::Create(
        key_manager_.RecordKey(rr.pn), schema_, &rng_);
    if (!c.ok()) return c.status();
    auto opened = c->Decrypt(rr.e_record);
    if (!opened.ok()) return opened.status();
    if (opened->is_dummy) continue;
    auto v = opened->rec.IndexedValue(*schema_);
    if (!v.ok()) return v.status();
    for (const auto& q : ranges) {
      if (*v >= q.lo && *v <= q.hi) {
        records.push_back(std::move(opened->rec));
        break;
      }
    }
  }
  return records;
}

Status Client::VerifyPublication(const cloud::CloudServer& server,
                                 uint64_t pn) const {
  auto evidence = server.PublicationEvidence(pn);
  if (!evidence.ok()) return evidence.status();
  return net::VerifyIndexPublicationPayload(*evidence,
                                            key_manager_.IndexMacKey(pn));
}

Result<QueryAccuracy> Client::QueryWithGroundTruth(
    const cloud::CloudServer& server, const index::RangeQuery& q,
    const std::vector<record::Record>& ground_truth) {
  auto records = Query(server, q);
  if (!records.ok()) return records.status();

  QueryAccuracy acc;
  acc.returned = records->size();
  for (const auto& rec : ground_truth) {
    auto v = rec.IndexedValue(*schema_);
    if (!v.ok()) return v.status();
    if (*v >= q.lo && *v <= q.hi) ++acc.expected;
  }
  // Every returned record passed the exact predicate in DecryptInto.
  acc.matched = records->size();
  return acc;
}

}  // namespace client
}  // namespace fresque
