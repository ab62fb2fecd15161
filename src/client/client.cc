#include "client/client.h"

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "record/secure_codec.h"

namespace fresque {
namespace client {

Client::Client(crypto::KeyManager key_manager, const record::Schema* schema)
    : key_manager_(std::move(key_manager)), schema_(schema) {}

Status Client::DecryptInto(const std::vector<query::ResultRecord>& batch,
                           std::span<const index::RangeQuery> ranges,
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
    if (std::any_of(ranges.begin(), ranges.end(), [&](const auto& q) {
          return *v >= q.lo && *v <= q.hi;
        })) {
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
    const query::QueryResult& result, const index::RangeQuery& q) {
  std::vector<record::Record> records;
  for (const auto* batch : {&result.indexed_records, &result.overflow_records,
                            &result.unindexed_records}) {
    FRESQUE_RETURN_NOT_OK(DecryptInto(*batch, {&q, 1}, &records));
  }
  return records;
}

Result<std::vector<record::Record>> Client::QueryMulti(
    const cloud::CloudServer& server,
    const std::vector<index::RangeQuery>& ranges) {
  // Gather ciphertexts across ranges, dedup on (pn, e-record) — fresh
  // per-record IVs make the ciphertext a unique handle — then decrypt
  // once per distinct record against the union predicate.
  std::unordered_set<std::string> seen;
  std::vector<query::ResultRecord> unique;
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
  FRESQUE_RETURN_NOT_OK(DecryptInto(unique, ranges, &records));
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

  // The in-range ground truth as a multiset keyed on the serialized
  // record: each returned record that finds an unmatched copy there is
  // matched, so a false positive or a duplicate leaves matched < returned.
  const record::RecordCodec codec(schema_);
  auto key = [&](const record::Record& rec) -> Result<std::string> {
    auto bytes = codec.Serialize(rec);
    if (!bytes.ok()) return bytes.status();
    return std::string(bytes->begin(), bytes->end());
  };
  QueryAccuracy acc;
  acc.returned = records->size();
  std::unordered_map<std::string, size_t> unmatched;
  for (const auto& rec : ground_truth) {
    auto v = rec.IndexedValue(*schema_);
    if (!v.ok()) return v.status();
    if (*v < q.lo || *v > q.hi) continue;
    ++acc.expected;
    auto k = key(rec);
    if (!k.ok()) return k.status();
    ++unmatched[*k];
  }
  for (const auto& rec : *records) {
    auto k = key(rec);
    if (!k.ok()) return k.status();
    auto it = unmatched.find(*k);
    if (it != unmatched.end() && it->second > 0) {
      --it->second;
      ++acc.matched;
    }
  }
  return acc;
}

}  // namespace client
}  // namespace fresque
