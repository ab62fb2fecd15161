#ifndef FRESQUE_CLIENT_CLIENT_H_
#define FRESQUE_CLIENT_CLIENT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "cloud/server.h"
#include "common/result.h"
#include "crypto/chacha20.h"
#include "crypto/key_manager.h"
#include "index/index.h"
#include "record/record.h"
#include "record/schema.h"

namespace fresque {
namespace client {

/// Accuracy of one query against plaintext ground truth.
struct QueryAccuracy {
  size_t expected = 0;   ///< ground-truth matches
  size_t returned = 0;   ///< real records the client decrypted
  /// Returned records found among the in-range ground truth, each
  /// ground-truth record matching at most one returned record.
  size_t matched = 0;

  /// matched / expected; 1.0 when nothing was expected.
  double Recall() const {
    return expected == 0 ? 1.0
                         : static_cast<double>(matched) /
                               static_cast<double>(expected);
  }
};

/// The trusted query client (Figure 1): issues range queries against the
/// cloud, decrypts the ciphertext results with the per-publication keys,
/// discards dummies, and post-filters on the exact predicate (index
/// leaves are bin-granular, so the cloud over-returns by design).
class Client {
 public:
  /// `schema` must outlive the client; `key_manager` is shared with the
  /// collector.
  Client(crypto::KeyManager key_manager, const record::Schema* schema);

  /// Runs `q` end-to-end: cloud evaluation, decryption, dummy filtering,
  /// exact predicate post-filter. Records that fail to decrypt are
  /// errors — the cloud is honest-but-curious, so corruption means a bug.
  Result<std::vector<record::Record>> Query(const cloud::CloudServer& server,
                                            const index::RangeQuery& q);

  /// Decrypts a ciphertext result obtained elsewhere — e.g. from a
  /// shard::ShardedCloudServer fan-out — applying the same dummy filtering
  /// and exact predicate post-filter as Query.
  Result<std::vector<record::Record>> Decrypt(const query::QueryResult& result,
                                              const index::RangeQuery& q);

  /// Union of several ranges (disjunctive predicate), deduplicated: a
  /// record touched by overlapping ranges is decrypted and returned
  /// once. Dedup keys on the ciphertext — every e-record is unique
  /// thanks to its fresh CBC IV, even for equal plaintexts.
  Result<std::vector<record::Record>> QueryMulti(
      const cloud::CloudServer& server,
      const std::vector<index::RangeQuery>& ranges);

  /// Like Query, but additionally scores the result against
  /// `ground_truth` (all real records ever ingested).
  Result<QueryAccuracy> QueryWithGroundTruth(
      const cloud::CloudServer& server, const index::RangeQuery& q,
      const std::vector<record::Record>& ground_truth);

  /// Verifies the integrity tag of publication `pn` as stored at the
  /// cloud (defense in depth beyond honest-but-curious): recomputes the
  /// HMAC with this client's IndexMacKey. Corruption on mismatch.
  Status VerifyPublication(const cloud::CloudServer& server,
                           uint64_t pn) const;

  const crypto::KeyManager& key_manager() const { return key_manager_; }

 private:
  /// Decrypts one batch of result records into `out`, skipping dummies
  /// and keeping the records whose indexed value lies in one of `ranges`.
  /// Builds one codec per run of records from the same publication.
  Status DecryptInto(const std::vector<query::ResultRecord>& batch,
                     std::span<const index::RangeQuery> ranges,
                     std::vector<record::Record>* out);

  crypto::KeyManager key_manager_;
  const record::Schema* schema_;
  crypto::SecureRandom rng_;
};

}  // namespace client
}  // namespace fresque

#endif  // FRESQUE_CLIENT_CLIENT_H_
