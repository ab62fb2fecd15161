#ifndef FRESQUE_QUERY_RESULT_H_
#define FRESQUE_QUERY_RESULT_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"

namespace fresque {
namespace query {

/// One ciphertext in a query result, tagged with the publication it
/// belongs to so the client can derive the right decryption key.
struct ResultRecord {
  uint64_t pn = 0;
  Bytes e_record;
};

/// Everything a range query returns from the cloud: ciphertexts only.
///
/// Lives in query/ (not cloud/) so the scan layer can fill results
/// without depending on the CloudServer headers.
struct QueryResult {
  /// Records reachable through published secure indexes.
  std::vector<ResultRecord> indexed_records;
  /// Overflow-array slots of the leaves the query touched.
  std::vector<ResultRecord> overflow_records;
  /// Records of still-open publications whose leaf interval overlaps the
  /// query (the paper's "unindexed data, processed one by one").
  std::vector<ResultRecord> unindexed_records;

  size_t TotalRecords() const {
    return indexed_records.size() + overflow_records.size() +
           unindexed_records.size();
  }
};

}  // namespace query
}  // namespace fresque

#endif  // FRESQUE_QUERY_RESULT_H_
