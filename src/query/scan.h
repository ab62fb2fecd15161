#ifndef FRESQUE_QUERY_SCAN_H_
#define FRESQUE_QUERY_SCAN_H_

#include "common/status.h"
#include "index/index.h"
#include "query/context.h"
#include "query/result.h"
#include "query/view.h"

namespace fresque {
namespace query {

/// Scans every publication of an immutable view for `q`, appending
/// ciphertexts to `out`. Each publication is walked down to the leaves
/// `q` covers; their postings are read through the storage's zero-copy
/// batch path (`SegmentStorage::VisitAddresses`) in fixed-size chunks
/// with `ctx` consulted between chunks, then their non-empty overflow
/// slots are appended. Runs with no server lock held — the view pins all
/// storage it touches.
Status ScanView(const QueryView& view, const index::RangeQuery& q,
                const QueryContext& ctx, QueryResult* out);

}  // namespace query
}  // namespace fresque

#endif  // FRESQUE_QUERY_SCAN_H_
