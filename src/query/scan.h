#ifndef FRESQUE_QUERY_SCAN_H_
#define FRESQUE_QUERY_SCAN_H_

#include "common/status.h"
#include "index/index.h"
#include "query/context.h"
#include "query/leaf_cache.h"
#include "query/result.h"
#include "query/view.h"

namespace fresque {
namespace query {

/// Number of postings materialized per deadline check. One batch bounds
/// the cost of an expired query discovered mid-scan.
inline constexpr size_t kScanBatch = 256;

/// Scans one installed publication for `q`, appending ciphertexts to
/// `out`. The walk is batched: leaf postings are visited through the
/// storage's zero-copy batch path (`SegmentStorage::VisitAddresses`) in
/// kScanBatch chunks instead of one bounds-checked copying Read per
/// record, and `ctx` is consulted between chunks. `cache` (optional)
/// serves leaf descriptors — value bounds, posting and overflow counts —
/// so result vectors are sized once and empty leaves are skipped without
/// touching the posting directory.
Status ScanPublication(const InstalledPublication& pub,
                       const index::RangeQuery& q, const QueryContext& ctx,
                       LeafCache* cache, QueryResult* out);

/// Scans every publication of an immutable view. Runs with no server
/// lock held — the view pins all storage it touches.
Status ScanView(const QueryView& view, const index::RangeQuery& q,
                const QueryContext& ctx, LeafCache* cache, QueryResult* out);

/// Builds the descriptor for `leaf` of `pub` (also the LeafCache miss
/// path; exposed for tests).
LeafDescriptor BuildLeafDescriptor(const InstalledPublication& pub,
                                   uint32_t leaf);

}  // namespace query
}  // namespace fresque

#endif  // FRESQUE_QUERY_SCAN_H_
