#include "query/scan.h"

#include <algorithm>

#include "telemetry/telemetry.h"

namespace fresque {
namespace query {
namespace {

/// Number of postings materialized per deadline check. One batch bounds
/// the cost of an expired query discovered mid-scan.
constexpr size_t kScanBatch = 256;

Status ScanPublication(const InstalledPublication& pub,
                       const index::RangeQuery& q, const QueryContext& ctx,
                       QueryResult* out) {
  const std::vector<size_t> leaves = pub.index.Traverse(q);
  size_t postings = 0;
  for (size_t leaf : leaves) {
    if (leaf < pub.postings.size()) postings += pub.postings[leaf].size();
  }
  out->indexed_records.reserve(out->indexed_records.size() + postings);

  for (size_t leaf : leaves) {
    if (leaf < pub.postings.size()) {
      const auto& posting = pub.postings[leaf];
      for (size_t i = 0; i < posting.size(); i += kScanBatch) {
        FRESQUE_RETURN_NOT_OK(ctx.Check());
        size_t n = std::min(kScanBatch, posting.size() - i);
        FRESQUE_COUNTER_ADD("query.scan.records", n);
        FRESQUE_RETURN_NOT_OK(pub.storage.VisitAddresses(
            posting.data() + i, n,
            [&](const cloud::PhysicalAddress&, const uint8_t* data,
                size_t size) {
              out->indexed_records.push_back(
                  {pub.pn, Bytes(data, data + size)});
            }));
      }
    }
    if (leaf < pub.overflow.num_leaves()) {
      FRESQUE_RETURN_NOT_OK(ctx.Check());
      pub.overflow.ForEachSlot(leaf, [&](std::span<const uint8_t> slot) {
        if (!slot.empty()) {
          out->overflow_records.push_back(
              {pub.pn, Bytes(slot.begin(), slot.end())});
        }
      });
    }
  }
  return Status::OK();
}

}  // namespace

Status ScanView(const QueryView& view, const index::RangeQuery& q,
                const QueryContext& ctx, QueryResult* out) {
  for (const auto& pub : view.publications()) {
    FRESQUE_RETURN_NOT_OK(ctx.Check());
    FRESQUE_RETURN_NOT_OK(ScanPublication(*pub, q, ctx, out));
  }
  return Status::OK();
}

}  // namespace query
}  // namespace fresque
