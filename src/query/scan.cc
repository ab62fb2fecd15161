#include "query/scan.h"

#include <algorithm>

#include "telemetry/telemetry.h"

namespace fresque {
namespace query {

LeafDescriptor BuildLeafDescriptor(const InstalledPublication& pub,
                                   uint32_t leaf) {
  LeafDescriptor d;
  const index::DomainBinning& binning = pub.index.binning();
  d.lo = binning.LeafLow(leaf);
  d.hi = binning.LeafHigh(leaf);
  d.noisy_count = pub.index.leaf_count(leaf);
  if (leaf < pub.postings.size()) {
    d.postings = static_cast<uint32_t>(pub.postings[leaf].size());
  }
  if (leaf < pub.overflow.num_leaves()) {
    uint32_t used = 0;
    pub.overflow.ForEachSlot(leaf, [&](std::span<const uint8_t> slot) {
      if (!slot.empty()) ++used;
    });
    d.overflow_used = used;
  }
  return d;
}

Status ScanPublication(const InstalledPublication& pub,
                       const index::RangeQuery& q, const QueryContext& ctx,
                       LeafCache* cache, QueryResult* out) {
  std::vector<size_t> leaves = pub.index.Traverse(q);
  if (leaves.empty()) return Status::OK();

  // Descriptor pass: size the result append once and drop leaves with no
  // reachable records before the record walk.
  size_t expect_postings = 0;
  size_t expect_overflow = 0;
  std::vector<size_t> live;
  live.reserve(leaves.size());
  for (size_t leaf : leaves) {
    LeafDescriptor d;
    uint32_t leaf32 = static_cast<uint32_t>(leaf);
    if (cache != nullptr) {
      d = cache->GetOrBuild(pub.pn, leaf32,
                            [&] { return BuildLeafDescriptor(pub, leaf32); });
    } else {
      d = BuildLeafDescriptor(pub, leaf32);
    }
    if (d.postings == 0 && d.overflow_used == 0) continue;
    expect_postings += d.postings;
    expect_overflow += d.overflow_used;
    live.push_back(leaf);
  }
  out->indexed_records.reserve(out->indexed_records.size() + expect_postings);
  out->overflow_records.reserve(out->overflow_records.size() +
                                expect_overflow);

  for (size_t leaf : live) {
    if (leaf < pub.postings.size()) {
      const auto& posting = pub.postings[leaf];
      for (size_t i = 0; i < posting.size(); i += kScanBatch) {
        FRESQUE_RETURN_NOT_OK(ctx.Check());
        size_t n = std::min(kScanBatch, posting.size() - i);
        FRESQUE_COUNTER_ADD("query.scan.records", n);
        FRESQUE_RETURN_NOT_OK(pub.storage.VisitAddresses(
            posting.data() + i, n,
            [&](const cloud::PhysicalAddress& addr, const uint8_t* data,
                size_t size) {
              (void)addr;
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

Status ScanView(const QueryView& view, const index::RangeQuery& q,
                const QueryContext& ctx, LeafCache* cache, QueryResult* out) {
  for (const auto& pub : view.publications()) {
    FRESQUE_RETURN_NOT_OK(ctx.Check());
    FRESQUE_RETURN_NOT_OK(ScanPublication(*pub, q, ctx, cache, out));
  }
  return Status::OK();
}

}  // namespace query
}  // namespace fresque
