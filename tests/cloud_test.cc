#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string_view>
#include <vector>

#include "cloud/server.h"
#include "cloud/storage.h"
#include "crypto/chacha20.h"
#include "index/index.h"
#include "index/matching.h"
#include "index/overflow.h"
#include "net/payloads.h"
#include "payload_util.h"

namespace fresque {
namespace cloud {
namespace {

index::DomainBinning TinyBinning() {
  auto b = index::DomainBinning::Create(0, 10, 1);  // 10 leaves
  return std::move(b).ValueOrDie();
}

// ---------------------------------------------------------------- Storage

TEST(SegmentStorageTest, AppendReadRoundTrip) {
  SegmentStorage storage(64);  // tiny segments to force rollover
  std::vector<PhysicalAddress> addrs;
  for (int i = 0; i < 20; ++i) {
    Bytes rec(10, static_cast<uint8_t>(i));
    addrs.push_back(storage.Append(rec));
  }
  EXPECT_GT(storage.num_segments(), 1u);
  EXPECT_EQ(storage.num_records(), 20u);
  EXPECT_EQ(storage.total_bytes(), 200u);
  for (int i = 0; i < 20; ++i) {
    auto rec = storage.Read(addrs[i]);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(*rec, Bytes(10, static_cast<uint8_t>(i)));
  }
}

TEST(SegmentStorageTest, OversizedRecordStillStored) {
  SegmentStorage storage(16);
  Bytes big(100, 0x7);
  auto addr = storage.Append(big);
  auto back = storage.Read(addr);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, big);
}

TEST(SegmentStorageTest, ReadRejectsBadAddress) {
  SegmentStorage storage;
  storage.Append(Bytes(8, 1));
  PhysicalAddress bad{.segment = 9, .offset = 0, .length = 8};
  EXPECT_FALSE(storage.Read(bad).ok());
  PhysicalAddress past{.segment = 0, .offset = 4, .length = 100};
  EXPECT_FALSE(storage.Read(past).ok());
}

// ------------------------------------------------------------- CloudServer

TEST(CloudServerTest, LifecycleErrors) {
  CloudServer server(TinyBinning());
  EXPECT_TRUE(server.StartPublication(0).ok());
  EXPECT_EQ(server.StartPublication(0).code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(server.IngestRecord(7, 0, Bytes{1}).ok());  // unknown pn

  auto pub = MakePublication(server.binning(), std::vector<int64_t>(10, 1));
  EXPECT_TRUE(server.PublishIndexed(0, std::move(pub)).ok());
  // Double publish and post-publish ingest both fail.
  auto pub2 = MakePublication(server.binning(), std::vector<int64_t>(10, 1));
  EXPECT_FALSE(server.PublishIndexed(0, std::move(pub2)).ok());
  EXPECT_FALSE(server.IngestRecord(0, 1, Bytes{1}).ok());
}

// Sorted ciphertexts of a whole-domain query.
std::vector<Bytes> AllCiphertexts(const CloudServer& server) {
  auto r = server.ExecuteQuery({0.0, 9.9});
  EXPECT_TRUE(r.ok());
  std::vector<Bytes> out;
  for (const auto& rr : r->indexed_records) out.push_back(rr.e_record);
  auto view = [](const Bytes& b) {
    return std::string_view(reinterpret_cast<const char*>(b.data()),
                            b.size());
  };
  std::sort(out.begin(), out.end(), [&](const Bytes& a, const Bytes& b) {
    return view(a) < view(b);
  });
  return out;
}

TEST(CloudServerTest, IngestRecordsMatchesOneCallPerRecord) {
  crypto::SecureRandom rng(11);
  std::vector<std::pair<uint32_t, Bytes>> records;
  std::vector<int64_t> counts(10, 0);
  for (int i = 0; i < 300; ++i) {
    const auto leaf = static_cast<uint32_t>(rng.NextBounded(10));
    Bytes rec(1 + rng.NextBounded(90));
    rng.Fill(rec.data(), rec.size());
    records.emplace_back(leaf, std::move(rec));
    ++counts[leaf];
  }

  CloudServer one(TinyBinning());
  CloudServer runs(TinyBinning());
  ASSERT_TRUE(one.StartPublication(0).ok());
  ASSERT_TRUE(runs.StartPublication(0).ok());
  for (const auto& [leaf, rec] : records) {
    ASSERT_TRUE(one.IngestRecord(0, leaf, rec).ok());
  }
  // Uneven runs, including an empty one.
  std::vector<LeafRecord> views;
  for (const auto& [leaf, rec] : records) views.push_back({leaf, rec});
  const std::span<const LeafRecord> all(views);
  for (size_t at = 0, len = 0; at < all.size(); at += len, len = len * 2 + 1) {
    len = std::min(len, all.size() - at);
    ASSERT_TRUE(runs.IngestRecords(0, all.subspan(at, len)).ok());
  }
  EXPECT_EQ(runs.total_records(), one.total_records());
  EXPECT_EQ(runs.total_bytes(), one.total_bytes());

  ASSERT_TRUE(
      one.PublishIndexed(0, MakePublication(one.binning(), counts)).ok());
  ASSERT_TRUE(
      runs.PublishIndexed(0, MakePublication(runs.binning(), counts)).ok());
  EXPECT_EQ(runs.CurrentView()->Find(0)->postings,
            one.CurrentView()->Find(0)->postings);
  EXPECT_EQ(AllCiphertexts(runs), AllCiphertexts(one));
  EXPECT_EQ(runs.total_bytes(), one.total_bytes());
}

TEST(CloudServerTest, IngestRecordsRejectsAWholeRunLikeOneRecord) {
  CloudServer server(TinyBinning());
  const Bytes a{1, 2};
  const Bytes b{3};
  const std::vector<LeafRecord> run{{1, a}, {2, b}};

  // Unknown publication: the run fails with the single-record status.
  const Status one = server.IngestRecord(4, 1, a);
  const Status whole = server.IngestRecords(4, run);
  EXPECT_EQ(whole.code(), StatusCode::kNotFound);
  EXPECT_EQ(whole.ToString(), one.ToString());

  // Published publication: same, and nothing of the run is stored.
  ASSERT_TRUE(server.StartPublication(4).ok());
  ASSERT_TRUE(server.IngestRecords(4, run).ok());
  ASSERT_TRUE(server
                  .PublishIndexed(4, MakePublication(server.binning(),
                                                     {0, 1, 1, 0, 0, 0, 0, 0,
                                                      0, 0}))
                  .ok());
  const size_t stored = server.total_records();
  const size_t bytes = server.total_bytes();
  const Status late_one = server.IngestRecord(4, 1, a);
  const Status late_whole = server.IngestRecords(4, run);
  EXPECT_EQ(late_whole.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(late_whole.ToString(), late_one.ToString());
  EXPECT_EQ(server.total_records(), stored);
  EXPECT_EQ(server.total_bytes(), bytes);
}

TEST(CloudServerTest, MetadataMatchingGroupsByLeaf) {
  CloudServer server(TinyBinning());
  ASSERT_TRUE(server.StartPublication(0).ok());
  // 3 records in leaf 2, 1 in leaf 5.
  (void)server.IngestRecord(0, 2, Bytes{1});
  (void)server.IngestRecord(0, 2, Bytes{2});
  (void)server.IngestRecord(0, 5, Bytes{3});
  (void)server.IngestRecord(0, 2, Bytes{4});

  std::vector<int64_t> counts(10, 0);
  counts[2] = 3;
  counts[5] = 1;
  auto stats = server.PublishIndexed(
      0, MakePublication(server.binning(), counts));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records_matched, 4u);

  // Query leaf 2 only: [2, 2.5].
  auto result = server.ExecuteQuery({2.0, 2.5});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->indexed_records.size(), 3u);
  // Query everything.
  auto all = server.ExecuteQuery({0.0, 9.9});
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->indexed_records.size(), 4u);
}

TEST(CloudServerTest, NegativeLeafIsPrunedButOthersSurvive) {
  CloudServer server(TinyBinning());
  ASSERT_TRUE(server.StartPublication(0).ok());
  (void)server.IngestRecord(0, 2, Bytes{1});
  (void)server.IngestRecord(0, 3, Bytes{2});
  std::vector<int64_t> counts(10, 0);
  counts[2] = -1;  // noisy count went negative
  counts[3] = 1;
  auto stats =
      server.PublishIndexed(0, MakePublication(server.binning(), counts));
  ASSERT_TRUE(stats.ok());
  auto result = server.ExecuteQuery({0.0, 9.9});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->indexed_records.size(), 1u);  // leaf 2 unreachable
  EXPECT_EQ(result->indexed_records[0].e_record, Bytes{2});
}

TEST(CloudServerTest, TaggedMatchingRebuildsPointers) {
  CloudServer server(TinyBinning());
  ASSERT_TRUE(server.StartPublication(3).ok());
  index::MatchingTable table;
  (void)table.Add(111, 4);
  (void)table.Add(222, 4);
  (void)table.Add(333, 8);
  (void)server.IngestTagged(3, 111, Bytes{0xA});
  (void)server.IngestTagged(3, 222, Bytes{0xB});
  (void)server.IngestTagged(3, 333, Bytes{0xC});

  std::vector<int64_t> counts(10, 0);
  counts[4] = 2;
  counts[8] = 1;
  auto stats = server.PublishWithMatchingTable(
      3, MakePublication(server.binning(), counts), table);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records_matched, 3u);

  auto result = server.ExecuteQuery({4.0, 4.9});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->indexed_records.size(), 2u);
}

TEST(CloudServerTest, TaggedMatchingDropsMissingTags) {
  // A streamed tag with no matching-table entry joins to nothing: the
  // publication still installs, the orphan record is stored but
  // unreachable, and the rest of the join is unaffected.
  CloudServer server(TinyBinning());
  ASSERT_TRUE(server.StartPublication(0).ok());
  (void)server.IngestTagged(0, 999, Bytes{1});  // no table entry
  (void)server.IngestTagged(0, 111, Bytes{2});
  index::MatchingTable table;
  (void)table.Add(111, 4);
  std::vector<int64_t> counts(10, 0);
  counts[4] = 1;
  auto stats = server.PublishWithMatchingTable(
      0, MakePublication(server.binning(), counts), table);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records_matched, 1u);
  auto all = server.ExecuteQuery({0.0, 9.9});
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->indexed_records.size(), 1u);
  EXPECT_EQ(all->indexed_records[0].e_record, Bytes{2});
}

TEST(CloudServerTest, OpenPublicationFiltersByLeafInterval) {
  CloudServer server(TinyBinning());
  ASSERT_TRUE(server.StartPublication(0).ok());
  (void)server.IngestRecord(0, 1, Bytes{1});
  (void)server.IngestRecord(0, 7, Bytes{2});
  // No publish: unindexed path.
  auto result = server.ExecuteQuery({1.0, 1.9});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->unindexed_records.size(), 1u);
  EXPECT_EQ(result->indexed_records.size(), 0u);
  auto all = server.ExecuteQuery({0.0, 9.9});
  EXPECT_EQ(all->unindexed_records.size(), 2u);
}

TEST(CloudServerTest, OverflowSlotsReturnedForTouchedLeaves) {
  CloudServer server(TinyBinning());
  ASSERT_TRUE(server.StartPublication(0).ok());
  crypto::SecureRandom rng(1);
  auto layout = index::IndexLayout::Create(10, 4);
  std::vector<int64_t> counts(10, 1);
  auto idx = index::HistogramIndex::FromLeafCounts(
      std::move(layout).ValueOrDie(), server.binning(), counts);
  index::OverflowArrays ovf(10, 2);
  (void)ovf.Insert(3, Bytes{0xEE}, &rng);
  ovf.ForEachEmptySlot([&](Bytes* slot) { *slot = rng.RandomBytes(4); });
  auto stats = server.PublishIndexed(
      0, SignedPayload(net::IndexPublication(std::move(idx).ValueOrDie(),
                                             std::move(ovf))));
  ASSERT_TRUE(stats.ok());

  auto result = server.ExecuteQuery({3.0, 3.5});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->overflow_records.size(), 2u);  // real + padding slot
}

TEST(CloudServerTest, ApproximateCountSumsPublishedIndexes) {
  CloudServer server(TinyBinning());
  for (uint64_t pn = 0; pn < 2; ++pn) {
    ASSERT_TRUE(server.StartPublication(pn).ok());
    std::vector<int64_t> counts(10, 0);
    counts[3] = 5 + static_cast<int64_t>(pn);
    counts[7] = 2;
    ASSERT_TRUE(
        server
            .PublishIndexed(pn, MakePublication(server.binning(), counts))
            .ok());
  }
  // Leaf 3 only: 5 + 6 across the two publications.
  EXPECT_EQ(server.ApproximateCount({3.0, 3.9}), 11);
  // Whole domain: 5+2 + 6+2.
  EXPECT_EQ(server.ApproximateCount({0.0, 9.9}), 15);
  // Open publications contribute nothing.
  ASSERT_TRUE(server.StartPublication(9).ok());
  (void)server.IngestRecord(9, 3, Bytes{1});
  EXPECT_EQ(server.ApproximateCount({3.0, 3.9}), 11);
}

TEST(CloudServerTest, QuerySpansMultiplePublications) {
  CloudServer server(TinyBinning());
  for (uint64_t pn = 0; pn < 3; ++pn) {
    ASSERT_TRUE(server.StartPublication(pn).ok());
    (void)server.IngestRecord(pn, 5, Bytes{static_cast<uint8_t>(pn)});
    std::vector<int64_t> counts(10, 0);
    counts[5] = 1;
    ASSERT_TRUE(
        server
            .PublishIndexed(pn, MakePublication(server.binning(), counts))
            .ok());
  }
  auto result = server.ExecuteQuery({5.0, 5.5});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->indexed_records.size(), 3u);
  // Each carries its publication number for client-side key derivation.
  std::set<uint64_t> pns;
  for (const auto& rr : result->indexed_records) pns.insert(rr.pn);
  EXPECT_EQ(pns.size(), 3u);
  EXPECT_EQ(server.num_publications(), 3u);
}

}  // namespace
}  // namespace cloud
}  // namespace fresque
