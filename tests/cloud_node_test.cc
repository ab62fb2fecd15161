#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "cloud/server.h"
#include "engine/cloud_node.h"
#include "engine/publication_tracker.h"
#include "index/index.h"
#include "index/matching.h"
#include "index/overflow.h"
#include "net/message.h"
#include "net/payloads.h"
#include "telemetry/telemetry.h"

namespace fresque {
namespace engine {
namespace {

index::DomainBinning TinyBinning() {
  auto b = index::DomainBinning::Create(0, 10, 1);
  return std::move(b).ValueOrDie();
}

Bytes PublicationPayload(const index::DomainBinning& binning,
                         std::vector<int64_t> counts) {
  auto layout = index::IndexLayout::Create(binning.num_bins(), 4);
  auto idx = index::HistogramIndex::FromLeafCounts(
      std::move(layout).ValueOrDie(), binning, counts);
  index::OverflowArrays ovf(binning.num_bins(), 1);
  return net::EncodeIndexPublication(net::IndexPublication(
      std::move(idx).ValueOrDie(), std::move(ovf)));
}

net::Message Msg(net::MessageType type, uint64_t pn, uint64_t leaf = 0,
                 Bytes payload = {}) {
  net::Message m;
  m.type = type;
  m.pn = pn;
  m.leaf = leaf;
  m.payload = std::move(payload);
  return m;
}

uint64_t CounterValue(const char* name) {
  return telemetry::Registry::Global()->GetCounter(name)->Value();
}

class CloudNodeTest : public ::testing::Test {
 protected:
  CloudNodeTest() : server_(TinyBinning()), node_(&server_) {
    node_.ReportPublicationsTo(publications_);
    node_.Start();
  }

  void Finish() {
    node_.inbox()->Push(Msg(net::MessageType::kShutdown, 0));
    node_.Shutdown();
  }

  cloud::CloudServer server_;
  std::shared_ptr<PublicationTracker> publications_ =
      std::make_shared<PublicationTracker>();
  CloudNode node_;
};

TEST_F(CloudNodeTest, IndexedFlowPublishesImmediately) {
  node_.inbox()->Push(Msg(net::MessageType::kPublicationStart, 0));
  node_.inbox()->Push(
      Msg(net::MessageType::kCloudRecord, 0, 3, Bytes{0xAA}));
  std::vector<int64_t> counts(10, 0);
  counts[3] = 1;
  node_.inbox()->Push(Msg(net::MessageType::kIndexPublication, 0, 0,
                          PublicationPayload(server_.binning(), counts)));
  Finish();
  EXPECT_TRUE(node_.first_error().ok()) << node_.first_error().ToString();
  ASSERT_EQ(node_.matching_stats().size(), 1u);
  EXPECT_EQ(node_.matching_stats()[0].records_matched, 1u);
}

TEST_F(CloudNodeTest, TaggedFlowWaitsForTableThenIndex) {
  node_.inbox()->Push(Msg(net::MessageType::kPublicationStart, 0));
  node_.inbox()->Push(
      Msg(net::MessageType::kCloudTaggedRecord, 0, 777, Bytes{0xBB}));
  index::MatchingTable table;
  (void)table.Add(777, 2);
  // Table first, then index: pairing must still complete.
  node_.inbox()->Push(Msg(net::MessageType::kMatchingTable, 0, 0,
                          net::EncodeMatchingTable(table)));
  std::vector<int64_t> counts(10, 0);
  counts[2] = 1;
  node_.inbox()->Push(Msg(net::MessageType::kIndexPublication, 0, 0,
                          PublicationPayload(server_.binning(), counts)));
  Finish();
  EXPECT_TRUE(node_.first_error().ok());
  ASSERT_EQ(node_.matching_stats().size(), 1u);
}

// A publication's table precedes its index on the link (docs/PROTOCOL.md,
// ordering guarantee 7). An index that arrives first ends its tagged
// publication once, as failed; the late table ends nothing.
TEST_F(CloudNodeTest, TaggedIndexBeforeTableFailsOnce) {
  const uint64_t failed_before = CounterValue("cloud.publications_failed");
  node_.inbox()->Push(Msg(net::MessageType::kPublicationStart, 0));
  node_.inbox()->Push(
      Msg(net::MessageType::kCloudTaggedRecord, 0, 42, Bytes{0xCC}));
  std::vector<int64_t> counts(10, 0);
  counts[1] = 1;
  node_.inbox()->Push(Msg(net::MessageType::kIndexPublication, 0, 0,
                          PublicationPayload(server_.binning(), counts)));
  index::MatchingTable table;
  (void)table.Add(42, 1);
  node_.inbox()->Push(Msg(net::MessageType::kMatchingTable, 0, 0,
                          net::EncodeMatchingTable(table)));
  Finish();
  Status outcome = publications_->Wait(0, std::chrono::milliseconds(0));
  EXPECT_TRUE(outcome.IsFailedPrecondition()) << outcome.ToString();
  EXPECT_EQ(CounterValue("cloud.publications_failed"), failed_before + 1);
  EXPECT_TRUE(node_.matching_stats().empty());
}

// A second table for a publication its index already ended is refused:
// the node records FailedPrecondition and keeps nothing of it, and the
// installed publication is untouched.
TEST_F(CloudNodeTest, TableAfterItsIndexIsRefused) {
  node_.inbox()->Push(Msg(net::MessageType::kPublicationStart, 0));
  node_.inbox()->Push(
      Msg(net::MessageType::kCloudTaggedRecord, 0, 777, Bytes{0xBB}));
  index::MatchingTable table;
  (void)table.Add(777, 2);
  node_.inbox()->Push(Msg(net::MessageType::kMatchingTable, 0, 0,
                          net::EncodeMatchingTable(table)));
  std::vector<int64_t> counts(10, 0);
  counts[2] = 1;
  node_.inbox()->Push(Msg(net::MessageType::kIndexPublication, 0, 0,
                          PublicationPayload(server_.binning(), counts)));
  node_.inbox()->Push(Msg(net::MessageType::kMatchingTable, 0, 0,
                          net::EncodeMatchingTable(table)));
  Finish();
  EXPECT_TRUE(node_.first_error().IsFailedPrecondition())
      << node_.first_error().ToString();
  Status outcome = publications_->Wait(0, std::chrono::milliseconds(0));
  EXPECT_TRUE(outcome.ok()) << outcome.ToString();
  EXPECT_EQ(node_.matching_stats().size(), 1u);
}

// A table that fails to decode is kept as its failure: the index that
// follows it ends the publication with the decode error.
TEST_F(CloudNodeTest, UndecodableTableFailsItsPublicationAtTheIndex) {
  const uint64_t failed_before = CounterValue("cloud.publications_failed");
  node_.inbox()->Push(Msg(net::MessageType::kPublicationStart, 0));
  node_.inbox()->Push(
      Msg(net::MessageType::kCloudTaggedRecord, 0, 42, Bytes{0xCC}));
  node_.inbox()->Push(
      Msg(net::MessageType::kMatchingTable, 0, 0, Bytes{1, 2, 3}));
  std::vector<int64_t> counts(10, 0);
  counts[1] = 1;
  node_.inbox()->Push(Msg(net::MessageType::kIndexPublication, 0, 0,
                          PublicationPayload(server_.binning(), counts)));
  Finish();
  Status outcome = publications_->Wait(0, std::chrono::milliseconds(0));
  EXPECT_TRUE(outcome.IsCorruption()) << outcome.ToString();
  EXPECT_TRUE(node_.first_error().IsCorruption())
      << node_.first_error().ToString();
  EXPECT_EQ(CounterValue("cloud.publications_failed"), failed_before + 1);
  EXPECT_TRUE(node_.matching_stats().empty());
}

TEST_F(CloudNodeTest, BadPayloadIsRecordedNotFatal) {
  const uint64_t failed_before = CounterValue("cloud.publications_failed");
  node_.inbox()->Push(Msg(net::MessageType::kPublicationStart, 0));
  node_.inbox()->Push(
      Msg(net::MessageType::kIndexPublication, 0, 0, Bytes{1, 2, 3}));
  // Node keeps running after the decode error.
  node_.inbox()->Push(
      Msg(net::MessageType::kCloudRecord, 0, 1, Bytes{0xDD}));
  Finish();
  EXPECT_FALSE(node_.first_error().ok());
  EXPECT_EQ(server_.total_records(), 1u);  // later frame still applied
  // The decode failure ends publication 0 like any failed install.
  Status outcome = publications_->Wait(0, std::chrono::milliseconds(0));
  EXPECT_FALSE(outcome.ok());
  EXPECT_FALSE(outcome.IsDeadlineExceeded()) << outcome.ToString();
  EXPECT_EQ(CounterValue("cloud.publications_failed"), failed_before + 1);
}

TEST_F(CloudNodeTest, UnexpectedFrameTypeIsError) {
  node_.inbox()->Push(Msg(net::MessageType::kRawLine, 0));
  Finish();
  EXPECT_FALSE(node_.first_error().ok());
}

TEST_F(CloudNodeTest, InterleavedPublicationsStayIndependent) {
  node_.inbox()->Push(Msg(net::MessageType::kPublicationStart, 0));
  node_.inbox()->Push(Msg(net::MessageType::kPublicationStart, 1));
  node_.inbox()->Push(
      Msg(net::MessageType::kCloudRecord, 0, 1, Bytes{0x00}));
  node_.inbox()->Push(
      Msg(net::MessageType::kCloudRecord, 1, 1, Bytes{0x01}));
  std::vector<int64_t> counts(10, 0);
  counts[1] = 1;
  node_.inbox()->Push(Msg(net::MessageType::kIndexPublication, 1, 0,
                          PublicationPayload(server_.binning(), counts)));
  node_.inbox()->Push(Msg(net::MessageType::kIndexPublication, 0, 0,
                          PublicationPayload(server_.binning(), counts)));
  Finish();
  EXPECT_TRUE(node_.first_error().ok());
  EXPECT_EQ(node_.matching_stats().size(), 2u);
  EXPECT_EQ(server_.num_publications(), 2u);
}

// Payloads of publication `pn`'s stored records, in storage order.
std::vector<Bytes> Stored(const cloud::CloudServer& server, uint64_t pn) {
  std::vector<Bytes> out;
  EXPECT_TRUE(server
                  .ForEachStoredRecord(pn,
                                       [&out](const cloud::PhysicalAddress&,
                                              const uint8_t* d, size_t n) {
                                         out.emplace_back(d, d + n);
                                         return Status::OK();
                                       })
                  .ok());
  return out;
}

// Every frame below is popped in one batch (fewer than net::kMaxBatch,
// pushed before the node starts). Record frames split into runs at each publication or
// frame-type change; each run is applied in link order, and the record
// counters stay exact per record, accepted or rejected.
TEST(CloudNodeRunTest, OneBatchSplitsIntoRunsAtEveryPublicationOrTypeChange) {
  cloud::CloudServer server(TinyBinning());
  CloudNode node(&server, /*mailbox_capacity=*/1024);
  std::vector<int64_t> counts(10, 0);
  counts[1] = counts[2] = counts[3] = 1;
  using T = net::MessageType;
  std::vector<net::Message> frames;
  frames.push_back(Msg(T::kPublicationStart, 0));
  frames.push_back(Msg(T::kCloudRecord, 0, 1, Bytes{0x01}));
  frames.push_back(Msg(T::kCloudRecord, 0, 2, Bytes{0x02}));
  frames.push_back(Msg(T::kPublicationStart, 1));
  frames.push_back(Msg(T::kCloudRecord, 1, 4, Bytes{0x11}));
  frames.push_back(Msg(T::kCloudRecord, 7, 4, Bytes{0x77}));  // unknown pn
  frames.push_back(Msg(T::kCloudRecord, 1, 5, Bytes{0x12}));
  frames.push_back(Msg(T::kCloudRecord, 0, 3, Bytes{0x03}));
  frames.push_back(Msg(T::kIndexPublication, 0, 0,
                       PublicationPayload(server.binning(), counts)));
  frames.push_back(Msg(T::kCloudRecord, 0, 1, Bytes{0x04}));  // published
  frames.push_back(Msg(T::kCloudRecord, 0, 1, Bytes{0x05}));  // published
  frames.push_back(Msg(T::kCloudRecord, 1, 6, Bytes{0x13}));
  frames.push_back(Msg(T::kShutdown, 0));
  const size_t n = frames.size();

  const uint64_t in_before = CounterValue("cloud.records_in");
  const uint64_t rejected_before = CounterValue("cloud.records_rejected");
  ASSERT_EQ(node.inbox()->PushBatch(frames.data(), n), n);
  node.Start();
  node.Shutdown();

  // The first failure is the unknown publication's record.
  EXPECT_EQ(node.first_error().code(), StatusCode::kNotFound)
      << node.first_error().ToString();
  // Publication 0 installed with exactly the three records ahead of its
  // index, in link order; publication 1 holds its three, in order.
  ASSERT_EQ(node.matching_stats().size(), 1u);
  EXPECT_EQ(node.matching_stats()[0].records_matched, 3u);
  EXPECT_EQ(Stored(server, 0), (std::vector<Bytes>{{0x01}, {0x02}, {0x03}}));
  EXPECT_EQ(Stored(server, 1), (std::vector<Bytes>{{0x11}, {0x12}, {0x13}}));
  EXPECT_EQ(server.total_records(), 6u);
  EXPECT_EQ(CounterValue("cloud.records_in") - in_before, 6u);
  EXPECT_EQ(CounterValue("cloud.records_rejected") - rejected_before, 3u);
}

}  // namespace
}  // namespace engine
}  // namespace fresque
