#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "crypto/chacha20.h"
#include "index/index.h"
#include "index/matching.h"
#include "index/overflow.h"
#include "net/message.h"
#include "net/node.h"
#include "net/payloads.h"

namespace fresque {
namespace net {
namespace {

TEST(MessageTest, SerializeRoundTripAllTypes) {
  for (int t = 0; t <= static_cast<int>(MessageType::kPublicationAck); ++t) {
    Message m;
    m.type = static_cast<MessageType>(t);
    m.pn = 42;
    m.leaf = 0xDEADBEEFCAFEULL;
    m.dummy = (t % 2) == 0;
    m.payload = {1, 2, 3, 4, 5};
    auto back = Message::Deserialize(m.Serialize());
    ASSERT_TRUE(back.ok()) << "type " << t;
    EXPECT_EQ(back->type, m.type);
    EXPECT_EQ(back->pn, m.pn);
    EXPECT_EQ(back->leaf, m.leaf);
    EXPECT_EQ(back->dummy, m.dummy);
    EXPECT_EQ(back->payload, m.payload);
  }
}

TEST(MessageTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Message::Deserialize({}).ok());
  EXPECT_FALSE(Message::Deserialize({0xFF, 0xFF}).ok());
  Message m;
  m.type = MessageType::kRawLine;
  Bytes good = m.Serialize();
  good[0] = 200;  // unknown type id
  EXPECT_FALSE(Message::Deserialize(good).ok());
}

TEST(MessageTest, EveryTypeHasName) {
  for (int t = 0; t <= static_cast<int>(MessageType::kPublicationAck); ++t) {
    EXPECT_STRNE(MessageTypeToString(static_cast<MessageType>(t)), "?");
  }
}

TEST(NodeTest, ProcessesFramesInOrder) {
  auto inbox = MakeMailbox(16);
  std::vector<uint64_t> seen;
  Node node("t", inbox, [&](Message&& m) {
    if (m.type == MessageType::kShutdown) return false;
    seen.push_back(m.pn);
    return true;
  });
  node.Start();
  for (uint64_t i = 0; i < 10; ++i) {
    Message m;
    m.type = MessageType::kRawLine;
    m.pn = i;
    inbox->Push(std::move(m));
  }
  Message stop;
  stop.type = MessageType::kShutdown;
  inbox->Push(std::move(stop));
  node.Join();
  ASSERT_EQ(seen.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(seen[i], i);
  EXPECT_EQ(node.frames_processed(), 11u);
}

TEST(NodeTest, StopClosesInboxAndDrains) {
  auto inbox = MakeMailbox(16);
  std::atomic<int> handled{0};
  Node node("t", inbox, [&](Message&&) {
    ++handled;
    return true;
  });
  node.Start();
  for (int i = 0; i < 5; ++i) {
    Message m;
    m.type = MessageType::kRawLine;
    inbox->Push(std::move(m));
  }
  node.Stop();
  node.Join();
  EXPECT_EQ(handled.load(), 5);  // drained before exiting
}

TEST(NodeTest, DestructorJoinsCleanly) {
  auto inbox = MakeMailbox(4);
  { Node node("t", inbox, [](Message&&) { return true; }); }
  // Never started: destructor must not hang or crash.
  auto inbox2 = MakeMailbox(4);
  {
    Node node("t2", inbox2, [](Message&&) { return true; });
    node.Start();
  }  // destructor stops + joins
  SUCCEED();
}

Message Frame(uint64_t pn) {
  Message m;
  m.type = MessageType::kRawLine;
  m.pn = pn;
  return m;
}

// A batched node takes whatever is queued, up to kMaxBatch, from its very
// first pop: a backlog drains in full batches with no warm-up.
TEST(NodeTest, BacklogPopsInFullBatchesFromTheFirstPop) {
  constexpr size_t kBacklog = 8 * kMaxBatch;
  auto inbox = MakeMailbox(kBacklog);
  std::vector<Message> frames;
  for (uint64_t i = 0; i < kBacklog; ++i) frames.push_back(Frame(i));
  ASSERT_EQ(inbox->PushBatch(frames.data(), frames.size()), kBacklog);
  std::vector<size_t> pops;
  Node node("t", inbox, [&pops](std::vector<Message>& batch) {
    pops.push_back(batch.size());
    return true;
  });
  node.Start();
  node.Stop();
  node.Join();
  EXPECT_EQ(pops, std::vector<size_t>(kBacklog / kMaxBatch, kMaxBatch));
  EXPECT_EQ(node.frames_processed(), kBacklog);
}

// A lone frame on an idle inbox is handed over at once, in a pop of one:
// the node never holds a partial batch back waiting for more frames.
TEST(NodeTest, LoneFrameOnIdleInboxIsHandledWithoutWaiting) {
  auto inbox = MakeMailbox(16);
  std::promise<size_t> handled;
  Node node("t", inbox, [&handled](std::vector<Message>& batch) {
    handled.set_value(batch.size());
    return false;  // one pop is all this test needs
  });
  node.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // idle
  auto done = handled.get_future();
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(inbox->Push(Frame(7)));
  ASSERT_EQ(done.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(500));  // a wakeup, not a timeout
  EXPECT_EQ(done.get(), 1u);
  node.Join();
}

// Frames pushed while the node runs, in chunks of every size, reach the
// handler in link order across however many pops it takes.
TEST(NodeTest, BatchesKeepOrderAcrossPops) {
  constexpr uint64_t kFrames = 1000;
  auto inbox = MakeMailbox(4 * kMaxBatch);
  std::vector<uint64_t> seen;
  size_t pops = 0;
  Node node("t", inbox, [&](std::vector<Message>& batch) {
    ++pops;
    for (const Message& m : batch) seen.push_back(m.pn);
    return true;
  });
  node.Start();
  uint64_t next = 0;
  for (size_t chunk = 1; next < kFrames; chunk = chunk % 97 + 1) {
    std::vector<Message> frames;
    for (size_t j = 0; j < chunk && next < kFrames; ++j) {
      frames.push_back(Frame(next++));
    }
    ASSERT_EQ(inbox->PushBatch(frames.data(), frames.size()), frames.size());
  }
  node.Stop();
  node.Join();
  ASSERT_EQ(seen.size(), kFrames);
  for (uint64_t i = 0; i < kFrames; ++i) ASSERT_EQ(seen[i], i);
  EXPECT_GE(pops, kFrames / kMaxBatch);
}

TEST(PayloadsTest, TemplateRoundTrip) {
  auto binning = index::DomainBinning::Create(0, 100, 1);
  crypto::SecureRandom rng(1);
  auto tmpl = index::IndexTemplate::Create(std::move(binning).ValueOrDie(),
                                           8, 1.0, &rng);
  ASSERT_TRUE(tmpl.ok());
  auto back = DecodeTemplate(EncodeTemplate(tmpl->noise_index()));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->leaf_counts(), tmpl->noise_index().leaf_counts());
}

TEST(PayloadsTest, AlSnapshotRoundTrip) {
  std::vector<int64_t> al = {0, -3, 17, 1LL << 40, -9};
  auto back = DecodeAlSnapshot(EncodeAlSnapshot(al));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, al);
  EXPECT_FALSE(DecodeAlSnapshot({1, 2}).ok());
}

TEST(PayloadsTest, IndexPublicationRoundTrip) {
  auto binning = index::DomainBinning::Create(0, 50, 1);
  crypto::SecureRandom rng(2);
  auto tmpl = index::IndexTemplate::Create(std::move(binning).ValueOrDie(),
                                           4, 1.0, &rng);
  index::OverflowArrays ovf(50, 2);
  (void)ovf.Insert(3, Bytes{1, 2, 3}, &rng);
  ASSERT_TRUE(ovf.PadWithDummies([&] { return rng.RandomBytes(4); }).ok());
  IndexPublication pub(tmpl->noise_index(), std::move(ovf));
  auto bytes = EncodeIndexPublication(pub);
  auto back = DecodeIndexPublication(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->index.leaf_counts(), pub.index.leaf_counts());
  EXPECT_EQ(back->overflow.num_leaves(), 50u);
  EXPECT_FALSE(DecodeIndexPublication({0}).ok());
}

TEST(PayloadsTest, MatchingTableRoundTrip) {
  index::MatchingTable t;
  (void)t.Add(5, 1);
  (void)t.Add(6, 2);
  auto back = DecodeMatchingTable(EncodeMatchingTable(t));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 2u);
  EXPECT_EQ(*back->Lookup(6), 2u);
}

}  // namespace
}  // namespace net
}  // namespace fresque
