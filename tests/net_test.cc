#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "crypto/chacha20.h"
#include "index/index.h"
#include "index/matching.h"
#include "index/overflow.h"
#include "net/message.h"
#include "net/node.h"
#include "net/payloads.h"
#include "net/spare_buffers.h"
#include "telemetry/metrics.h"

namespace fresque {
namespace net {
namespace {

TEST(MessageTest, SerializeRoundTripAllTypes) {
  for (int t = 0; t <= static_cast<int>(MessageType::kShutdown); ++t) {
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
  good[0] = static_cast<uint8_t>(MessageType::kShutdown) + 1;
  EXPECT_FALSE(Message::Deserialize(good).ok());
}

TEST(MessageTest, EveryTypeHasName) {
  for (int t = 0; t <= static_cast<int>(MessageType::kShutdown); ++t) {
    EXPECT_STRNE(MessageTypeToString(static_cast<MessageType>(t)), "?");
  }
}

TEST(NodeTest, ProcessesFramesInOrder) {
  auto inbox = MakeMailbox(16);
  std::vector<uint64_t> seen;
  Node node("t", inbox, [&](std::vector<Message>& batch) {
    for (const auto& m : batch) {
      if (m.type == MessageType::kShutdown) return false;
      seen.push_back(m.pn);
    }
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
  Node node("t", inbox, [&](std::vector<Message>& batch) {
    handled += static_cast<int>(batch.size());
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
  { Node node("t", inbox, [](std::vector<Message>&) { return true; }); }
  // Never started: destructor must not hang or crash.
  auto inbox2 = MakeMailbox(4);
  {
    Node node("t2", inbox2, [](std::vector<Message>&) { return true; });
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

// Each of the three time counters sees only its own kind of time: the
// wait for a first frame is idle, a spinning handler is busy, and a
// handler waiting on a full downstream mailbox is blocked, not busy.
TEST(NodeTest, CountsBusyIdleAndBlockedTime) {
  using std::chrono::milliseconds;
  constexpr int64_t kPhaseMs = 100;
  constexpr uint64_t kMs = 1000000;
  auto* reg = telemetry::Registry::Global();
  auto has_counter = [reg](const std::string& name) {
    const auto snap = reg->Snapshot();
    return std::any_of(snap.counters.begin(), snap.counters.end(),
                       [&name](const auto& c) { return c.first == name; });
  };
  auto inbox = MakeMailbox(16);
  auto downstream = MakeMailbox(1);
  ASSERT_TRUE(downstream->Push(Frame(0)));  // full from the start
  std::promise<void> spun;
  Node node("timed", inbox, [&](std::vector<Message>& batch) {
    for (const Message& m : batch) {
      if (m.type == MessageType::kShutdown) return false;
      if (m.pn == 1) {
        const auto until = std::chrono::steady_clock::now() +
                           milliseconds(kPhaseMs);
        while (std::chrono::steady_clock::now() < until) {
        }
        spun.set_value();
      } else if (m.pn == 2) {
        EXPECT_TRUE(downstream->Push(Frame(2)));  // waits for the drainer
      }
    }
    return true;
  });
  // Registered when the node is built, so an idle node reads zero.
  for (const char* kind : {"busy_ns", "idle_ns", "blocked_ns"}) {
    EXPECT_TRUE(has_counter(std::string("node.timed.") + kind)) << kind;
  }
  telemetry::Counter* busy = reg->GetCounter("node.timed.busy_ns");
  telemetry::Counter* idle = reg->GetCounter("node.timed.idle_ns");
  telemetry::Counter* blocked = reg->GetCounter("node.timed.blocked_ns");
  const uint64_t busy0 = busy->Value();
  const uint64_t idle0 = idle->Value();
  const uint64_t blocked0 = blocked->Value();

  node.Start();
  std::this_thread::sleep_for(milliseconds(kPhaseMs));  // empty inbox
  ASSERT_TRUE(inbox->Push(Frame(1)));
  spun.get_future().wait();
  ASSERT_TRUE(inbox->Push(Frame(2)));
  std::thread drainer([&] {
    std::this_thread::sleep_for(milliseconds(kPhaseMs));
    EXPECT_TRUE(downstream->Pop().has_value());
  });
  Message stop;
  stop.type = MessageType::kShutdown;
  ASSERT_TRUE(inbox->Push(std::move(stop)));
  node.Join();
  drainer.join();

  const uint64_t busy_ns = busy->Value() - busy0;
  const uint64_t idle_ns = idle->Value() - idle0;
  const uint64_t blocked_ns = blocked->Value() - blocked0;
  // Each phase lasts kPhaseMs; thread start-up and wake-up latency may
  // shave some off the idle and blocked phases.
  EXPECT_GE(idle_ns, kPhaseMs / 2 * kMs);
  EXPECT_GE(busy_ns, kPhaseMs * kMs);
  EXPECT_GE(blocked_ns, kPhaseMs / 2 * kMs);
  // The blocked wait is not also counted as busy.
  EXPECT_LT(busy_ns, kPhaseMs * 9 / 5 * kMs);
}

TEST(SpareBuffersTest, EmptyPoolHandsOutABufferWithNoCapacity) {
  SpareBuffers pool;
  const Bytes b = pool.Take();
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.capacity(), 0u);
}

TEST(SpareBuffersTest, GivenBuffersComeBackClearedInWholeBatches) {
  SpareBuffers pool;
  std::set<const uint8_t*> given;
  for (size_t i = 0; i < kMaxBatch; ++i) {
    // One short of a batch, nothing can be taken yet.
    EXPECT_EQ(pool.Take().capacity(), 0u) << "after " << i << " gives";
    Bytes b(100 + i, 0xAB);
    given.insert(b.data());
    pool.Give(std::move(b));
  }
  for (size_t i = 0; i < kMaxBatch; ++i) {
    const Bytes b = pool.Take();
    EXPECT_EQ(b.size(), 0u);
    EXPECT_GE(b.capacity(), 100u);
    EXPECT_EQ(given.erase(b.data()), 1u) << "not one of the given buffers";
  }
  EXPECT_TRUE(given.empty());
  EXPECT_EQ(pool.Take().capacity(), 0u);  // drained
}

// One giver (the cloud node) and one taker (the dispatcher) working the
// pool at once; run under TSan by scripts/tsan_tests.sh. Frames carry the
// buffers from taker to giver through a mailbox, as in the pipeline.
TEST(SpareBuffersTest, OneGiverAndOneTakerShareThePool) {
  constexpr size_t kBuffers = 1000000;
  constexpr size_t kInFlight = 4096;
  auto pool = std::make_shared<SpareBuffers>();
  auto link = MakeMailbox(kInFlight);
  std::atomic<size_t> corrupt{0};
  std::thread giver([pool, link, &corrupt] {
    std::vector<Message> batch;
    while (link->PopBatch(&batch, kMaxBatch) > 0) {
      for (Message& m : batch) {
        if (m.payload.size() != 16 ||
            m.payload[0] != static_cast<uint8_t>(m.pn)) {
          corrupt.fetch_add(1, std::memory_order_relaxed);
        }
        pool->Give(std::move(m.payload));
      }
      batch.clear();
    }
  });
  size_t fresh = 0;
  size_t unclear = 0;
  std::vector<Message> out;
  for (size_t i = 0; i < kBuffers; ++i) {
    Message m = Frame(i);
    m.payload = pool->Take();
    if (m.payload.capacity() == 0) ++fresh;
    if (!m.payload.empty()) ++unclear;
    m.payload.assign(16, static_cast<uint8_t>(i));
    out.push_back(std::move(m));
    if (out.size() == kMaxBatch) {
      ASSERT_EQ(link->PushBatch(out.data(), out.size()), out.size());
      out.clear();
    }
  }
  link->PushBatch(out.data(), out.size());
  link->Close();
  giver.join();
  EXPECT_EQ(corrupt.load(), 0u);
  EXPECT_EQ(unclear, 0u);
  // A take allocates only when every buffer is in flight, so the buffers
  // ever allocated never exceed what the link and the two batches hold.
  EXPECT_LE(fresh, kInFlight + 3 * kMaxBatch);
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
  ovf.ForEachEmptySlot([&](Bytes* slot) { *slot = rng.RandomBytes(4); });
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
