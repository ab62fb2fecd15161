// BoundedQueue lifetime counters, close semantics, and a TSan-facing
// multi-producer/multi-consumer stress test (this suite is in the
// scripts/tsan_tests.sh TSan run list).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/queue.h"

namespace fresque {
namespace {

TEST(QueueTest, CountsEnqueuedAndHighWatermark) {
  BoundedQueue<int> q(4);
  EXPECT_EQ(q.enqueued(), 0u);
  EXPECT_EQ(q.high_watermark(), 0u);

  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_TRUE(q.Push(3));
  EXPECT_EQ(q.enqueued(), 3u);
  EXPECT_EQ(q.high_watermark(), 3u);

  // Draining does not move the high watermark back down.
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_EQ(q.high_watermark(), 3u);
  EXPECT_EQ(q.enqueued(), 3u);

  EXPECT_TRUE(q.Push(4));
  EXPECT_EQ(q.enqueued(), 4u);
  EXPECT_EQ(q.high_watermark(), 3u);
}

TEST(QueueTest, PushAfterCloseFailsAndCountsAsClosed) {
  BoundedQueue<int> q(8);
  EXPECT_TRUE(q.Push(1));
  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.Push(2));
  EXPECT_FALSE(q.Push(3));
  EXPECT_EQ(q.enqueued(), 1u);
  EXPECT_EQ(q.rejected_closed(), 2u);
}

TEST(QueueTest, PopDrainsRemainingItemsThenReturnsNullopt) {
  BoundedQueue<int> q(8);
  EXPECT_TRUE(q.Push(10));
  EXPECT_TRUE(q.Push(20));
  q.Close();

  EXPECT_EQ(q.Pop().value(), 10);
  EXPECT_EQ(q.Pop().value(), 20);
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_FALSE(q.Pop().has_value());  // stays drained
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(QueueTest, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(2);
  std::thread consumer([&] {
    // Blocks until Close(); must return nullopt, not hang.
    EXPECT_FALSE(q.Pop().has_value());
  });
  q.Close();
  consumer.join();
}

TEST(QueueTest, CloseWakesBlockedProducer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));  // fill to capacity
  std::thread producer([&] {
    // Blocks on the full queue until Close(); must fail, not hang.
    EXPECT_FALSE(q.Push(2));
  });
  q.Close();
  producer.join();
  EXPECT_EQ(q.rejected_closed(), 1u);
}

// Multi-producer/multi-consumer stress: every pushed item is popped
// exactly once, counters balance, and under TSan the queue's internal
// synchronization proves clean.
TEST(QueueTest, MultiProducerMultiConsumerConservesItems) {
  constexpr size_t kProducers = 4;
  constexpr size_t kConsumers = 3;
  constexpr uint64_t kPerProducer = 5000;

  BoundedQueue<uint64_t> q(64);
  std::atomic<uint64_t> popped{0};
  std::atomic<uint64_t> sum{0};

  std::vector<std::thread> consumers;
  for (size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto item = q.Pop()) {
        sum.fetch_add(*item, std::memory_order_relaxed);
        popped.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();

  constexpr uint64_t kTotal = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), kTotal);
  EXPECT_EQ(sum.load(), kTotal * (kTotal - 1) / 2);  // each value once
  EXPECT_EQ(q.enqueued(), kTotal);
  EXPECT_EQ(q.rejected_closed(), 0u);
  EXPECT_GE(q.high_watermark(), 1u);
  EXPECT_LE(q.high_watermark(), q.capacity());
  EXPECT_EQ(q.size(), 0u);
}

// ---------------------------------------------------------------------------
// Batch API: PushBatch / PopBatch.

TEST(QueueTest, PushBatchLargerThanCapacityDeliversEverything) {
  BoundedQueue<int> q(4);
  std::vector<int> popped;
  std::thread consumer([&] {
    std::vector<int> batch;
    // PopBatch returns at least one item per call until closed+drained.
    while (q.PopBatch(&batch, 3) > 0) {
      popped.insert(popped.end(), batch.begin(), batch.end());
      batch.clear();
    }
  });
  std::vector<int> items;
  for (int i = 0; i < 100; ++i) items.push_back(i);
  // Blocks on the full queue and keeps going as the consumer drains.
  EXPECT_EQ(q.PushBatch(items.data(), items.size()), 100u);
  q.Close();
  consumer.join();
  ASSERT_EQ(popped.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(popped[i], i);  // FIFO preserved
  EXPECT_EQ(q.enqueued(), 100u);
  EXPECT_EQ(q.rejected_closed(), 0u);
}

TEST(QueueTest, PopBatchTakesUpToMaxAndAppends) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.Push(i));
  std::vector<int> batch{-1};  // PopBatch appends, never clears
  EXPECT_EQ(q.PopBatch(&batch, 3), 3u);
  EXPECT_EQ(batch, (std::vector<int>{-1, 0, 1, 2}));
  EXPECT_EQ(q.PopBatch(&batch, 100), 2u);  // rest, not blocking for more
  EXPECT_EQ(batch, (std::vector<int>{-1, 0, 1, 2, 3, 4}));
}

TEST(QueueTest, CloseMidPushBatchSplitsAcceptedFromRejected) {
  BoundedQueue<int> q(2);
  std::vector<int> items{1, 2, 3, 4, 5};
  std::thread producer([&] {
    // Accepts 2, blocks full, then Close() rejects the remaining 3.
    EXPECT_EQ(q.PushBatch(items.data(), items.size()), 2u);
  });
  while (q.size() < 2) std::this_thread::yield();
  q.Close();
  producer.join();
  EXPECT_EQ(q.enqueued(), 2u);
  EXPECT_EQ(q.rejected_closed(), 3u);
  // The accepted prefix is still poppable after close.
  std::vector<int> batch;
  EXPECT_EQ(q.PopBatch(&batch, 10), 2u);
  EXPECT_EQ(batch, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.PopBatch(&batch, 10), 0u);  // closed + drained: terminal
}

TEST(QueueTest, PushBatchOnClosedQueueRejectsAll) {
  BoundedQueue<int> q(8);
  q.Close();
  std::vector<int> items{1, 2, 3};
  EXPECT_EQ(q.PushBatch(items.data(), items.size()), 0u);
  EXPECT_EQ(q.rejected_closed(), 3u);
}

TEST(QueueTest, PopBatchNeverWaitsForStragglers) {
  BoundedQueue<int> q(8);
  ASSERT_TRUE(q.Push(1));
  std::vector<int> batch;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(q.PopBatch(&batch, 64), 1u);  // a partial batch returns at once
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(5));
}

// Batch-API MPMC stress twin of the per-item test above: mixed batch
// sizes, every item delivered exactly once. In the TSan run list.
TEST(QueueTest, BatchMultiProducerMultiConsumerConservesItems) {
  constexpr size_t kProducers = 4;
  constexpr size_t kConsumers = 3;
  constexpr uint64_t kPerProducer = 4992;  // divisible by the batch mix

  BoundedQueue<uint64_t> q(64);
  std::atomic<uint64_t> popped{0};
  std::atomic<uint64_t> sum{0};

  std::vector<std::thread> consumers;
  for (size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      std::vector<uint64_t> batch;
      while (q.PopBatch(&batch, 7) > 0) {
        for (uint64_t v : batch) sum.fetch_add(v, std::memory_order_relaxed);
        popped.fetch_add(batch.size(), std::memory_order_relaxed);
        batch.clear();
      }
    });
  }

  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      uint64_t next = p * kPerProducer;
      const uint64_t end = next + kPerProducer;
      size_t batch_size = 1;
      while (next < end) {
        std::vector<uint64_t> batch;
        for (size_t i = 0; i < batch_size && next < end; ++i) {
          batch.push_back(next++);
        }
        ASSERT_EQ(q.PushBatch(batch.data(), batch.size()), batch.size());
        batch_size = batch_size % 96 + 1;  // 1..96, crossing capacity
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();

  constexpr uint64_t kTotal = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), kTotal);
  EXPECT_EQ(sum.load(), kTotal * (kTotal - 1) / 2);
  EXPECT_EQ(q.enqueued(), kTotal);
  EXPECT_EQ(q.rejected_closed(), 0u);
  EXPECT_EQ(q.size(), 0u);
}

// ---------------------------------------------------------------------------
// Ring storage: the queue keeps its items in a ring that grows to the
// deepest it has been. These pin FIFO order across wraparound and growth.

// Pops `n` items and expects them to be `first, first + 1, ...`.
void ExpectPops(BoundedQueue<int>* q, int first, int n) {
  for (int i = 0; i < n; ++i) {
    auto item = q->TryPop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, first + i);
  }
}

TEST(QueueRingTest, WrapsAroundAtCapacity) {
  BoundedQueue<int> q(5);
  int next_push = 0;
  int next_pop = 0;
  for (int round = 0; round < 50; ++round) {
    // Keep the queue full and slide it forward 3 items per round, so the
    // head and tail wrap past the end of the slots again and again.
    while (q.size() < q.capacity()) ASSERT_TRUE(q.Push(next_push++));
    ExpectPops(&q, next_pop, 3);
    next_pop += 3;
  }
  ExpectPops(&q, next_pop, static_cast<int>(q.size()));
  EXPECT_EQ(q.high_watermark(), 5u);
}

TEST(QueueRingTest, GrowsWhileItemsAreQueued) {
  BoundedQueue<int> q(1000);
  // Fill the first slots, pop a few and push past the end so the live
  // items wrap; the next pushes then grow a ring whose contents wrap.
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(q.Push(i));
  ExpectPops(&q, 0, 3);
  for (int i = 8; i < 300; ++i) ASSERT_TRUE(q.Push(i));
  std::vector<int> batch;
  EXPECT_EQ(q.PopBatch(&batch, 100), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(batch[i], 3 + i);
  // Slide forward again, then grow once more past the old high water.
  for (int i = 300; i < 900; ++i) ASSERT_TRUE(q.Push(i));
  ExpectPops(&q, 103, 797);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.high_watermark(), 797u);
}

TEST(QueueRingTest, CloseThenDrainKeepsOrderAcrossWrap) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(q.Push(i));
  ExpectPops(&q, 0, 6);
  for (int i = 8; i < 14; ++i) ASSERT_TRUE(q.Push(i));  // wraps
  q.Close();
  EXPECT_FALSE(q.Push(99));
  std::vector<int> batch;
  EXPECT_EQ(q.PopBatch(&batch, 5), 5u);
  EXPECT_EQ(batch, (std::vector<int>{6, 7, 8, 9, 10}));
  EXPECT_EQ(q.Pop().value(), 11);
  EXPECT_EQ(q.Pop().value(), 12);
  EXPECT_EQ(q.Pop().value(), 13);
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_EQ(q.PopBatch(&batch, 5), 0u);
}

TEST(QueueRingTest, WaitStampsStayAlignedAcrossGrowth) {
  constexpr int kStride =
      static_cast<int>(BoundedQueue<int>::kWaitSampleStride);
  BoundedQueue<int> q(1024);
  // The hook runs inside the pop, on this thread: it records which item
  // was being popped when a sampled stamp came out.
  int popping = -1;
  std::vector<int> sampled;
  q.SetWaitHook([&](int64_t ns) {
    EXPECT_GE(ns, 0);
    sampled.push_back(popping);
  });
  auto pop = [&](int expect) {
    popping = expect;
    auto item = q.TryPop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, expect);
  };
  int next_pop = 0;
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(q.Push(i));
  for (int i = 0; i < 3; ++i) pop(next_pop++);
  // Wrap, then grow both rings with wrapped contents, several times over.
  for (int i = 8; i < 3 * kStride + 5; ++i) ASSERT_TRUE(q.Push(i));
  while (q.size() > 0) pop(next_pop++);
  // Pushes 0, kStride, 2 * kStride, ... carried the sampled stamps.
  EXPECT_EQ(sampled, (std::vector<int>{0, kStride, 2 * kStride, 3 * kStride}));
}

TEST(QueueRingTest, WaitHookAttachedWithWrappedItemsStampsThemAll) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(q.Push(i));
  ExpectPops(&q, 0, 6);
  for (int i = 8; i < 12; ++i) ASSERT_TRUE(q.Push(i));  // 6 live, wrapped
  std::vector<int64_t> waits;
  q.SetWaitHook([&waits](int64_t ns) { waits.push_back(ns); });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ExpectPops(&q, 6, 6);
  ASSERT_EQ(waits.size(), 6u);
  for (int64_t ns : waits) EXPECT_GE(ns, 1'000'000) << "slept 2ms";
  // The first push after attach is sampled, the rest of its stride not.
  waits.clear();
  ASSERT_TRUE(q.Push(12));
  ASSERT_TRUE(q.Push(13));
  ExpectPops(&q, 12, 2);
  EXPECT_EQ(waits.size(), 1u);
}

}  // namespace
}  // namespace fresque
