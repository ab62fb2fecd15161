// Allocation-count regression tests for the steady-state ingest hot path.
//
// The point of ParseInto + BatchEncryptor + SerializeAppend is that once
// every scratch buffer has grown to its working size, processing one more
// record touches the heap zero times. These tests pin that property with
// a counting global operator new: warm the path up, snapshot the counter,
// run many more iterations, and require the count to stay flat. A future
// change that sneaks a per-record allocation back in fails loudly here
// instead of showing up as a throughput mystery.

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/queue.h"
#include "crypto/chacha20.h"
#include "net/message.h"
#include "record/dataset.h"
#include "record/parser.h"
#include "record/record.h"
#include "record/schema.h"
#include "record/secure_codec.h"

// Sanitizers interpose their own allocator and may allocate internally,
// so allocation counts are only meaningful in plain builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FRESQUE_ALLOC_TEST_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define FRESQUE_ALLOC_TEST_UNDER_SANITIZER 1
#endif
#endif

#ifndef FRESQUE_ALLOC_TEST_UNDER_SANITIZER
#define FRESQUE_ALLOC_TEST_UNDER_SANITIZER 0
#endif

#define SKIP_UNDER_SANITIZER()                                          \
  do {                                                                  \
    if (FRESQUE_ALLOC_TEST_UNDER_SANITIZER) {                           \
      GTEST_SKIP() << "allocation counts not meaningful under a "       \
                      "sanitizer's interposed allocator";               \
    }                                                                   \
  } while (0)

namespace {

std::atomic<uint64_t> g_allocations{0};

uint64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

#if !FRESQUE_ALLOC_TEST_UNDER_SANITIZER

// Counting allocator: every heap allocation in this binary bumps the
// counter. Sized/aligned variants forward here via the usual fallbacks.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // !FRESQUE_ALLOC_TEST_UNDER_SANITIZER

namespace fresque {
namespace record {
namespace {

constexpr int kWarmup = 64;
constexpr int kMeasured = 2000;

TEST(AllocRegressionTest, ApacheParseIntoIsAllocationFreeAtSteadyState) {
  SKIP_UNDER_SANITIZER();
  auto parser = ApacheLogParser::Create();
  ASSERT_TRUE(parser.ok());
  const std::string line =
      "burger.letters.com - - [01/Jul/1995:00:00:11 -0400] "
      "\"GET /shuttle/countdown/liftoff.html HTTP/1.0\" 304 5866";

  Record scratch;
  for (int i = 0; i < kWarmup; ++i) {
    ASSERT_TRUE((*parser)->ParseInto(line, &scratch).ok());
  }
  // No gtest macros between the snapshots: only the code under test runs.
  const uint64_t before = AllocationCount();
  bool all_ok = true;
  for (int i = 0; i < kMeasured; ++i) {
    all_ok &= (*parser)->ParseInto(line, &scratch).ok();
  }
  const uint64_t after = AllocationCount();
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(after, before) << "ParseInto allocated on the steady-state path";
}

TEST(AllocRegressionTest, CsvParseIntoIsAllocationFreeAtSteadyState) {
  SKIP_UNDER_SANITIZER();
  auto schema = Schema::Create({{"user", ValueType::kInt64},
                                {"checkin_time", ValueType::kInt64},
                                {"location", ValueType::kInt64}},
                               "checkin_time");
  ASSERT_TRUE(schema.ok());
  CsvParser parser(*schema);
  const std::string line = "10971,1287530127,772196";

  Record scratch;
  for (int i = 0; i < kWarmup; ++i) {
    ASSERT_TRUE(parser.ParseInto(line, &scratch).ok());
  }
  const uint64_t before = AllocationCount();
  bool all_ok = true;
  for (int i = 0; i < kMeasured; ++i) {
    all_ok &= parser.ParseInto(line, &scratch).ok();
  }
  const uint64_t after = AllocationCount();
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(after, before);
}

TEST(AllocRegressionTest, SerializeAppendIsAllocationFreeAtSteadyState) {
  SKIP_UNDER_SANITIZER();
  auto parser = ApacheLogParser::Create();
  ASSERT_TRUE(parser.ok());
  const std::string line =
      "unicomp6.unicomp.net - - [01/Jul/1995:00:00:06 -0400] "
      "\"GET /shuttle/countdown/ HTTP/1.0\" 200 3985";
  Record rec;
  ASSERT_TRUE((*parser)->ParseInto(line, &rec).ok());
  RecordCodec codec(&(*parser)->schema());

  Bytes out;
  for (int i = 0; i < kWarmup; ++i) {
    out.clear();
    ASSERT_TRUE(codec.SerializeAppend(rec, &out).ok());
  }
  const uint64_t before = AllocationCount();
  bool all_ok = true;
  for (int i = 0; i < kMeasured; ++i) {
    out.clear();
    all_ok &= codec.SerializeAppend(rec, &out).ok();
  }
  const uint64_t after = AllocationCount();
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(after, before);
}

// The full computing-node encrypt path: parse, stage into the batch
// encryptor, flush into retained ciphertext buffers. Zero allocations per
// steady-state batch — the arena, item lists, CBC scratch, and every out
// buffer keep their capacity.
TEST(AllocRegressionTest, BatchEncryptIsAllocationFreeAtSteadyState) {
  SKIP_UNDER_SANITIZER();
  auto parser = ApacheLogParser::Create();
  ASSERT_TRUE(parser.ok());
  const std::string line =
      "burger.letters.com - - [01/Jul/1995:00:00:11 -0400] "
      "\"GET /shuttle/countdown/video/livevideo.gif HTTP/1.0\" 200 0";

  crypto::SecureRandom rng(99);
  auto codec =
      SecureRecordCodec::Create(Bytes(16, 0x42), &(*parser)->schema(), &rng);
  ASSERT_TRUE(codec.ok());
  SecureRecordCodec::BatchEncryptor enc(&*codec);

  constexpr size_t kBatch = 32;
  Record scratch;
  std::vector<Bytes> outs(kBatch);  // retained ciphertext buffers

  auto run_batch = [&]() -> bool {
    bool ok = true;
    for (size_t i = 0; i < kBatch; ++i) {
      ok &= (*parser)->ParseInto(line, &scratch).ok();
      if (i % 4 == 3) {
        enc.StageDummy(/*padding_len=*/64, &outs[i]);
      } else {
        ok &= enc.StageRecord(scratch, &outs[i]).ok();
      }
    }
    ok &= enc.Flush().ok();
    return ok;
  };

  for (int i = 0; i < kWarmup; ++i) {
    ASSERT_TRUE(run_batch());
  }
  const uint64_t before = AllocationCount();
  bool all_ok = true;
  for (int i = 0; i < kMeasured / 10; ++i) all_ok &= run_batch();
  const uint64_t after = AllocationCount();
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(after, before)
      << "batch encrypt allocated on the steady-state path";
}

// One mailbox hop as the pipeline makes it: a batch of frames pushed, then
// popped by the consumer. Once the queue's ring has grown to the batch,
// the hop moves frames without touching the heap.
TEST(AllocRegressionTest, WarmedMailboxHopIsAllocationFree) {
  SKIP_UNDER_SANITIZER();
  constexpr size_t kBatch = net::kMaxBatch;
  BoundedQueue<net::Message> mailbox(8192);
  std::vector<net::Message> in(kBatch);
  for (auto& m : in) m.payload = Bytes(96, 0x5A);
  std::vector<net::Message> out;
  out.reserve(kBatch);

  auto hop = [&]() -> bool {
    bool ok = mailbox.PushBatch(in.data(), in.size()) == kBatch;
    out.clear();
    ok &= mailbox.PopBatch(&out, kBatch) == kBatch;
    in.swap(out);  // the popped frames, payloads intact, go round again
    return ok;
  };
  for (int i = 0; i < kWarmup; ++i) ASSERT_TRUE(hop());
  const uint64_t before = AllocationCount();
  bool all_ok = true;
  for (int i = 0; i < kMeasured; ++i) all_ok &= hop();
  const uint64_t after = AllocationCount();
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(after, before) << "mailbox hop allocated at steady state";
}

// The computing-node stage on the dispatched line's buffer: each line sits
// in a buffer reserved with SecureRecordCodec::CiphertextHeadroom, is parsed
// from there, and is batch-encrypted into that same buffer. Every measured
// batch uses buffers that were never encrypted into before, so a headroom
// too small for some record shows up as a reallocation here.
TEST(AllocRegressionTest, RealRecordsEncryptIntoTheirRoutedLineBuffer) {
  SKIP_UNDER_SANITIZER();
  constexpr size_t kBatch = 32;
  constexpr size_t kRounds = 50;
  for (auto make : {&NasaDataset, &GowallaDataset}) {
    auto spec = make();
    ASSERT_TRUE(spec.ok());
    auto gen = MakeGenerator(*spec, 17);
    ASSERT_TRUE(gen.ok());
    const Schema& schema = spec->parser->schema();
    const size_t headroom = SecureRecordCodec::CiphertextHeadroom(schema);

    crypto::SecureRandom rng(5);
    auto codec = SecureRecordCodec::Create(Bytes(16, 0x42), &schema, &rng);
    ASSERT_TRUE(codec.ok());
    SecureRecordCodec::BatchEncryptor enc(&*codec);
    Record scratch;

    // What FresqueCollector::Ingest does, once per line and outside the
    // measurement.
    std::vector<std::string> texts(kRounds * kBatch);
    for (auto& t : texts) t = (*gen)->NextLine();
    auto route = [&] {
      std::vector<Bytes> bufs(texts.size());
      for (size_t i = 0; i < texts.size(); ++i) {
        bufs[i].reserve(texts[i].size() + headroom);
        bufs[i].assign(texts[i].begin(), texts[i].end());
      }
      return bufs;
    };
    auto run_batch = [&](std::vector<Bytes>* bufs, size_t round) -> bool {
      bool ok = true;
      for (size_t i = 0; i < kBatch; ++i) {
        Bytes& buf = (*bufs)[round * kBatch + i];
        const std::string_view text(reinterpret_cast<const char*>(buf.data()),
                                    buf.size());
        ok &= spec->parser->ParseInto(text, &scratch).ok();
        ok &= enc.StageRecord(scratch, &buf).ok();
      }
      return ok && enc.Flush().ok();
    };
    // The same lines through other buffers first, so the encryptor's
    // arena and the parser's scratch reach their working size.
    std::vector<Bytes> warm = route();
    for (size_t r = 0; r < kRounds; ++r) ASSERT_TRUE(run_batch(&warm, r));
    std::vector<Bytes> fresh = route();
    const uint64_t before = AllocationCount();
    bool all_ok = true;
    for (size_t r = 0; r < kRounds; ++r) all_ok &= run_batch(&fresh, r);
    const uint64_t after = AllocationCount();
    EXPECT_TRUE(all_ok) << spec->name;
    EXPECT_EQ(after, before)
        << spec->name << ": a ciphertext outgrew its line buffer's headroom";
  }
}

}  // namespace
}  // namespace record
}  // namespace fresque
