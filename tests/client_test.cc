#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "client/client.h"
#include "cloud/server.h"
#include "crypto/key_manager.h"
#include "index/index.h"
#include "index/overflow.h"
#include "net/payloads.h"
#include "record/secure_codec.h"

namespace fresque {
namespace client {
namespace {

// A hand-built cloud with known plaintexts, bypassing the collector, so
// client behaviour is tested in isolation.
class ClientTestFixture : public ::testing::Test {
 protected:
  ClientTestFixture()
      : binning_(MakeBinning()),
        server_(binning_),
        keys_(Bytes(32, 0x5A)),
        rng_(1),
        schema_(MakeSchema()) {}

  static index::DomainBinning MakeBinning() {
    auto b = index::DomainBinning::Create(0, 100, 10);  // 10 leaves
    return std::move(b).ValueOrDie();
  }

  static record::Schema MakeSchema() {
    auto s = record::Schema::Create(
        {{"id", record::ValueType::kInt64},
         {"v", record::ValueType::kDouble}},
        "v");
    return std::move(s).ValueOrDie();
  }

  record::Record Make(int64_t id, double v) {
    return record::Record({record::Value(id), record::Value(v)});
  }

  // Publishes records (+ n_dummies) under publication `pn`.
  void Publish(uint64_t pn, const std::vector<record::Record>& records,
               int n_dummies = 0) {
    ASSERT_TRUE(server_.StartPublication(pn).ok());
    auto codec =
        record::SecureRecordCodec::Create(keys_.RecordKey(pn), &schema_,
                                          &rng_);
    ASSERT_TRUE(codec.ok());
    std::vector<int64_t> counts(binning_.num_bins(), 0);
    for (const auto& rec : records) {
      double v = *rec.IndexedValue(schema_);
      uint32_t leaf = static_cast<uint32_t>(binning_.LeafOffset(v));
      ++counts[leaf];
      auto ct = codec->EncryptRecord(rec);
      ASSERT_TRUE(ct.ok());
      ASSERT_TRUE(server_.IngestRecord(pn, leaf, *ct).ok());
    }
    for (int i = 0; i < n_dummies; ++i) {
      auto ct = codec->EncryptDummy(24);
      ASSERT_TRUE(server_.IngestRecord(pn, i % 10, *ct).ok());
      ++counts[i % 10];  // dummies count like positive noise
    }
    auto layout = index::IndexLayout::Create(binning_.num_bins(), 4);
    auto idx = index::HistogramIndex::FromLeafCounts(
        std::move(layout).ValueOrDie(), binning_, counts);
    auto payload = net::EncodeSignedIndexPublication(
        net::IndexPublication(std::move(idx).ValueOrDie(),
                              index::OverflowArrays(binning_.num_bins(), 1)),
        keys_.IndexMacKey(pn),
        record::SecureRecordCodec::DummyCiphertextSize(24),
        [&](uint8_t* out, std::span<const size_t> at) {
          return codec->EncryptDummiesAt(24, out, at);
        });
    ASSERT_TRUE(payload.ok());
    ASSERT_TRUE(server_
                    .PublishIndexed(pn, std::make_shared<const Bytes>(
                                            std::move(*payload)))
                    .ok());
  }

  index::DomainBinning binning_;
  cloud::CloudServer server_;
  crypto::KeyManager keys_;
  crypto::SecureRandom rng_;
  record::Schema schema_;
};

TEST_F(ClientTestFixture, ExactPostFilterRemovesBinOvercoverage) {
  // Records at 11, 15, 19 share leaf 1; query [14, 16] matches only 15.
  Publish(0, {Make(1, 11), Make(2, 15), Make(3, 19)});
  Client client(keys_, &schema_);
  auto result = client.Query(server_, {14, 16});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].value(0).AsInt64(), 2);
}

TEST_F(ClientTestFixture, DummiesAreInvisible) {
  Publish(0, {Make(1, 55)}, /*n_dummies=*/30);
  Client client(keys_, &schema_);
  auto result = client.Query(server_, {0, 99});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);  // 30 dummies + overflow padding dropped
}

TEST_F(ClientTestFixture, PerPublicationKeysAreDerivedCorrectly) {
  Publish(0, {Make(1, 5)});
  Publish(1, {Make(2, 5)});
  Publish(7, {Make(3, 5)});
  Client client(keys_, &schema_);
  auto result = client.Query(server_, {0, 9});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 3u);  // one per publication, three keys
}

TEST_F(ClientTestFixture, WrongMasterSecretFailsToDecrypt) {
  Publish(0, {Make(1, 5)});
  crypto::KeyManager wrong(Bytes(32, 0xFF));
  Client client(wrong, &schema_);
  auto result = client.Query(server_, {0, 9});
  // CBC padding check fails (w.h.p.) => Corruption surfaces.
  EXPECT_FALSE(result.ok());
}

TEST_F(ClientTestFixture, GroundTruthAccounting) {
  std::vector<record::Record> recs = {Make(1, 5), Make(2, 15), Make(3, 25),
                                      Make(4, 35)};
  Publish(0, recs);
  Client client(keys_, &schema_);
  auto acc = client.QueryWithGroundTruth(server_, {10, 30}, recs);
  ASSERT_TRUE(acc.ok());
  EXPECT_EQ(acc->expected, 2u);  // 15, 25
  EXPECT_EQ(acc->matched, 2u);
  EXPECT_DOUBLE_EQ(acc->Recall(), 1.0);
}

TEST_F(ClientTestFixture, EmptyRangeReturnsNothing) {
  Publish(0, {Make(1, 5)});
  Client client(keys_, &schema_);
  auto result = client.Query(server_, {90, 99});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
  auto acc = client.QueryWithGroundTruth(server_, {90, 99}, {Make(1, 5)});
  ASSERT_TRUE(acc.ok());
  EXPECT_EQ(acc->expected, 0u);
  EXPECT_DOUBLE_EQ(acc->Recall(), 1.0);  // vacuous
}

}  // namespace
}  // namespace client
}  // namespace fresque
