// Adversarial-input robustness: every decoder that consumes bytes from
// the network or disk must return a Status on garbage — never crash,
// hang, or over-read. Random-mutation fuzzing with a deterministic seed.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/cbc.h"
#include "crypto/chacha20.h"
#include "index/index.h"
#include "index/matching.h"
#include "index/overflow.h"
#include "net/message.h"
#include "net/payloads.h"
#include "record/record.h"
#include "record/schema.h"

namespace fresque {
namespace {

// Random byte strings of assorted sizes.
std::vector<Bytes> RandomInputs(size_t count, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Bytes> out;
  for (size_t i = 0; i < count; ++i) {
    Bytes b(rng.NextBounded(200));
    for (auto& byte : b) byte = static_cast<uint8_t>(rng.Next());
    out.push_back(std::move(b));
  }
  return out;
}

// Mutations of a valid encoding: truncations, bit flips, extensions.
std::vector<Bytes> Mutations(const Bytes& valid, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Bytes> out;
  for (size_t cut = 0; cut < valid.size(); cut += 1 + valid.size() / 17) {
    out.emplace_back(valid.begin(), valid.begin() + cut);
  }
  for (int i = 0; i < 64 && !valid.empty(); ++i) {
    Bytes m = valid;
    m[rng.NextBounded(m.size())] ^=
        static_cast<uint8_t>(1u << rng.NextBounded(8));
    out.push_back(std::move(m));
  }
  Bytes extended = valid;
  extended.push_back(0xFF);
  out.push_back(std::move(extended));
  return out;
}

TEST(RobustnessTest, MessageDeserializeNeverCrashes) {
  net::Message m;
  m.type = net::MessageType::kCloudRecord;
  m.pn = 7;
  m.payload = Bytes(24, 0x3C);
  Bytes valid = m.Serialize();
  for (const auto& input : Mutations(valid, 1)) {
    auto r = net::Message::Deserialize(input);
    if (r.ok()) {
      // A surviving mutation must still be internally consistent.
      EXPECT_LE(static_cast<int>(r->type),
                static_cast<int>(net::MessageType::kShutdown));
    }
  }
  for (const auto& input : RandomInputs(500, 2)) {
    (void)net::Message::Deserialize(input);
  }
}

TEST(RobustnessTest, IndexDeserializeNeverCrashes) {
  auto binning = index::DomainBinning::Create(0, 64, 1);
  crypto::SecureRandom rng(3);
  auto tmpl = index::IndexTemplate::Create(*binning, 4, 1.0, &rng);
  Bytes valid = tmpl->noise_index().Serialize();
  for (const auto& input : Mutations(valid, 4)) {
    (void)index::HistogramIndex::Deserialize(input);
  }
  for (const auto& input : RandomInputs(500, 5)) {
    (void)index::HistogramIndex::Deserialize(input);
  }
}

TEST(RobustnessTest, OverflowDeserializeNeverCrashes) {
  crypto::SecureRandom rng(6);
  index::OverflowArrays ovf(8, 2);
  ASSERT_TRUE(ovf.PadWithDummies([&] { return rng.RandomBytes(8); }).ok());
  Bytes valid = ovf.Serialize();
  for (const auto& input : Mutations(valid, 7)) {
    (void)index::OverflowArrays::Deserialize(input);
  }
  for (const auto& input : RandomInputs(300, 8)) {
    (void)index::OverflowArrays::Deserialize(input);
  }
}

// Headers whose slot count overflows 64-bit arithmetic must be rejected,
// not divided by (4 x 2^62 wraps to 0) or used to size the leaf table.
TEST(RobustnessTest, OverflowGeometryThatWrapsIsCorruption) {
  for (uint64_t per_leaf : {uint64_t{1} << 62, ~uint64_t{0}}) {
    BinaryWriter w;
    w.PutU64(4);
    w.PutU64(per_leaf);
    w.PutU32(0);
    EXPECT_TRUE(index::OverflowArrays::Deserialize(w.buffer())
                    .status()
                    .IsCorruption())
        << per_leaf;
  }
}

TEST(RobustnessTest, MatchingTableDeserializeNeverCrashes) {
  index::MatchingTable t;
  for (uint64_t i = 0; i < 50; ++i) (void)t.Add(i * 977, i % 8);
  Bytes valid = t.Serialize();
  for (const auto& input : Mutations(valid, 9)) {
    (void)index::MatchingTable::Deserialize(input);
  }
}

TEST(RobustnessTest, IndexPublicationDecodeNeverCrashes) {
  auto binning = index::DomainBinning::Create(0, 16, 1);
  crypto::SecureRandom rng(10);
  auto tmpl = index::IndexTemplate::Create(*binning, 4, 1.0, &rng);
  net::IndexPublication pub(tmpl->noise_index(),
                            index::OverflowArrays(16, 1));
  Bytes valid = net::EncodeIndexPublication(pub);
  for (const auto& input : Mutations(valid, 11)) {
    (void)net::DecodeIndexPublication(input);
    (void)net::VerifyIndexPublicationPayload(input, Bytes(32, 1));
  }
}

TEST(RobustnessTest, CbcDecryptNeverCrashes) {
  auto cbc = crypto::AesCbc::Create(Bytes(32, 0x77));
  crypto::SecureRandom rng(12);
  auto valid = cbc->Encrypt(Bytes(40, 0x01),
                            [&](uint8_t* o, size_t n) { rng.Fill(o, n); });
  for (const auto& input : Mutations(*valid, 13)) {
    (void)cbc->Decrypt(input);
  }
  for (const auto& input : RandomInputs(500, 14)) {
    (void)cbc->Decrypt(input);
  }
}

TEST(RobustnessTest, RecordDeserializeNeverCrashes) {
  auto schema = record::Schema::Create(
      {{"a", record::ValueType::kInt64},
       {"s", record::ValueType::kString},
       {"d", record::ValueType::kDouble}},
      "a");
  record::RecordCodec codec(&*schema);
  record::Record rec({record::Value(int64_t{5}),
                      record::Value(std::string("abc")),
                      record::Value(2.0)});
  Bytes valid = *codec.Serialize(rec);
  for (const auto& input : Mutations(valid, 15)) {
    (void)codec.Deserialize(input);
  }
  for (const auto& input : RandomInputs(500, 16)) {
    (void)codec.Deserialize(input);
  }
}

TEST(RobustnessTest, AlSnapshotDecodeNeverCrashes) {
  Bytes valid = net::EncodeAlSnapshot({1, -2, 3});
  for (const auto& input : Mutations(valid, 17)) {
    (void)net::DecodeAlSnapshot(input);
  }
  // Huge claimed length must not allocate the moon.
  BinaryWriter w;
  w.PutU64(~0ULL);
  auto r = net::DecodeAlSnapshot(w.buffer());
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace fresque
