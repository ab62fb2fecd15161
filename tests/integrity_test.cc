#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "client/client.h"
#include "cloud/server.h"
#include "crypto/key_manager.h"
#include "engine/cloud_node.h"
#include "engine/fresque_collector.h"
#include "index/index.h"
#include "index/layout.h"
#include "index/overflow.h"
#include "net/payloads.h"
#include "record/dataset.h"

namespace fresque {
namespace {

/// A signed-shape publication over `leaves` one-unit leaves: a few real
/// overflow records, the other slots padded with random dummies.
net::IndexPublication SamplePublication(size_t leaves, size_t slots,
                                        uint64_t seed) {
  auto binning = index::DomainBinning::Create(0, static_cast<double>(leaves),
                                              1);
  auto layout = index::IndexLayout::Create(leaves, 4);
  // Every leaf counts one record, so no query prunes a leaf.
  auto idx = index::HistogramIndex::FromLeafCounts(
      std::move(layout).ValueOrDie(), *binning,
      std::vector<int64_t>(leaves, 1));
  crypto::SecureRandom rng(seed);
  index::OverflowArrays ovf(leaves, slots);
  for (size_t leaf = 0; leaf < leaves; leaf += 3) {
    EXPECT_TRUE(ovf.Insert(leaf, rng.RandomBytes(40), &rng).ok());
  }
  EXPECT_TRUE(ovf.PadWithDummies([&] { return rng.RandomBytes(40); }).ok());
  return net::IndexPublication(std::move(idx).ValueOrDie(), std::move(ovf));
}

Bytes SignedPayload(net::IndexPublication pub, const Bytes& key) {
  pub.integrity_tag = net::ComputeIndexPublicationTag(pub, key);
  return net::EncodeIndexPublication(pub);
}

TEST(PublicationIntegrityTest, TagVerifiesAndDetectsTampering) {
  auto binning = index::DomainBinning::Create(0, 50, 1);
  crypto::SecureRandom rng(1);
  auto tmpl = index::IndexTemplate::Create(*binning, 4, 1.0, &rng);
  index::OverflowArrays ovf(50, 1);
  net::IndexPublication pub(tmpl->noise_index(), std::move(ovf));

  Bytes key(32, 0x10);
  pub.integrity_tag = net::ComputeIndexPublicationTag(pub, key);
  Bytes payload = net::EncodeIndexPublication(pub);

  EXPECT_TRUE(net::VerifyIndexPublicationPayload(payload, key).ok());
  // Wrong key.
  EXPECT_TRUE(net::VerifyIndexPublicationPayload(payload, Bytes(32, 0x11))
                  .IsCorruption());
  // Flipped content byte (inside the index segment).
  Bytes tampered = payload;
  tampered[16] ^= 0x01;
  Status st = net::VerifyIndexPublicationPayload(tampered, key);
  EXPECT_FALSE(st.ok());
  // Untagged publication is reported as unverifiable, not valid.
  net::IndexPublication untagged(tmpl->noise_index(),
                                 index::OverflowArrays(50, 1));
  Bytes untagged_payload = net::EncodeIndexPublication(untagged);
  EXPECT_TRUE(net::VerifyIndexPublicationPayload(untagged_payload, key)
                  .IsFailedPrecondition());
}

TEST(PublicationIntegrityTest, TagRoundTripsThroughEncodeDecode) {
  auto binning = index::DomainBinning::Create(0, 10, 1);
  crypto::SecureRandom rng(2);
  auto tmpl = index::IndexTemplate::Create(*binning, 4, 1.0, &rng);
  net::IndexPublication pub(tmpl->noise_index(),
                            index::OverflowArrays(10, 1));
  pub.integrity_tag = Bytes(32, 0xAB);
  auto back = net::DecodeIndexPublication(net::EncodeIndexPublication(pub));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->integrity_tag, pub.integrity_tag);
}

// The tag covers every byte before the tag segment and nothing after it,
// so bytes appended to a valid payload must not decode or verify: the
// cloud would serve them as evidence the tag never covered.
TEST(PublicationIntegrityTest, RejectsBytesAfterTheTag) {
  const Bytes key(32, 0x21);
  const Bytes payload = SignedPayload(SamplePublication(16, 2, 4), key);
  ASSERT_TRUE(net::VerifyIndexPublicationPayload(payload, key).ok());
  ASSERT_TRUE(net::DecodeIndexPublication(payload).ok());
  Bytes longer = payload;
  longer.push_back(0);
  longer.push_back(0);
  EXPECT_TRUE(net::VerifyIndexPublicationPayload(longer, key).IsCorruption());
  EXPECT_TRUE(net::DecodeIndexPublication(longer).status().IsCorruption());
}

// The merger's one-pass encoder writes exactly the bytes of tagging and
// then encoding, for built and for decoded publications alike.
TEST(PublicationIntegrityTest, SignedEncodingEqualsTagThenEncode) {
  const Bytes key(32, 0x22);
  net::IndexPublication pub = SamplePublication(40, 3, 5);
  const Bytes payload = SignedPayload(pub, key);
  EXPECT_EQ(net::EncodeSignedIndexPublication(pub, key), payload);
  EXPECT_TRUE(net::VerifyIndexPublicationPayload(payload, key).ok());
  auto decoded = net::DecodeIndexPublication(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(net::EncodeIndexPublication(*decoded), payload);
  EXPECT_EQ(net::EncodeSignedIndexPublication(*decoded, key), payload);
  EXPECT_EQ(net::ComputeIndexPublicationTag(*decoded, key),
            decoded->integrity_tag);
}

// An installed publication keeps one buffer: its evidence. Every overflow
// slot a query can read lies inside it, whether the payload arrived as a
// copy (PublishIndexed with Bytes) or shared (the cloud node's path).
TEST(PublicationIntegrityTest, InstalledOverflowSlotsLieInsideTheEvidence) {
  const Bytes key(32, 0x23);
  net::IndexPublication built = SamplePublication(24, 2, 6);
  const Bytes payload = SignedPayload(built, key);
  cloud::CloudServer server(built.index.binning());
  ASSERT_TRUE(server.StartPublication(0).ok());
  ASSERT_TRUE(server.StartPublication(1).ok());
  auto copied = net::DecodeIndexPublication(payload);
  ASSERT_TRUE(copied.ok());
  ASSERT_TRUE(server.PublishIndexed(0, std::move(*copied), payload).ok());
  auto shared = std::make_shared<const Bytes>(payload);
  auto in_place = net::DecodeSharedIndexPublication(shared);
  ASSERT_TRUE(in_place.ok());
  ASSERT_TRUE(server.PublishIndexed(1, std::move(*in_place), shared).ok());

  for (uint64_t pn : {0u, 1u}) {
    auto inst = server.CurrentView()->Find(pn);
    ASSERT_NE(inst, nullptr);
    ASSERT_NE(inst->evidence, nullptr);
    EXPECT_EQ(*inst->evidence, payload);
    EXPECT_EQ(inst->overflow.buffer(), inst->evidence) << "pn " << pn;
    const uint8_t* lo = inst->evidence->data();
    const uint8_t* hi = lo + inst->evidence->size();
    size_t slots = 0;
    for (size_t leaf = 0; leaf < inst->overflow.num_leaves(); ++leaf) {
      inst->overflow.ForEachSlot(leaf, [&](std::span<const uint8_t> slot) {
        EXPECT_GE(slot.data(), lo);
        EXPECT_LE(slot.data() + slot.size(), hi);
        ++slots;
      });
    }
    EXPECT_EQ(slots, 24u * 2u);
    EXPECT_TRUE(server.PublicationEvidence(pn).ok());
  }
  EXPECT_EQ(server.CurrentView()->Find(1)->evidence, shared);

  // Evidence that is not the payload the publication came from is refused.
  ASSERT_TRUE(server.StartPublication(2).ok());
  Bytes other = payload;
  other.back() ^= 0x01;
  auto again = net::DecodeIndexPublication(payload);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(server.PublishIndexed(2, std::move(*again), other)
                  .status()
                  .IsInvalidArgument());
}

// Queries read the overflow ciphertexts of a decoded publication from its
// buffer; they must be the ciphertexts of the arrays it was built from.
TEST(PublicationIntegrityTest, DecodedOverflowServesTheBuiltCiphertexts) {
  const Bytes key(32, 0x24);
  net::IndexPublication built = SamplePublication(30, 3, 7);
  const Bytes payload = SignedPayload(built, key);
  const index::DomainBinning& binning = built.index.binning();
  cloud::CloudServer from_built(binning);
  cloud::CloudServer from_payload(binning);
  ASSERT_TRUE(from_built.StartPublication(0).ok());
  ASSERT_TRUE(from_payload.StartPublication(0).ok());
  ASSERT_TRUE(from_built.PublishIndexed(0, built).ok());
  auto decoded = net::DecodeIndexPublication(payload);
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(
      from_payload.PublishIndexed(0, std::move(*decoded), payload).ok());
  for (const index::RangeQuery& q :
       {index::RangeQuery{0, 30}, index::RangeQuery{4.5, 11.5}}) {
    auto a = from_built.ExecuteQuery(q);
    auto b = from_payload.ExecuteQuery(q);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_FALSE(a->overflow_records.empty());
    ASSERT_EQ(a->overflow_records.size(), b->overflow_records.size());
    for (size_t i = 0; i < a->overflow_records.size(); ++i) {
      EXPECT_EQ(a->overflow_records[i].pn, b->overflow_records[i].pn);
      EXPECT_EQ(a->overflow_records[i].e_record,
                b->overflow_records[i].e_record);
    }
  }
}

TEST(PublicationIntegrityTest, EndToEndFresquePublicationVerifies) {
  auto spec = record::GowallaDataset();
  ASSERT_TRUE(spec.ok());
  auto binning = index::DomainBinning::Create(
      spec->domain_min, spec->domain_max, spec->bin_width);
  cloud::CloudServer server(std::move(binning).ValueOrDie());
  engine::CloudNode cloud_node(&server);
  cloud_node.Start();

  crypto::KeyManager keys(Bytes(32, 0x30));
  engine::CollectorConfig cfg;
  cfg.dataset = *spec;
  cfg.num_computing_nodes = 2;
  cfg.seed = 7;
  engine::FresqueCollector collector(cfg, keys, cloud_node.inbox());
  ASSERT_TRUE(collector.Start().ok());
  auto gen = record::MakeGenerator(*spec, 5);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(collector.Ingest((*gen)->NextLine()).ok());
  }
  ASSERT_TRUE(collector.Publish().ok());
  ASSERT_TRUE(collector.Shutdown().ok());
  cloud_node.Shutdown();

  client::Client good(keys, &spec->parser->schema());
  EXPECT_TRUE(good.VerifyPublication(server, 0).ok());
  // Publication 1 was opened but never published: no evidence.
  EXPECT_TRUE(good.VerifyPublication(server, 1).IsNotFound());
  // A client keyed differently rejects the publication.
  client::Client other(crypto::KeyManager(Bytes(32, 0x31)),
                       &spec->parser->schema());
  EXPECT_TRUE(other.VerifyPublication(server, 0).IsCorruption());
}

}  // namespace
}  // namespace fresque
