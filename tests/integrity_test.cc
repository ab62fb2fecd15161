#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <string>
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
#include "record/secure_codec.h"

namespace fresque {
namespace {

/// An index over `leaves` one-unit leaves in which every leaf counts one
/// record, so no query prunes a leaf.
index::HistogramIndex OneRecordPerLeaf(size_t leaves) {
  auto binning = index::DomainBinning::Create(0, static_cast<double>(leaves),
                                              1);
  auto layout = index::IndexLayout::Create(leaves, 4);
  auto idx = index::HistogramIndex::FromLeafCounts(
      std::move(layout).ValueOrDie(), *binning,
      std::vector<int64_t>(leaves, 1));
  return std::move(idx).ValueOrDie();
}

/// A signed-shape publication over `leaves` one-unit leaves: a few real
/// overflow records, the other slots padded with random dummies.
net::IndexPublication SamplePublication(size_t leaves, size_t slots,
                                        uint64_t seed) {
  crypto::SecureRandom rng(seed);
  index::OverflowArrays ovf(leaves, slots);
  for (size_t leaf = 0; leaf < leaves; leaf += 3) {
    EXPECT_TRUE(ovf.Insert(leaf, rng.RandomBytes(40), &rng).ok());
  }
  ovf.ForEachEmptySlot([&](Bytes* slot) { *slot = rng.RandomBytes(40); });
  return net::IndexPublication(OneRecordPerLeaf(leaves), std::move(ovf));
}

Bytes SignedPayload(net::IndexPublication pub, const Bytes& key) {
  pub.integrity_tag = net::ComputeIndexPublicationTag(pub, key);
  return net::EncodeIndexPublication(pub);
}

/// The merger's one-pass encoding of a publication with no empty slot.
Bytes SignedInOnePass(const net::IndexPublication& pub, const Bytes& key) {
  auto payload = net::EncodeSignedIndexPublication(
      pub, key, 0, [](uint8_t*, std::span<const size_t> at) {
        EXPECT_TRUE(at.empty());
        return Status::OK();
      });
  EXPECT_TRUE(payload.ok()) << payload.status().ToString();
  return payload.ok() ? *payload : Bytes{};
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
  EXPECT_EQ(SignedInOnePass(pub, key), payload);
  EXPECT_TRUE(net::VerifyIndexPublicationPayload(payload, key).ok());
  auto decoded = net::DecodeIndexPublication(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(net::EncodeIndexPublication(*decoded), payload);
  EXPECT_EQ(SignedInOnePass(*decoded, key), payload);
  EXPECT_EQ(net::ComputeIndexPublicationTag(*decoded, key),
            decoded->integrity_tag);
}

// An installed publication keeps one buffer: its evidence. Every overflow
// slot a query can read lies inside it, whether the payload arrived as a
// copy of the bytes a publication was decoded from (PublishIndexed with
// Bytes) or shared (the cloud node's path).
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
  ASSERT_TRUE(server.PublishIndexed(1, shared).ok());

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
  // So is no payload at all.
  EXPECT_TRUE(server.PublishIndexed(2, nullptr).status().IsInvalidArgument());
}

// Queries read the overflow ciphertexts of an installed publication from
// its payload; they must be the ciphertexts its arrays were built from.
TEST(PublicationIntegrityTest, DecodedOverflowServesTheBuiltCiphertexts) {
  constexpr size_t kLeaves = 30;
  constexpr size_t kSlots = 3;
  crypto::SecureRandom rng(7);
  index::OverflowArrays ovf(kLeaves, kSlots);
  // Ciphertexts as strings: their order is all a multiset needs.
  auto text = [](const Bytes& b) { return std::string(b.begin(), b.end()); };
  std::vector<std::multiset<std::string>> built(kLeaves);
  for (size_t leaf = 0; leaf < kLeaves; ++leaf) {
    for (size_t s = 0; s < kSlots; ++s) {
      const Bytes ct = rng.RandomBytes(40);
      built[leaf].insert(text(ct));
      ASSERT_TRUE(ovf.Insert(leaf, ct, &rng).ok());
    }
  }
  const net::IndexPublication pub(OneRecordPerLeaf(kLeaves), std::move(ovf));
  cloud::CloudServer server(pub.index.binning());
  ASSERT_TRUE(server.StartPublication(0).ok());
  ASSERT_TRUE(server
                  .PublishIndexed(0, std::make_shared<const Bytes>(
                                         SignedInOnePass(pub, Bytes(32, 0x24))))
                  .ok());
  // Each query with the leaves it touches.
  struct Case {
    index::RangeQuery q;
    size_t first_leaf;
    size_t last_leaf;
  };
  for (const Case& c : {Case{{0, 30}, 0, 29}, Case{{4.5, 11.5}, 4, 11}}) {
    auto result = server.ExecuteQuery(c.q);
    ASSERT_TRUE(result.ok());
    std::multiset<std::string> want;
    for (size_t leaf = c.first_leaf; leaf <= c.last_leaf; ++leaf) {
      want.insert(built[leaf].begin(), built[leaf].end());
    }
    std::multiset<std::string> got;
    for (const auto& r : result->overflow_records) {
      EXPECT_EQ(r.pn, 0u);
      got.insert(text(r.e_record));
    }
    EXPECT_EQ(got, want) << "[" << c.q.lo << ", " << c.q.hi << "]";
  }
}

// The merger pads a publication inside its payload. The bytes equal those
// of padding every empty slot with its own buffer (StageDummy, Flush),
// tagging and encoding, when both draw from identically seeded
// generators; the payload verifies and decodes, every padding slot opens
// as a dummy, and every removed record as itself in its own leaf.
TEST(PublicationIntegrityTest, InPlacePaddingEqualsPerSlotPadding) {
  auto spec = record::GowallaDataset();
  ASSERT_TRUE(spec.ok());
  const record::Schema& schema = spec->parser->schema();
  auto gen = record::MakeGenerator(*spec, 8);
  ASSERT_TRUE(gen.ok());
  const Bytes record_key(32, 0x25);
  const Bytes mac_key(32, 0x26);
  // 160 slots: more than one 64-dummy encrypt batch, and a partial one.
  constexpr size_t kLeaves = 40;
  constexpr size_t kSlots = 4;

  // Removed records: one in every third leaf, a full array in every
  // twenty-first.
  struct Removed {
    size_t leaf;
    Bytes ct;
    record::Record rec;
  };
  crypto::SecureRandom record_rng(9);
  auto record_codec =
      record::SecureRecordCodec::Create(record_key, &schema, &record_rng);
  ASSERT_TRUE(record_codec.ok());
  std::vector<Removed> removed;
  for (size_t leaf = 0; leaf < kLeaves; leaf += 3) {
    for (size_t n = 0; n < (leaf % 21 == 0 ? kSlots : 1); ++n) {
      auto rec = spec->parser->Parse((*gen)->NextLine());
      ASSERT_TRUE(rec.ok());
      auto ct = record_codec->EncryptRecord(*rec);
      ASSERT_TRUE(ct.ok());
      removed.push_back({leaf, *ct, *rec});
    }
  }
  auto build = [&](crypto::SecureRandom* rng) {
    index::OverflowArrays ovf(kLeaves, kSlots);
    for (const Removed& r : removed) {
      EXPECT_TRUE(ovf.Insert(r.leaf, r.ct, rng).ok());
    }
    return net::IndexPublication(OneRecordPerLeaf(kLeaves), std::move(ovf));
  };

  for (size_t padding : {size_t{0}, size_t{15}, size_t{64}}) {
    SCOPED_TRACE(padding);
    crypto::SecureRandom ref_rng(10);
    net::IndexPublication ref = build(&ref_rng);
    auto ref_codec =
        record::SecureRecordCodec::Create(record_key, &schema, &ref_rng);
    ASSERT_TRUE(ref_codec.ok());
    record::SecureRecordCodec::BatchEncryptor enc(&*ref_codec);
    ref.overflow.ForEachEmptySlot(
        [&](Bytes* slot) { enc.StageDummy(padding, slot); });
    ASSERT_TRUE(enc.Flush().ok());
    const Bytes expected = SignedPayload(std::move(ref), mac_key);

    crypto::SecureRandom rng(10);
    net::IndexPublication pub = build(&rng);
    auto codec = record::SecureRecordCodec::Create(record_key, &schema, &rng);
    ASSERT_TRUE(codec.ok());
    auto payload = net::EncodeSignedIndexPublication(
        pub, mac_key, record::SecureRecordCodec::DummyCiphertextSize(padding),
        [&](uint8_t* out, std::span<const size_t> at) {
          return codec->EncryptDummiesAt(padding, out, at);
        });
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    EXPECT_EQ(*payload, expected);
    EXPECT_TRUE(net::VerifyIndexPublicationPayload(*payload, mac_key).ok());

    auto decoded = net::DecodeIndexPublication(*payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    size_t dummies = 0;
    size_t reals = 0;
    for (size_t leaf = 0; leaf < kLeaves; ++leaf) {
      decoded->overflow.ForEachSlot(leaf, [&](std::span<const uint8_t> slot) {
        const Bytes ct(slot.begin(), slot.end());
        auto opened = codec->Decrypt(ct);
        ASSERT_TRUE(opened.ok()) << opened.status().ToString();
        if (opened->is_dummy) {
          ++dummies;
          EXPECT_EQ(ct.size(),
                    record::SecureRecordCodec::DummyCiphertextSize(padding));
          return;
        }
        ++reals;
        auto want = std::find_if(removed.begin(), removed.end(),
                                 [&](const Removed& r) { return r.ct == ct; });
        ASSERT_NE(want, removed.end()) << "leaf " << leaf;
        EXPECT_EQ(want->leaf, leaf);
        EXPECT_EQ(opened->rec, want->rec);
      });
    }
    EXPECT_EQ(reals, removed.size());
    EXPECT_EQ(dummies, kLeaves * kSlots - removed.size());
  }
}

// A pad that fails fails the encode: no partially padded payload ships.
TEST(PublicationIntegrityTest, FailedInPlacePaddingFailsTheEncode) {
  crypto::SecureRandom rng(11);
  index::OverflowArrays ovf(8, 2);
  ASSERT_TRUE(ovf.Insert(3, rng.RandomBytes(48), &rng).ok());
  const net::IndexPublication pub(OneRecordPerLeaf(8), std::move(ovf));
  size_t slots_seen = 0;
  auto payload = net::EncodeSignedIndexPublication(
      pub, Bytes(32, 0x27), 48,
      [&](uint8_t*, std::span<const size_t> at) {
        slots_seen = at.size();
        return Status::Internal("no entropy");
      });
  EXPECT_EQ(slots_seen, 15u);
  EXPECT_EQ(payload.status().code(), StatusCode::kInternal);
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

// An installed publication whose payload carries no tag fails an audit;
// only a publication that never installed reads NotFound.
TEST(PublicationIntegrityTest, InstalledWithoutEvidenceFailsVerification) {
  auto spec = record::GowallaDataset();
  ASSERT_TRUE(spec.ok());
  auto binning = index::DomainBinning::Create(0, 8, 1);
  cloud::CloudServer server(std::move(binning).ValueOrDie());
  ASSERT_TRUE(server.StartPublication(0).ok());
  ASSERT_TRUE(server
                  .PublishIndexed(0, std::make_shared<const Bytes>(
                                         net::EncodeIndexPublication(
                                             SamplePublication(8, 2, 11))))
                  .ok());

  client::Client client(crypto::KeyManager(Bytes(32, 0x30)),
                        &spec->parser->schema());
  Status st = client.VerifyPublication(server, 0);
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(st.IsNotFound()) << st.ToString();
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
  EXPECT_TRUE(client.VerifyPublication(server, 1).IsNotFound());
}

}  // namespace
}  // namespace fresque
