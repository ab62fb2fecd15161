#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "crypto/aes.h"
#include "crypto/cbc.h"
#include "crypto/chacha20.h"
#include "crypto/hmac.h"
#include "crypto/key_manager.h"
#include "crypto/sha256.h"

namespace fresque {
namespace crypto {
namespace {

Bytes Hex(const std::string& s) {
  auto r = FromHex(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).ValueOrDie();
}

std::string HexOf(const uint8_t* data, size_t len) {
  return ToHex(Bytes(data, data + len));
}

// ---------------------------------------------------------------- SHA-256

/// The portable compression always, plus SHA-NI when this CPU has it: the
/// known-answer vectors below run on every path a build can dispatch to.
std::vector<Sha256::Backend> UsableShaBackends() {
  std::vector<Sha256::Backend> b{Sha256::Backend::kSoftware};
  if (Sha256::HardwareBackendAvailable()) {
    b.push_back(Sha256::Backend::kHardware);
  }
  return b;
}

std::string ShaOf(const Bytes& msg, Sha256::Backend backend) {
  Sha256 h(backend);
  h.Update(msg);
  auto d = h.Finish();
  return HexOf(d.data(), d.size());
}

std::string MacOf(const Bytes& key, const std::string& data,
                  Sha256::Backend backend) {
  auto mac = HmacSha256::Mac(key, Bytes(data.begin(), data.end()), backend);
  return HexOf(mac.data(), mac.size());
}

TEST(Sha256Test, EmptyString) {
  for (auto backend : UsableShaBackends()) {
    EXPECT_EQ(ShaOf(Bytes{}, backend),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  }
  auto d = Sha256::Hash(Bytes{});
  EXPECT_EQ(HexOf(d.data(), d.size()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  Bytes msg = {'a', 'b', 'c'};
  for (auto backend : UsableShaBackends()) {
    EXPECT_EQ(ShaOf(msg, backend),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  }
}

TEST(Sha256Test, TwoBlockMessage) {
  std::string s = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  Bytes msg(s.begin(), s.end());
  for (auto backend : UsableShaBackends()) {
    EXPECT_EQ(ShaOf(msg, backend),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  }
}

TEST(Sha256Test, MillionAs) {
  Bytes chunk(1000, 'a');
  for (auto backend : UsableShaBackends()) {
    Sha256 h(backend);
    for (int i = 0; i < 1000; ++i) h.Update(chunk);
    auto d = h.Finish();
    EXPECT_EQ(HexOf(d.data(), d.size()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
        << h.backend_name();
  }
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string s = "The quick brown fox jumps over the lazy dog";
  Bytes msg(s.begin(), s.end());
  auto one = Sha256::Hash(msg);
  for (auto backend : UsableShaBackends()) {
    for (size_t split = 0; split <= msg.size(); split += 7) {
      Sha256 h(backend);
      h.Update(msg.data(), split);
      h.Update(msg.data() + split, msg.size() - split);
      auto two = h.Finish();
      EXPECT_EQ(one, two) << "split at " << split << " on "
                          << h.backend_name();
    }
  }
}

TEST(Sha256Test, ResetRestoresInitialState) {
  for (auto backend : UsableShaBackends()) {
    Sha256 h(backend);
    Bytes junk(100, 0x5A);
    h.Update(junk);
    h.Reset();
    Bytes msg = {'a', 'b', 'c'};
    h.Update(msg);
    auto d = h.Finish();
    EXPECT_EQ(HexOf(d.data(), d.size()),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
        << h.backend_name();
  }
}

// ------------------------------------------------------------- HMAC-SHA256

// RFC 4231 test case 1.
TEST(HmacTest, Rfc4231Case1) {
  for (auto backend : UsableShaBackends()) {
    EXPECT_EQ(MacOf(Bytes(20, 0x0b), "Hi There", backend),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  }
}

// RFC 4231 test case 2 ("Jefe").
TEST(HmacTest, Rfc4231Case2) {
  std::string k = "Jefe";
  for (auto backend : UsableShaBackends()) {
    EXPECT_EQ(MacOf(Bytes(k.begin(), k.end()), "what do ya want for nothing?",
                    backend),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  }
}

// RFC 4231 test case 3: key 20x0xaa, data 50x0xdd.
TEST(HmacTest, Rfc4231Case3) {
  for (auto backend : UsableShaBackends()) {
    EXPECT_EQ(MacOf(Bytes(20, 0xaa), std::string(50, '\xdd'), backend),
              "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
  }
}

// RFC 4231 test case 6: 131-byte key (longer than block => pre-hashed).
TEST(HmacTest, Rfc4231Case6LongKey) {
  for (auto backend : UsableShaBackends()) {
    EXPECT_EQ(MacOf(Bytes(131, 0xaa),
                    "Test Using Larger Than Block-Size Key - Hash Key First",
                    backend),
              "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
  }
}

TEST(HmacTest, ConstantTimeEquals) {
  Bytes a = {1, 2, 3, 4};
  Bytes b = {1, 2, 3, 4};
  Bytes c = {1, 2, 3, 5};
  EXPECT_TRUE(ConstantTimeEquals(a.data(), b.data(), 4));
  EXPECT_FALSE(ConstantTimeEquals(a.data(), c.data(), 4));
}

// ------------------------------------------------------------------- AES

// FIPS 197 Appendix C.1: AES-128.
TEST(AesTest, Fips197Aes128) {
  auto aes = Aes::Create(Hex("000102030405060708090a0b0c0d0e0f"));
  ASSERT_TRUE(aes.ok());
  Bytes pt = Hex("00112233445566778899aabbccddeeff");
  uint8_t ct[16];
  aes->EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexOf(ct, 16), "69c4e0d86a7b0430d8cdb78070b4c55a");
  uint8_t back[16];
  aes->DecryptBlock(ct, back);
  EXPECT_EQ(HexOf(back, 16), "00112233445566778899aabbccddeeff");
}

// FIPS 197 Appendix C.2: AES-192.
TEST(AesTest, Fips197Aes192) {
  auto aes =
      Aes::Create(Hex("000102030405060708090a0b0c0d0e0f1011121314151617"));
  ASSERT_TRUE(aes.ok());
  Bytes pt = Hex("00112233445566778899aabbccddeeff");
  uint8_t ct[16];
  aes->EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexOf(ct, 16), "dda97ca4864cdfe06eaf70a0ec0d7191");
}

// FIPS 197 Appendix C.3: AES-256.
TEST(AesTest, Fips197Aes256) {
  auto aes = Aes::Create(
      Hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"));
  ASSERT_TRUE(aes.ok());
  Bytes pt = Hex("00112233445566778899aabbccddeeff");
  uint8_t ct[16];
  aes->EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexOf(ct, 16), "8ea2b7ca516745bfeafc49904b496089");
  uint8_t back[16];
  aes->DecryptBlock(ct, back);
  EXPECT_EQ(HexOf(back, 16), "00112233445566778899aabbccddeeff");
}

TEST(AesTest, RejectsBadKeySizes) {
  EXPECT_FALSE(Aes::Create(Bytes(15, 0)).ok());
  EXPECT_FALSE(Aes::Create(Bytes(0, 0)).ok());
  EXPECT_FALSE(Aes::Create(Bytes(33, 0)).ok());
  EXPECT_TRUE(Aes::Create(Bytes(16, 0)).ok());
  EXPECT_TRUE(Aes::Create(Bytes(24, 0)).ok());
  EXPECT_TRUE(Aes::Create(Bytes(32, 0)).ok());
}

// ------------------------------------------------------------------- CBC

// NIST SP 800-38A F.2.1: AES-128-CBC, first block.
TEST(CbcTest, Sp80038aFirstBlock) {
  auto cbc = AesCbc::Create(Hex("2b7e151628aed2a6abf7158809cf4f3c"));
  ASSERT_TRUE(cbc.ok());
  Bytes iv = Hex("000102030405060708090a0b0c0d0e0f");
  Bytes pt = Hex("6bc1bee22e409f96e93d7e117393172a");
  auto ct = cbc->EncryptWithIv(pt, iv);
  ASSERT_TRUE(ct.ok());
  // Output = IV || C1 || padding block; C1 must match the NIST vector.
  Bytes c1(ct->begin() + 16, ct->begin() + 32);
  EXPECT_EQ(ToHex(c1), "7649abac8119b246cee98e9b12e9197d");
}

TEST(CbcTest, RoundTripVariousLengths) {
  auto cbc = AesCbc::Create(Bytes(32, 0x42));
  ASSERT_TRUE(cbc.ok());
  SecureRandom rng(7);
  for (size_t len : {0u, 1u, 15u, 16u, 17u, 31u, 32u, 100u, 1000u}) {
    Bytes pt = rng.RandomBytes(len);
    auto ct = cbc->Encrypt(
        pt, [&rng](uint8_t* out, size_t n) { rng.Fill(out, n); });
    ASSERT_TRUE(ct.ok());
    EXPECT_EQ(ct->size(), AesCbc::CiphertextSize(len));
    auto back = cbc->Decrypt(*ct);
    ASSERT_TRUE(back.ok()) << "len=" << len;
    EXPECT_EQ(*back, pt);
  }
}

TEST(CbcTest, FreshIvsMakeEqualPlaintextsUnlinkable) {
  auto cbc = AesCbc::Create(Bytes(16, 0x01));
  ASSERT_TRUE(cbc.ok());
  SecureRandom rng(9);
  Bytes pt(64, 0x77);
  auto a = cbc->Encrypt(pt, [&](uint8_t* o, size_t n) { rng.Fill(o, n); });
  auto b = cbc->Encrypt(pt, [&](uint8_t* o, size_t n) { rng.Fill(o, n); });
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(*a, *b);
}

TEST(CbcTest, DetectsCorruptedPadding) {
  auto cbc = AesCbc::Create(Bytes(16, 0x01));
  ASSERT_TRUE(cbc.ok());
  SecureRandom rng(1);
  Bytes pt(20, 0x33);
  auto ct = cbc->Encrypt(pt, [&](uint8_t* o, size_t n) { rng.Fill(o, n); });
  ASSERT_TRUE(ct.ok());
  // Flip a bit in the last block: padding check must fail (w.h.p.).
  Bytes tampered = *ct;
  tampered.back() ^= 0xFF;
  auto r = cbc->Decrypt(tampered);
  if (r.ok()) {
    // With probability ~1/255 random padding still parses; the plaintext
    // must then differ.
    EXPECT_NE(*r, pt);
  }
}

TEST(CbcTest, RejectsTruncatedCiphertext) {
  auto cbc = AesCbc::Create(Bytes(16, 0x01));
  ASSERT_TRUE(cbc.ok());
  EXPECT_FALSE(cbc->Decrypt(Bytes(16, 0)).ok());   // IV only
  EXPECT_FALSE(cbc->Decrypt(Bytes(40, 0)).ok());   // not block-aligned
  EXPECT_FALSE(cbc->Decrypt(Bytes{}).ok());
}

// -------------------------------------------------------------- ChaCha20

// RFC 8439 §2.3.2 block function test vector.
TEST(ChaCha20Test, Rfc8439BlockVector) {
  std::array<uint8_t, 32> key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<uint8_t>(i);
  std::array<uint8_t, 12> nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                                   0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  ChaCha20 c(key, nonce, 1);
  uint8_t block[64];
  c.NextBlock(block);
  EXPECT_EQ(HexOf(block, 64),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(SecureRandomTest, DeterministicWithSeed) {
  SecureRandom a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
  // Different seeds diverge.
  SecureRandom a2(123);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a2.NextU64() != c.NextU64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(SecureRandomTest, DoubleInUnitInterval) {
  SecureRandom rng(5);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    double o = rng.NextDoubleOpenLow();
    EXPECT_GT(o, 0.0);
    EXPECT_LE(o, 1.0);
  }
}

TEST(SecureRandomTest, BoundedStaysInBounds) {
  SecureRandom rng(6);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 100ULL, 1000000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
  EXPECT_EQ(rng.NextBounded(0), 0u);
}

TEST(SecureRandomTest, BoundedIsRoughlyUniform) {
  SecureRandom rng(7);
  constexpr uint64_t kBound = 10;
  constexpr int kDraws = 100000;
  int counts[kBound] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(kBound)];
  for (uint64_t v = 0; v < kBound; ++v) {
    EXPECT_NEAR(counts[v], kDraws / kBound, kDraws / kBound * 0.15);
  }
}

// ----------------------------------------------------------- Key manager

TEST(KeyManagerTest, KeysDifferAcrossPublicationsAndPurposes) {
  KeyManager km(Bytes(32, 0x11));
  std::set<std::string> seen;
  for (uint64_t pn = 0; pn < 10; ++pn) {
    seen.insert(ToHex(km.RecordKey(pn)));
    seen.insert(ToHex(km.IndexMacKey(pn)));
  }
  EXPECT_EQ(seen.size(), 20u);
}

TEST(KeyManagerTest, DerivationIsDeterministic) {
  KeyManager a(Bytes(32, 0x22));
  KeyManager b(Bytes(32, 0x22));
  EXPECT_EQ(a.RecordKey(5), b.RecordKey(5));
  KeyManager c(Bytes(32, 0x23));
  EXPECT_NE(a.RecordKey(5), c.RecordKey(5));
}

TEST(KeyManagerTest, GenerateProducesDistinctMasters) {
  auto a = KeyManager::Generate();
  auto b = KeyManager::Generate();
  EXPECT_NE(a.master_secret(), b.master_secret());
  EXPECT_EQ(a.master_secret().size(), KeyManager::kKeySize);
}

// ------------------------------------------------------------------ Hex

TEST(HexTest, RoundTrip) {
  Bytes b = {0x00, 0x01, 0xAB, 0xFF};
  EXPECT_EQ(ToHex(b), "0001abff");
  auto back = FromHex("0001abff");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, b);
}

TEST(HexTest, RejectsMalformed) {
  EXPECT_FALSE(FromHex("abc").ok());   // odd length
  EXPECT_FALSE(FromHex("zz").ok());    // non-hex
  EXPECT_TRUE(FromHex("").ok());       // empty is fine
}

}  // namespace
}  // namespace crypto
}  // namespace fresque
