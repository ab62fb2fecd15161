// Extended known-answer tests: full multi-block NIST SP 800-38A CBC
// vectors for all three AES key sizes, and ChaCha20 keystream
// continuation across blocks.

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "common/bytes.h"
#include "crypto/aes.h"
#include "crypto/cbc.h"
#include "crypto/chacha20.h"

namespace fresque {
namespace crypto {
namespace {

Bytes Hex(const std::string& s) { return std::move(FromHex(s)).ValueOrDie(); }

/// Every backend compiled into this binary and usable on this CPU: the
/// software tables always, plus the hardware backend (AES-NI / ARMv8 CE)
/// when present. Known-answer tests run against each so a dispatch bug
/// can never hide behind whichever backend kAuto happens to pick.
std::vector<Aes::Backend> UsableBackends() {
  std::vector<Aes::Backend> b{Aes::Backend::kSoftware};
  if (Aes::HardwareBackendAvailable()) b.push_back(Aes::Backend::kHardware);
  return b;
}

const char* BackendLabel(Aes::Backend b) {
  return b == Aes::Backend::kSoftware ? "soft" : "hardware";
}

// SP 800-38A F.2: the shared 4-block plaintext and IV.
const char* kCbcIv = "000102030405060708090a0b0c0d0e0f";
const char* kCbcPlain =
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710";

struct CbcVector {
  const char* name;
  const char* key;
  const char* cipher;  // 4 blocks
};

// Without a printer gtest shows a vector as the raw bytes of its
// pointers, which differ on every build and so make the discovered test
// names unstable.
void PrintTo(const CbcVector& v, std::ostream* os) { *os << v.name; }

class CbcNistTest : public ::testing::TestWithParam<CbcVector> {};

TEST_P(CbcNistTest, FourBlockChainMatchesOnEveryBackend) {
  const auto& v = GetParam();
  for (Aes::Backend backend : UsableBackends()) {
    SCOPED_TRACE(BackendLabel(backend));
    auto cbc = AesCbc::Create(Hex(v.key), backend);
    ASSERT_TRUE(cbc.ok());
    auto ct = cbc->EncryptWithIv(Hex(kCbcPlain), Hex(kCbcIv));
    ASSERT_TRUE(ct.ok());
    // Our output: IV || C1..C4 || padding block. Compare C1..C4.
    Bytes body(ct->begin() + 16, ct->begin() + 16 + 64);
    EXPECT_EQ(ToHex(body), v.cipher);
    // And the whole thing decrypts back.
    auto pt = cbc->Decrypt(*ct);
    ASSERT_TRUE(pt.ok());
    EXPECT_EQ(*pt, Hex(kCbcPlain));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sp80038a, CbcNistTest,
    ::testing::Values(
        // F.2.1 CBC-AES128.
        CbcVector{"Aes128", "2b7e151628aed2a6abf7158809cf4f3c",
                  "7649abac8119b246cee98e9b12e9197d"
                  "5086cb9b507219ee95db113a917678b2"
                  "73bed6b8e3c1743b7116e69e22229516"
                  "3ff1caa1681fac09120eca307586e1a7"},
        // F.2.3 CBC-AES192.
        CbcVector{"Aes192", "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
                  "4f021db243bc633d7178183a9fa071e8"
                  "b4d9ada9ad7dedf4e5e738763f69145a"
                  "571b242012fb7ae07fa9baac3df102e0"
                  "08b0e27988598881d920a9e64f5615cd"},
        // F.2.5 CBC-AES256.
        CbcVector{"Aes256", "603deb1015ca71be2b73aef0857d7781"
                  "1f352c073b6108d72d9810a30914dff4",
                  "f58c4c04d6e5f1ba779eabfb5f7bfbd6"
                  "9cfc4e967edb808d679f777bc6702c7d"
                  "39f23369a9d9bacfa530e26304231461"
                  "b2eb05e2c39be9fcda6c19078c6a9d1b"}));

TEST(ChaChaStreamTest, CounterAdvancesAcrossBlocks) {
  // RFC 8439 §2.4.2 encrypts two blocks with counters 1 and 2; check our
  // block function chains identically.
  std::array<uint8_t, 32> key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<uint8_t>(i);
  std::array<uint8_t, 12> nonce = {0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0};
  ChaCha20 chained(key, nonce, 1);
  uint8_t b1[64], b2[64];
  chained.NextBlock(b1);
  chained.NextBlock(b2);

  ChaCha20 direct2(key, nonce, 2);
  uint8_t b2_direct[64];
  direct2.NextBlock(b2_direct);
  EXPECT_EQ(Bytes(b2, b2 + 64), Bytes(b2_direct, b2_direct + 64));
  EXPECT_NE(Bytes(b1, b1 + 64), Bytes(b2, b2 + 64));
}

TEST(AesDecryptInvertsEncryptProperty, AllKeySizesRandomBlocks) {
  SecureRandom rng(404);
  for (size_t key_size : {16u, 24u, 32u}) {
    auto aes = Aes::Create(rng.RandomBytes(key_size));
    ASSERT_TRUE(aes.ok());
    for (int trial = 0; trial < 200; ++trial) {
      Bytes block = rng.RandomBytes(16);
      uint8_t ct[16], back[16];
      aes->EncryptBlock(block.data(), ct);
      aes->DecryptBlock(ct, back);
      EXPECT_EQ(Bytes(back, back + 16), block);
      // A block cipher must not be the identity.
      EXPECT_NE(Bytes(ct, ct + 16), block);
    }
  }
}

// FIPS 197 Appendix C single-block examples, all three key sizes, run
// against every compiled backend.
struct BlockVector {
  const char* name;
  const char* key;
  const char* cipher;
};

void PrintTo(const BlockVector& v, std::ostream* os) { *os << v.name; }

class AesFips197Test : public ::testing::TestWithParam<BlockVector> {};

TEST_P(AesFips197Test, SingleBlockMatchesOnEveryBackend) {
  const auto& v = GetParam();
  const Bytes plain = Hex("00112233445566778899aabbccddeeff");
  for (Aes::Backend backend : UsableBackends()) {
    SCOPED_TRACE(BackendLabel(backend));
    auto aes = Aes::Create(Hex(v.key), backend);
    ASSERT_TRUE(aes.ok());
    uint8_t ct[16], back[16];
    aes->EncryptBlock(plain.data(), ct);
    EXPECT_EQ(ToHex(Bytes(ct, ct + 16)), v.cipher);
    aes->DecryptBlock(ct, back);
    EXPECT_EQ(Bytes(back, back + 16), plain);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fips197AppendixC, AesFips197Test,
    ::testing::Values(
        // C.1 AES-128.
        BlockVector{"Aes128", "000102030405060708090a0b0c0d0e0f",
                    "69c4e0d86a7b0430d8cdb78070b4c55a"},
        // C.2 AES-192.
        BlockVector{"Aes192",
                    "000102030405060708090a0b0c0d0e0f1011121314151617",
                    "dda97ca4864cdfe06eaf70a0ec0d7191"},
        // C.3 AES-256.
        BlockVector{"Aes256",
                    "000102030405060708090a0b0c0d0e0f"
                    "101112131415161718191a1b1c1d1e1f",
                    "8ea2b7ca516745bfeafc49904b496089"}));

// Hardware and software backends must be byte-identical on arbitrary
// inputs, not just the standard vectors: 10k random key/IV/plaintext
// triples across all key sizes and lengths spanning the padding edge
// cases (empty, sub-block, exact multiples, multi-block).
TEST(AesBackendCrossCheck, RandomTriplesEncryptIdentically) {
  if (!Aes::HardwareBackendAvailable()) {
    GTEST_SKIP() << "no hardware AES backend on this CPU/build";
  }
  SecureRandom rng(20260807);
  constexpr size_t kTriples = 10000;
  const size_t key_sizes[] = {16, 24, 32};
  for (size_t i = 0; i < kTriples; ++i) {
    Bytes key = rng.RandomBytes(key_sizes[i % 3]);
    auto soft = AesCbc::Create(key, Aes::Backend::kSoftware);
    auto hw = AesCbc::Create(key, Aes::Backend::kHardware);
    ASSERT_TRUE(soft.ok());
    ASSERT_TRUE(hw.ok());
    Bytes iv = rng.RandomBytes(16);
    Bytes plain = rng.RandomBytes(rng.NextU64() % 193);  // 0..192 bytes
    auto ct_soft = soft->EncryptWithIv(plain, iv);
    auto ct_hw = hw->EncryptWithIv(plain, iv);
    ASSERT_TRUE(ct_soft.ok());
    ASSERT_TRUE(ct_hw.ok());
    ASSERT_EQ(*ct_soft, *ct_hw) << "triple " << i;
    // Decrypt cross-wise: each backend opens the other's ciphertext.
    auto pt_a = soft->Decrypt(*ct_hw);
    auto pt_b = hw->Decrypt(*ct_soft);
    ASSERT_TRUE(pt_a.ok());
    ASSERT_TRUE(pt_b.ok());
    ASSERT_EQ(*pt_a, plain);
    ASSERT_EQ(*pt_b, plain);
  }
}

// The interleaved batch path must produce exactly what the one-at-a-time
// path produces: for every item of every batch, re-encrypting its
// plaintext under the IV the batch chose yields the same ciphertext on
// both backends.
TEST(AesBackendCrossCheck, BatchEncryptMatchesSingleMessagePath) {
  SecureRandom rng(7);
  for (Aes::Backend backend : UsableBackends()) {
    SCOPED_TRACE(BackendLabel(backend));
    Bytes key = rng.RandomBytes(16);
    auto cbc = AesCbc::Create(key, backend);
    auto soft = AesCbc::Create(key, Aes::Backend::kSoftware);
    ASSERT_TRUE(cbc.ok());
    ASSERT_TRUE(soft.ok());
    CbcBatchScratch scratch;
    // Uneven lengths exercise the lockstep groups (8/4/2) and the serial
    // tails together.
    for (size_t round = 0; round < 50; ++round) {
      const size_t n = 1 + rng.NextU64() % 37;
      std::vector<Bytes> plains(n), outs(n);
      std::vector<CbcBatchItem> items(n);
      for (size_t i = 0; i < n; ++i) {
        plains[i] = rng.RandomBytes(rng.NextU64() % 160);
        items[i] = {plains[i].data(), plains[i].size(), &outs[i]};
      }
      Status st = cbc->EncryptBatch(
          items.data(), n, [&](uint8_t* out, size_t len) { rng.Fill(out, len); },
          &scratch);
      ASSERT_TRUE(st.ok());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_GE(outs[i].size(), 32u);
        Bytes iv(outs[i].begin(), outs[i].begin() + 16);
        auto expect = soft->EncryptWithIv(plains[i], iv);
        ASSERT_TRUE(expect.ok());
        ASSERT_EQ(outs[i], *expect) << "round " << round << " item " << i;
        auto back = soft->Decrypt(outs[i]);
        ASSERT_TRUE(back.ok());
        ASSERT_EQ(*back, plains[i]);
      }
    }
  }
}

TEST(AesAvalancheProperty, SingleBitFlipChangesHalfTheOutput) {
  auto aes = Aes::Create(Bytes(16, 0x42));
  ASSERT_TRUE(aes.ok());
  uint8_t base[16] = {};
  uint8_t ct_a[16], ct_b[16];
  aes->EncryptBlock(base, ct_a);
  base[0] ^= 0x01;  // flip one bit
  aes->EncryptBlock(base, ct_b);
  int diff_bits = 0;
  for (int i = 0; i < 16; ++i) {
    diff_bits += __builtin_popcount(ct_a[i] ^ ct_b[i]);
  }
  // 128 bits, expect ~64 flipped; allow a generous window.
  EXPECT_GT(diff_bits, 40);
  EXPECT_LT(diff_bits, 90);
}

}  // namespace
}  // namespace crypto
}  // namespace fresque
