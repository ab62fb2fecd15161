#include "crypto/sha256.h"

#include <cstring>

#include "crypto/dispatch.h"

namespace fresque {
namespace crypto {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

internal::Sha256CompressFn AutoCompress() {
  static const internal::Sha256CompressFn kAuto =
      internal::ForceSoftCrypto() ? nullptr : internal::Sha256NiCompress();
  return kAuto;
}

}  // namespace

Sha256::Sha256(Backend backend) {
  internal::Sha256CompressFn hw = nullptr;
  switch (backend) {
    case Backend::kAuto:
      hw = AutoCompress();
      break;
    case Backend::kSoftware:
      break;
    case Backend::kHardware:
      hw = internal::Sha256NiCompress();
      break;
  }
  compress_ = hw != nullptr ? hw : &SoftCompress;
  Reset();
}

const char* Sha256::backend_name() const {
  return compress_ == &SoftCompress ? "soft" : "sha-ni";
}

const char* Sha256::ActiveBackendName() {
  return AutoCompress() != nullptr ? "sha-ni" : "soft";
}

bool Sha256::HardwareBackendAvailable() {
  return internal::Sha256NiCompress() != nullptr;
}

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha256::ProcessBlock(uint32_t state[8], const uint8_t* block) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
           (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
    uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

void Sha256::SoftCompress(uint32_t state[8], const uint8_t* blocks,
                          size_t n) {
  for (size_t i = 0; i < n; ++i) ProcessBlock(state, blocks + i * kBlockSize);
}

void Sha256::Update(const uint8_t* data, size_t len) {
  total_len_ += len;
  if (buffer_len_ > 0) {
    size_t take = std::min(len, kBlockSize - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ == kBlockSize) {
      compress_(state_, buffer_, 1);
      buffer_len_ = 0;
    }
  }
  // Every whole block in one call: the SHA-NI kernel keeps the state in
  // registers across blocks.
  const size_t whole = len / kBlockSize;
  if (whole > 0) {
    compress_(state_, data, whole);
    data += whole * kBlockSize;
    len -= whole * kBlockSize;
  }
  if (len > 0) {
    std::memcpy(buffer_, data, len);
    buffer_len_ = len;
  }
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::Finish() {
  uint64_t bit_len = total_len_ * 8;
  uint8_t pad[kBlockSize * 2];
  size_t pad_len = 0;
  pad[pad_len++] = 0x80;
  size_t rem = (buffer_len_ + 1) % kBlockSize;
  size_t zeros = (rem <= 56) ? (56 - rem) : (kBlockSize + 56 - rem);
  std::memset(pad + pad_len, 0, zeros);
  pad_len += zeros;
  for (int i = 7; i >= 0; --i) {
    pad[pad_len++] = static_cast<uint8_t>(bit_len >> (8 * i));
  }
  Update(pad, pad_len);

  std::array<uint8_t, kDigestSize> digest;
  for (int i = 0; i < 8; ++i) {
    digest[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    digest[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::Hash(const uint8_t* data,
                                                      size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Finish();
}

}  // namespace crypto
}  // namespace fresque
