#include "crypto/hmac.h"

#include <cstring>

namespace fresque {
namespace crypto {

HmacSha256::HmacSha256(const Bytes& key, Sha256::Backend backend)
    : backend_(backend), inner_(backend) {
  uint8_t block_key[Sha256::kBlockSize];
  std::memset(block_key, 0, sizeof(block_key));
  if (key.size() > Sha256::kBlockSize) {
    Sha256 pre(backend);
    pre.Update(key);
    auto digest = pre.Finish();
    std::memcpy(block_key, digest.data(), digest.size());
  } else {
    std::memcpy(block_key, key.data(), key.size());
  }

  uint8_t ipad_key[Sha256::kBlockSize];
  for (size_t i = 0; i < Sha256::kBlockSize; ++i) {
    ipad_key[i] = block_key[i] ^ 0x36;
    opad_key_[i] = block_key[i] ^ 0x5c;
  }
  inner_.Update(ipad_key, sizeof(ipad_key));
}

std::array<uint8_t, HmacSha256::kDigestSize> HmacSha256::Finish() {
  auto inner_digest = inner_.Finish();
  Sha256 outer(backend_);
  outer.Update(opad_key_, sizeof(opad_key_));
  outer.Update(inner_digest.data(), inner_digest.size());
  return outer.Finish();
}

std::array<uint8_t, HmacSha256::kDigestSize> HmacSha256::Mac(
    const Bytes& key, const Bytes& message, Sha256::Backend backend) {
  HmacSha256 mac(key, backend);
  mac.Update(message);
  return mac.Finish();
}

bool ConstantTimeEquals(const uint8_t* a, const uint8_t* b, size_t len) {
  uint8_t acc = 0;
  for (size_t i = 0; i < len; ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

}  // namespace crypto
}  // namespace fresque
