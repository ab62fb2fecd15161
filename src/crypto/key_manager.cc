#include "crypto/key_manager.h"

#include "crypto/chacha20.h"
#include "crypto/hmac.h"

namespace fresque {
namespace crypto {

KeyManager::KeyManager(Bytes master_secret)
    : master_(std::move(master_secret)) {}

KeyManager KeyManager::Generate() {
  SecureRandom rng;
  return KeyManager(rng.RandomBytes(kKeySize));
}

Bytes KeyManager::Derive(const char* purpose, uint64_t pn) const {
  Bytes info;
  for (const char* p = purpose; *p; ++p) {
    info.push_back(static_cast<uint8_t>(*p));
  }
  for (int i = 0; i < 8; ++i) {
    info.push_back(static_cast<uint8_t>(pn >> (8 * i)));
  }
  auto mac = HmacSha256::Mac(master_, info);
  return Bytes(mac.begin(), mac.end());
}

Bytes KeyManager::RecordKey(uint64_t publication_number) const {
  return Derive("record", publication_number);
}

Bytes KeyManager::IndexMacKey(uint64_t publication_number) const {
  return Derive("index-mac", publication_number);
}

}  // namespace crypto
}  // namespace fresque
