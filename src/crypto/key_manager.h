#ifndef FRESQUE_CRYPTO_KEY_MANAGER_H_
#define FRESQUE_CRYPTO_KEY_MANAGER_H_

#include <cstdint>

#include "common/bytes.h"
#include "common/result.h"

namespace fresque {
namespace crypto {

/// Key material held by the trusted collector/client.
///
/// A single master secret is expanded into independent per-purpose,
/// per-publication keys with HMAC-SHA-256 as a PRF:
///   key(purpose, pn) = HMAC(master, purpose || pn)
/// so every publication can be re-keyed without redistributing secrets,
/// and compromise of one derived key does not expose the others.
///
/// Thread-safety: immutable after construction — every derivation reads
/// only the master secret — so a single instance is safely shared by
/// const pointer across all computing nodes and the merger without
/// locking.
class KeyManager {
 public:
  static constexpr size_t kKeySize = 32;  // AES-256

  /// `master_secret` may be any length; it is absorbed through the PRF.
  explicit KeyManager(Bytes master_secret);

  /// Creates a manager with a fresh random master secret.
  static KeyManager Generate();

  /// AES key used to encrypt records of publication `publication_number`.
  Bytes RecordKey(uint64_t publication_number) const;

  /// MAC key for tagging published index payloads of a publication.
  Bytes IndexMacKey(uint64_t publication_number) const;

  const Bytes& master_secret() const { return master_; }

 private:
  Bytes Derive(const char* purpose, uint64_t pn) const;

  Bytes master_;
};

}  // namespace crypto
}  // namespace fresque

#endif  // FRESQUE_CRYPTO_KEY_MANAGER_H_
