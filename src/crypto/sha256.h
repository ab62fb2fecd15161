#ifndef FRESQUE_CRYPTO_SHA256_H_
#define FRESQUE_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <cstddef>

#include "common/bytes.h"

namespace fresque {
namespace crypto {

namespace internal {

/// Compresses `n` whole 64-byte blocks into the eight-word chaining state.
using Sha256CompressFn = void (*)(uint32_t state[8], const uint8_t* blocks,
                                  size_t n);

/// x86 SHA-NI kernel (sha256_ni.cc), or nullptr when it is not compiled in
/// or the CPU lacks SHA-NI, SSSE3 or SSE4.1.
Sha256CompressFn Sha256NiCompress();

}  // namespace internal

/// Incremental SHA-256 (FIPS 180-4). Used for key derivation fingerprints
/// and as the compression function inside HMAC-SHA-256, which tags every
/// publication.
///
/// Like Aes, the compression function is picked once per process: the
/// SHA-NI kernel when the CPU has it, else the portable ProcessBlock.
/// `FRESQUE_FORCE_SOFT_CRYPTO` pins the portable path. Both paths give the
/// same digests (known-answer and cross-check tests).
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  enum class Backend : uint8_t {
    kAuto = 0,      ///< env override, else SHA-NI if present, else soft
    kSoftware = 1,  ///< portable ProcessBlock, always available
    kHardware = 2,  ///< SHA-NI; soft when !HardwareBackendAvailable()
  };

  explicit Sha256(Backend backend = Backend::kAuto);

  /// Returns the hasher to its initial state.
  void Reset();

  /// Absorbs `len` bytes.
  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }

  /// Finishes the hash. The object must be Reset() before reuse.
  std::array<uint8_t, kDigestSize> Finish();

  /// One-shot convenience.
  static std::array<uint8_t, kDigestSize> Hash(const uint8_t* data,
                                               size_t len);
  static std::array<uint8_t, kDigestSize> Hash(const Bytes& data) {
    return Hash(data.data(), data.size());
  }

  /// Name of the compression this instance runs ("sha-ni", "soft").
  const char* backend_name() const;

  /// Name of the compression Backend::kAuto resolves to.
  static const char* ActiveBackendName();

  /// True when the SHA-NI kernel is compiled in and the CPU supports it
  /// (independent of the FRESQUE_FORCE_SOFT_CRYPTO override).
  static bool HardwareBackendAvailable();

 private:
  /// The portable compression of one block; the reference for SHA-NI.
  static void ProcessBlock(uint32_t state[8], const uint8_t* block);
  static void SoftCompress(uint32_t state[8], const uint8_t* blocks,
                           size_t n);

  internal::Sha256CompressFn compress_;
  uint32_t state_[8];
  uint64_t total_len_ = 0;
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_ = 0;
};

}  // namespace crypto
}  // namespace fresque

#endif  // FRESQUE_CRYPTO_SHA256_H_
