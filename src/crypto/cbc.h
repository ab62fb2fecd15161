#ifndef FRESQUE_CRYPTO_CBC_H_
#define FRESQUE_CRYPTO_CBC_H_

#include <cstring>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/aes.h"

namespace fresque {
namespace crypto {

/// One message in an EncryptBatch call: `len` plaintext bytes at `plain`,
/// ciphertext (IV || blocks) written to `out`, which the caller has sized
/// to AesCbc::CiphertextSize(len) bytes. Items may share a plaintext.
struct CbcBatchItem {
  const uint8_t* plain = nullptr;
  size_t len = 0;
  uint8_t* out = nullptr;
};

/// Reusable working memory for EncryptBatch. Holding one of these per
/// encrypting thread keeps the batch path allocation-free after warmup.
struct CbcBatchScratch {
  std::vector<internal::CbcStream> streams;
  std::vector<internal::CbcStream> final_streams;
  Bytes final_blocks;  ///< one padded 16-byte final block per item
};

/// AES in CBC mode with PKCS#7 padding — the semantically-secure
/// encryption scheme the PINED-RQ family assumes (§2.2.2 of the paper).
///
/// The ciphertext layout is `IV || C_1 || ... || C_n`; a fresh random IV
/// is drawn per message so equal plaintexts yield unlinkable ciphertexts.
///
/// CBC chaining is inherently serial *within* a message but independent
/// *across* messages, so EncryptBatch hands all messages' chains to the
/// AES backend at once; the hardware backends interleave them across the
/// instruction pipeline for a large throughput win over one-at-a-time
/// Encrypt calls (the outputs are byte-identical either way).
class AesCbc {
 public:
  /// `key` must be 16, 24 or 32 bytes.
  static Result<AesCbc> Create(const Bytes& key,
                               Aes::Backend backend = Aes::Backend::kAuto);

  /// Encrypts with the provided 16-byte IV (deterministic; used by tests
  /// against NIST vectors and by callers that manage their own IVs).
  Result<Bytes> EncryptWithIv(const Bytes& plaintext, const Bytes& iv) const;

  /// Encrypts with a random IV drawn from `iv_source` (any callable
  /// filling a 16-byte buffer). The IV is prepended to the output.
  template <typename IvFiller>
  Result<Bytes> Encrypt(const Bytes& plaintext, IvFiller&& fill_iv) const {
    Bytes iv(Aes::kBlockSize);
    fill_iv(iv.data(), iv.size());
    return EncryptWithIv(plaintext, iv);
  }

  /// Encrypts `n` independent messages in one call. Each item's `out`
  /// receives IV || ciphertext, CiphertextSize(len) bytes, the IV drawn
  /// per item, in item order, from `fill_iv(ptr, 16)`. Output is
  /// byte-identical to per-item Encrypt with the same IVs.
  ///
  /// Works in two backend passes so chains stay independent: all full
  /// plaintext blocks first (interleaved across items), then every item's
  /// padded final block (also interleaved — records are near-uniform
  /// length, so this second pass is one lockstep round, not a tail).
  template <typename IvFiller>
  Status EncryptBatch(const CbcBatchItem* items, size_t n, IvFiller&& fill_iv,
                      CbcBatchScratch* scratch) const {
    constexpr size_t kB = Aes::kBlockSize;
    scratch->streams.clear();
    scratch->final_streams.clear();
    scratch->final_blocks.resize(n * kB);

    for (size_t i = 0; i < n; ++i) {
      const CbcBatchItem& it = items[i];
      if (it.out == nullptr || (it.len != 0 && it.plain == nullptr)) {
        return Status::InvalidArgument("EncryptBatch: null item buffer");
      }
      const size_t full = it.len / kB;
      fill_iv(it.out, kB);
      if (full > 0) {
        scratch->streams.push_back(
            internal::CbcStream{it.plain, it.out + kB, full, it.out});
      }
    }
    aes_.CbcEncryptStreams(scratch->streams.data(), scratch->streams.size());

    // Final blocks: remainder bytes + PKCS#7 pad, chained off each item's
    // last full ciphertext block (or the IV). All n are independent now
    // that the full blocks above are done.
    for (size_t i = 0; i < n; ++i) {
      const CbcBatchItem& it = items[i];
      const size_t full = it.len / kB;
      const size_t rem = it.len % kB;
      const uint8_t pad = static_cast<uint8_t>(kB - rem);
      uint8_t* fb = scratch->final_blocks.data() + i * kB;
      if (rem != 0) std::memcpy(fb, it.plain + full * kB, rem);
      std::memset(fb + rem, pad, pad);
      scratch->final_streams.push_back(internal::CbcStream{
          fb, it.out + kB + full * kB, 1, it.out + full * kB});
    }
    aes_.CbcEncryptStreams(scratch->final_streams.data(),
                           scratch->final_streams.size());
    return Status::OK();
  }

  /// Decrypts `IV || ciphertext`; verifies and strips PKCS#7 padding.
  /// Returns Corruption on malformed input or bad padding.
  Result<Bytes> Decrypt(const Bytes& ciphertext) const;

  /// Size of Encrypt() output for a `plaintext_len`-byte message
  /// (IV + padded payload).
  static size_t CiphertextSize(size_t plaintext_len) {
    return Aes::kBlockSize +
           (plaintext_len / Aes::kBlockSize + 1) * Aes::kBlockSize;
  }

  /// Backend the underlying AES instance dispatches to.
  const char* backend_name() const { return aes_.backend_name(); }

 private:
  explicit AesCbc(Aes aes) : aes_(std::move(aes)) {}

  Aes aes_;
};

}  // namespace crypto
}  // namespace fresque

#endif  // FRESQUE_CRYPTO_CBC_H_
