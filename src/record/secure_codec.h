#ifndef FRESQUE_RECORD_SECURE_CODEC_H_
#define FRESQUE_RECORD_SECURE_CODEC_H_

#include <memory>
#include <span>

#include "common/bytes.h"
#include "common/hot.h"
#include "common/result.h"
#include "crypto/cbc.h"
#include "crypto/chacha20.h"
#include "record/record.h"

namespace fresque {
namespace record {

/// Produces and opens e-records: AES-CBC ciphertexts of
///   u8 kind || body
/// where kind 0 marks a real record (body = RecordCodec bytes) and kind 1
/// marks a dummy (body = `padding_len` zero bytes, the same for every
/// dummy). The kind byte is *inside* the ciphertext and every e-record has
/// its own fresh random IV, so the cloud cannot tell a dummy from a real
/// record of the same length, nor two dummies apart (IND-CPA; see
/// docs/SECURITY.md), while the trusted client discards dummies after
/// decryption.
class SecureRecordCodec {
 public:
  static constexpr uint8_t kKindReal = 0;
  static constexpr uint8_t kKindDummy = 1;

  /// `key` is an AES key (16/24/32 bytes); `schema` must outlive the
  /// codec; `rng` supplies the IVs.
  static Result<SecureRecordCodec> Create(const Bytes& key,
                                          const Schema* schema,
                                          crypto::SecureRandom* rng);

  /// Bytes an e-record of `schema` can need beyond the text line it was
  /// parsed from: the IV, a whole PKCS#7 padding block, the kind byte, and
  /// 8 bytes per field (a field's fixed-width value or length prefix may
  /// be longer than its text). A line buffer reserved with this headroom
  /// takes its own ciphertext without reallocating.
  static size_t CiphertextHeadroom(const Schema& schema) {
    return 2 * crypto::Aes::kBlockSize + 1 + 8 * schema.num_fields();
  }

  /// Encrypts a real record.
  Result<Bytes> EncryptRecord(const Record& rec);

  /// Encrypts a record already serialized with RecordCodec (the form a
  /// parsed record travels in between collector components).
  Result<Bytes> EncryptSerializedRecord(const Bytes& body);

  /// Length of a dummy's ciphertext: IV plus the padded `kind ‖
  /// 0^padding_len` plaintext.
  static size_t DummyCiphertextSize(size_t padding_len) {
    return crypto::AesCbc::CiphertextSize(1 + padding_len);
  }

  /// Encrypts a dummy with `padding_len` bytes of body. A dummy is only as
  /// hidden as its length: its ciphertext must be as long as real ones
  /// (CollectorConfig::dummy_padding_len, docs/SECURITY.md).
  Result<Bytes> EncryptDummy(size_t padding_len);

  /// Encrypts one dummy into each span `out + at[i]`, which must hold
  /// DummyCiphertextSize(padding_len) bytes. IVs are drawn in the order of
  /// `at`, as staging the same dummies in a BatchEncryptor and flushing it
  /// draws them, so the bytes are the same; every dummy reads one shared
  /// plaintext. A failure leaves the spans unspecified.
  Status EncryptDummiesAt(size_t padding_len, uint8_t* out,
                          std::span<const size_t> at);

  /// Stages many records and encrypts them in one AES batch call, letting
  /// hardware backends interleave the CBC chains across the instruction
  /// pipeline. All plaintexts accumulate in one reusable arena, so the
  /// steady-state stage/flush cycle performs zero heap allocations (the
  /// arena, item lists and every `out` buffer retain their capacity).
  ///
  /// Usage: Stage* each record with the Bytes* that should receive its
  /// ciphertext, then Flush() once per batch. The out pointers must stay
  /// valid until Flush returns; a failed Flush leaves the out buffers
  /// unspecified and clears the batch.
  class BatchEncryptor {
   public:
    explicit BatchEncryptor(SecureRecordCodec* codec) : codec_(codec) {}

    /// Serializes and stages a real record. Serialization errors surface
    /// here (the record is not staged); crypto errors surface at Flush.
    FRESQUE_HOT Status StageRecord(const Record& rec, Bytes* out);

    /// Stages a dummy with `padding_len` bytes of body.
    FRESQUE_HOT void StageDummy(size_t padding_len, Bytes* out);

    /// Records currently staged and not yet flushed.
    size_t staged() const { return outs_.size(); }

    /// Encrypts everything staged (no-op when empty) and resets.
    FRESQUE_HOT Status Flush();

   private:
    SecureRecordCodec* codec_;
    Bytes arena_;                  ///< kind||body plaintexts, back to back
    std::vector<size_t> offsets_;  ///< start of each plaintext in arena_
    std::vector<Bytes*> outs_;
    std::vector<crypto::CbcBatchItem> items_;
    crypto::CbcBatchScratch scratch_;
  };

  /// Decryption outcome: a real record or a recognized dummy.
  struct Opened {
    bool is_dummy = false;
    Record rec;
  };

  /// Decrypts and classifies an e-record.
  Result<Opened> Decrypt(const Bytes& e_record) const;

  const Schema& schema() const { return codec_.schema(); }

  /// AES backend the codec's cipher dispatches to.
  const char* crypto_backend_name() const { return cbc_.backend_name(); }

 private:
  SecureRecordCodec(crypto::AesCbc cbc, const Schema* schema,
                    crypto::SecureRandom* rng)
      : cbc_(std::move(cbc)), codec_(schema), rng_(rng) {}

  crypto::AesCbc cbc_;
  RecordCodec codec_;
  crypto::SecureRandom* rng_;
};

}  // namespace record
}  // namespace fresque

#endif  // FRESQUE_RECORD_SECURE_CODEC_H_
