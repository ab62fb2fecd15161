#include "record/secure_codec.h"

#include <algorithm>
#include <cstring>

namespace fresque {
namespace record {

namespace {

/// Every dummy's plaintext: the dummy kind byte, then `padding_len` zeros.
/// A fresh IV per dummy is what keeps the ciphertexts apart.
void WriteDummyPlaintext(uint8_t* p, size_t padding_len) {
  p[0] = SecureRecordCodec::kKindDummy;
  std::memset(p + 1, 0, padding_len);
}

}  // namespace

Result<SecureRecordCodec> SecureRecordCodec::Create(
    const Bytes& key, const Schema* schema, crypto::SecureRandom* rng) {
  auto cbc = crypto::AesCbc::Create(key);
  if (!cbc.ok()) return cbc.status();
  return SecureRecordCodec(std::move(cbc).ValueOrDie(), schema, rng);
}

Result<Bytes> SecureRecordCodec::EncryptRecord(const Record& rec) {
  auto body = codec_.Serialize(rec);
  if (!body.ok()) return body.status();
  return EncryptSerializedRecord(*body);
}

Result<Bytes> SecureRecordCodec::EncryptSerializedRecord(const Bytes& body) {
  Bytes plain;
  plain.reserve(body.size() + 1);
  plain.push_back(kKindReal);
  plain.insert(plain.end(), body.begin(), body.end());
  return cbc_.Encrypt(plain,
                      [this](uint8_t* out, size_t n) { rng_->Fill(out, n); });
}

Result<Bytes> SecureRecordCodec::EncryptDummy(size_t padding_len) {
  Bytes plain(padding_len + 1);
  WriteDummyPlaintext(plain.data(), padding_len);
  return cbc_.Encrypt(plain,
                      [this](uint8_t* out, size_t n) { rng_->Fill(out, n); });
}

Status SecureRecordCodec::EncryptDummiesAt(size_t padding_len, uint8_t* out,
                                           std::span<const size_t> at) {
  // fresque-lint: allow(hot-alloc) one plaintext per call, and a publication pads all its slots in one call
  Bytes plain(padding_len + 1);
  WriteDummyPlaintext(plain.data(), padding_len);
  // 64 dummies per batch call, so the item list and the CBC scratch stay
  // small however many dummies there are.
  constexpr size_t kChunk = 64;
  crypto::CbcBatchItem items[kChunk];
  crypto::CbcBatchScratch scratch;
  for (size_t begin = 0; begin < at.size(); begin += kChunk) {
    const size_t n = std::min(kChunk, at.size() - begin);
    for (size_t i = 0; i < n; ++i) {
      items[i] = crypto::CbcBatchItem{plain.data(), plain.size(),
                                      out + at[begin + i]};
    }
    FRESQUE_RETURN_NOT_OK(cbc_.EncryptBatch(
        items, n, [this](uint8_t* p, size_t len) { rng_->Fill(p, len); },
        &scratch));
  }
  return Status::OK();
}

Status SecureRecordCodec::BatchEncryptor::StageRecord(const Record& rec,
                                                      Bytes* out) {
  const size_t start = arena_.size();
  arena_.push_back(kKindReal);
  Status st = codec_->codec_.SerializeAppend(rec, &arena_);
  if (!st.ok()) {
    arena_.resize(start);
    return st;
  }
  offsets_.push_back(start);
  outs_.push_back(out);
  return Status::OK();
}

void SecureRecordCodec::BatchEncryptor::StageDummy(size_t padding_len,
                                                   Bytes* out) {
  const size_t start = arena_.size();
  arena_.resize(start + 1 + padding_len);
  WriteDummyPlaintext(arena_.data() + start, padding_len);
  offsets_.push_back(start);
  outs_.push_back(out);
}

Status SecureRecordCodec::BatchEncryptor::Flush() {
  const size_t n = outs_.size();
  if (n == 0) return Status::OK();
  // Outputs are sized and item pointers resolved only now: the arena
  // cannot reallocate under them anymore.
  items_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t end = (i + 1 < n) ? offsets_[i + 1] : arena_.size();
    const size_t len = end - offsets_[i];
    outs_[i]->resize(crypto::AesCbc::CiphertextSize(len));
    items_[i] = crypto::CbcBatchItem{arena_.data() + offsets_[i], len,
                                     outs_[i]->data()};
  }
  crypto::SecureRandom* rng = codec_->rng_;
  Status st = codec_->cbc_.EncryptBatch(
      items_.data(), n, [rng](uint8_t* p, size_t len) { rng->Fill(p, len); },
      &scratch_);
  arena_.clear();
  offsets_.clear();
  outs_.clear();
  return st;
}

Result<SecureRecordCodec::Opened> SecureRecordCodec::Decrypt(
    const Bytes& e_record) const {
  auto plain = cbc_.Decrypt(e_record);
  if (!plain.ok()) return plain.status();
  if (plain->empty()) {
    return Status::Corruption("empty e-record plaintext");
  }
  Opened out;
  uint8_t kind = (*plain)[0];
  if (kind == kKindDummy) {
    out.is_dummy = true;
    return out;
  }
  if (kind != kKindReal) {
    return Status::Corruption("unknown e-record kind byte");
  }
  Bytes body(plain->begin() + 1, plain->end());
  auto rec = codec_.Deserialize(body);
  if (!rec.ok()) return rec.status();
  out.rec = std::move(*rec);
  return out;
}

}  // namespace record
}  // namespace fresque
