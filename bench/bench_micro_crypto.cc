// Micro-benchmarks of the crypto substrate, reported per backend: every
// AES operation runs against the software table implementation AND the
// hardware backend (AES-NI / ARMv8 CE) when this CPU has one, side by
// side, so a run shows exactly what the dispatch layer buys. SHA-256 and
// HMAC run on the portable compression and on SHA-NI when present; the
// ChaCha20 CSPRNG rides along as the remaining CostModel input. Results
// also land in machine-readable micro_crypto.json.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "crypto/aes.h"
#include "crypto/cbc.h"
#include "crypto/chacha20.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace {

using fresque::Bytes;
using fresque::Status;
using fresque::Stopwatch;
using fresque::bench::Fmt;
using fresque::bench::TableWriter;
using fresque::bench::ValueOrExit;
using fresque::crypto::Aes;
using fresque::crypto::AesCbc;

struct JsonRow {
  std::string op;
  std::string backend;
  double ns_per_op = 0;
  size_t bytes_per_op = 0;
};

std::vector<JsonRow> g_rows;

/// Times `op` (called once per iteration) and returns mean ns/op. Two
/// phases: a short calibration run sizes the measured run to ~0.2s so
/// fast ops get enough iterations to dominate timer overhead.
template <typename Op>
double TimeNs(Op&& op) {
  constexpr double kTargetNs = 2e8;
  size_t iters = 1;
  for (;;) {
    Stopwatch w;
    for (size_t i = 0; i < iters; ++i) op();
    double ns = static_cast<double>(w.ElapsedNanos());
    if (ns >= kTargetNs / 4 || iters >= (1u << 24)) {
      return ns / static_cast<double>(iters);
    }
    double scale = ns > 0 ? kTargetNs / ns : 16.0;
    if (scale > 16.0) scale = 16.0;
    if (scale < 2.0) scale = 2.0;
    iters = static_cast<size_t>(static_cast<double>(iters) * scale);
  }
}

void Record(const std::string& op, const std::string& backend, double ns,
            size_t bytes) {
  g_rows.push_back({op, backend, ns, bytes});
}

/// Name of the hardware backend on this CPU ("aesni"/"armv8"), probed
/// independently of the FRESQUE_FORCE_SOFT_CRYPTO override so the bench
/// always compares both implementations when the silicon has them.
const char* HardwareName() {
  static const std::string name = [] {
    auto aes = Aes::Create(Bytes(16, 0), Aes::Backend::kHardware);
    return aes.ok() ? std::string(aes->backend_name()) : std::string("-");
  }();
  return name.c_str();
}

/// One AES op measured under both backends; emits a soft / hw / speedup
/// table row and two JSON rows (hw columns are "-" without hardware).
template <typename MakeOp>
void SideBySide(TableWriter& table, const std::string& op, size_t bytes,
                MakeOp&& make_op) {
  double soft_ns = TimeNs(make_op(Aes::Backend::kSoftware));
  Record(op, "soft", soft_ns, bytes);
  if (!Aes::HardwareBackendAvailable()) {
    table.Row({op, Fmt(soft_ns, "%.1f"), "-", "-"});
    return;
  }
  double hw_ns = TimeNs(make_op(Aes::Backend::kHardware));
  Record(op, HardwareName(), hw_ns, bytes);
  table.Row({op, Fmt(soft_ns, "%.1f"), Fmt(hw_ns, "%.1f"),
             Fmt(soft_ns / hw_ns, "%.1fx")});
}

void WriteJson(const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"active_backend\": \"" << Aes::ActiveBackendName()
      << "\",\n  \"hardware_available\": "
      << (Aes::HardwareBackendAvailable() ? "true" : "false")
      << ",\n  \"active_sha256_backend\": \""
      << fresque::crypto::Sha256::ActiveBackendName()
      << "\",\n  \"results\": [\n";
  for (size_t i = 0; i < g_rows.size(); ++i) {
    const auto& r = g_rows[i];
    out << "    {\"op\": \"" << r.op << "\", \"backend\": \"" << r.backend
        << "\", \"ns_per_op\": " << Fmt(r.ns_per_op, "%.1f")
        << ", \"bytes_per_op\": " << r.bytes_per_op << "}"
        << (i + 1 < g_rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "[json] " << path << "\n";
}

}  // namespace

int main() {
  std::cout << "active AES backend: " << Aes::ActiveBackendName()
            << " (hardware " << (Aes::HardwareBackendAvailable() ? "yes" : "no")
            << ")\n";

  TableWriter table("AES backends side by side (ns/op)",
                    {"op", "soft_ns", "hw_ns", "speedup"});

  SideBySide(table, "aes128_block_encrypt", 16, [](Aes::Backend b) {
    auto aes = ValueOrExit(Aes::Create(Bytes(16, 0x42), b));
    return [aes = std::move(aes)]() mutable {
      uint8_t block[16] = {};
      aes.EncryptBlock(block, block);
    };
  });

  for (size_t len : {size_t{48}, size_t{120}, size_t{1024}, size_t{16384}}) {
    SideBySide(table, "aes128_cbc_encrypt_" + std::to_string(len), len,
               [len](Aes::Backend b) {
                 auto cbc = ValueOrExit(AesCbc::Create(Bytes(16, 0x42), b));
                 fresque::crypto::SecureRandom rng(1);
                 Bytes payload = rng.RandomBytes(len);
                 return [cbc = std::move(cbc), rng, payload]() mutable {
                   auto ct = cbc.Encrypt(payload, [&](uint8_t* out, size_t n) {
                     rng.Fill(out, n);
                   });
                   if (!ct.ok()) std::exit(1);
                 };
               });
  }

  // The pipeline's actual shape: 64 independent record-sized plaintexts
  // encrypted as one interleaved batch (what a computing node does per
  // inbox batch). ns/op covers the whole 64-record batch; divide by 64 to
  // compare with the single-message rows above.
  SideBySide(table, "aes128_cbc_encrypt_batch64_of_120", 120,
             [](Aes::Backend b) {
               auto cbc = ValueOrExit(AesCbc::Create(Bytes(16, 0x42), b));
               fresque::crypto::SecureRandom rng(1);
               constexpr size_t kBatch = 64;
               auto plains = std::make_shared<std::vector<Bytes>>();
               auto outs = std::make_shared<std::vector<Bytes>>(kBatch);
               for (size_t i = 0; i < kBatch; ++i) {
                 plains->push_back(rng.RandomBytes(120));
               }
               auto scratch =
                   std::make_shared<fresque::crypto::CbcBatchScratch>();
               return [cbc = std::move(cbc), rng, plains, outs,
                       scratch]() mutable {
                 fresque::crypto::CbcBatchItem items[kBatch];
                 for (size_t i = 0; i < kBatch; ++i) {
                   items[i] = {(*plains)[i].data(), (*plains)[i].size(),
                               &(*outs)[i]};
                 }
                 Status st = cbc.EncryptBatch(
                     items, kBatch,
                     [&](uint8_t* out, size_t n) { rng.Fill(out, n); },
                     scratch.get());
                 if (!st.ok()) std::exit(1);
               };
             });

  for (size_t len : {size_t{120}, size_t{1024}}) {
    SideBySide(table, "aes128_cbc_decrypt_" + std::to_string(len), len,
               [len](Aes::Backend b) {
                 auto cbc = ValueOrExit(AesCbc::Create(Bytes(16, 0x42), b));
                 fresque::crypto::SecureRandom rng(1);
                 Bytes payload = rng.RandomBytes(len);
                 auto ct = ValueOrExit(cbc.Encrypt(
                     payload,
                     [&](uint8_t* out, size_t n) { rng.Fill(out, n); }));
                 return [cbc = std::move(cbc), ct = std::move(ct)]() mutable {
                   auto pt = cbc.Decrypt(ct);
                   if (!pt.ok()) std::exit(1);
                 };
               });
  }

  // SHA-256 and HMAC on each compression path this CPU offers, named
  // like the AES rows ("soft", "sha-ni").
  using fresque::crypto::Sha256;
  std::vector<Sha256::Backend> sha_backends{Sha256::Backend::kSoftware};
  if (Sha256::HardwareBackendAvailable()) {
    sha_backends.push_back(Sha256::Backend::kHardware);
  }
  TableWriter rest("Other primitives (ns/op)",
                   {"op", "backend", "ns_per_op"});
  {
    fresque::crypto::SecureRandom rng(1);
    for (Sha256::Backend b : sha_backends) {
      const std::string name = Sha256(b).backend_name();
      for (size_t len : {size_t{64}, size_t{1024}, size_t{65536}}) {
        Bytes payload = rng.RandomBytes(len);
        double ns = TimeNs([&] {
          Sha256 h(b);
          h.Update(payload);
          auto d = h.Finish();
          (void)d;
        });
        Record("sha256_" + std::to_string(len), name, ns, len);
        rest.Row({"sha256_" + std::to_string(len), name, Fmt(ns, "%.1f")});
      }
      Bytes key(32, 0x11);
      Bytes payload = rng.RandomBytes(128);
      double mac_ns = TimeNs([&] {
        auto mac = fresque::crypto::HmacSha256::Mac(key, payload, b);
        (void)mac;
      });
      Record("hmac_sha256_128", name, mac_ns, 128);
      rest.Row({"hmac_sha256_128", name, Fmt(mac_ns, "%.1f")});
    }

    for (size_t len : {size_t{16}, size_t{4096}}) {
      Bytes buf(len);
      double ns = TimeNs([&] { rng.Fill(buf.data(), buf.size()); });
      Record("chacha20_fill_" + std::to_string(len), "n/a", ns, len);
      rest.Row({"chacha20_fill_" + std::to_string(len), "n/a",
                Fmt(ns, "%.1f")});
    }
  }

  WriteJson("micro_crypto.json");
  return 0;
}
