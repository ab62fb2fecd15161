// x86 SHA-NI SHA-256 compression. This translation unit is compiled with
// -msha -msse4.1 -mssse3 (see src/crypto/CMakeLists.txt); the kernel is
// only reachable after the runtime CPU probe in Sha256NiCompress()
// succeeds, so the ISA extensions never leak onto machines without them.

#include "crypto/sha256.h"

#if defined(__SHA__) && defined(__SSE4_1__) && defined(__SSSE3__) && \
    (defined(__x86_64__) || defined(__i386__))

#include <cpuid.h>
#include <immintrin.h>

namespace fresque {
namespace crypto {
namespace internal {
namespace {

alignas(16) constexpr uint32_t kK[64] = {
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

// SHA256RNDS2 keeps the eight working variables as two vectors, ABEF and
// CDGH (A in the top lane). Each of the 16 groups below runs four rounds
// on four schedule words; words 16..63 come from SHA256MSG1/MSG2 over the
// previous four groups, which live in a 4-entry ring indexed by group.
void NiCompress(uint32_t state[8], const uint8_t* blocks, size_t n) {
  // Big-endian word loads: byte-reverse each 32-bit lane.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);           // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);         // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);  // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);      // CDGH

  for (; n > 0; --n, blocks += Sha256::kBlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4] = {};
    for (int g = 0; g < 16; ++g) {
      __m128i words;
      if (g < 4) {
        words = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)),
            kByteSwap);
      } else {
        // w[j] = w[j-16] + s0(w[j-15]) + w[j-7] + s1(w[j-2]), four at once.
        const __m128i back1 = w[(g + 3) & 3];
        __m128i t = _mm_sha256msg1_epu32(w[g & 3], w[(g + 1) & 3]);
        t = _mm_add_epi32(t, _mm_alignr_epi8(back1, w[(g + 2) & 3], 4));
        words = _mm_sha256msg2_epu32(t, back1);
      }
      w[g & 3] = words;
      __m128i wk = _mm_add_epi32(
          words, _mm_load_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
      // Two rounds turn ABEF into the next CDGH, so after the pair of
      // RNDS2 calls each register holds its own half again.
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);           // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);          // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);       // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);          // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), cdgh);
}

bool CpuHasShaNi() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return sha && ssse3 && sse41;
}

}  // namespace

Sha256CompressFn Sha256NiCompress() {
  static const bool kSupported = CpuHasShaNi();
  return kSupported ? &NiCompress : nullptr;
}

}  // namespace internal
}  // namespace crypto
}  // namespace fresque

#else  // no SHA-NI compile support, or non-x86 target

namespace fresque {
namespace crypto {
namespace internal {

Sha256CompressFn Sha256NiCompress() { return nullptr; }

}  // namespace internal
}  // namespace crypto
}  // namespace fresque

#endif
