#include "durability/crc32.h"

#include <array>

namespace fresque {
namespace durability {

namespace {

using Table = std::array<uint32_t, 256>;

// Slicing-by-8 tables for the reflected polynomial 0xEDB88320.
// kTables[0] is the classic byte-at-a-time table; kTables[k][b] is the CRC
// of byte b followed by k zero bytes, so eight lookups fold one 8-byte
// word into the running CRC.
constexpr std::array<Table, 8> MakeTables() {
  std::array<Table, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr std::array<Table, 8> kTables = MakeTables();

// Little-endian load composed from bytes, so the result does not depend
// on the host's byte order.
inline uint32_t Load32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t len, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    const uint32_t lo = Load32(data) ^ c;
    const uint32_t hi = Load32(data + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {
    c = kTables[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace durability
}  // namespace fresque
