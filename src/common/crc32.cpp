#include "common/crc32.h"

#include <array>

namespace pelican {

namespace {

// Slicing-by-8 tables for the reflected IEEE polynomial 0xEDB88320,
// built once at first use. Table 0 is the classic byte-at-a-time table;
// table k maps a byte to its CRC contribution when k zero bytes follow
// it, so eight table lookups fold eight input bytes per step. The
// values are those of the bytewise algorithm, whatever the length,
// alignment or split of the input.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

Tables BuildTables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFU];
    }
  }
  return t;
}

const Tables& CrcTables() {
  static const Tables tables = BuildTables();
  return tables;
}

// Little-endian 32-bit word at p, on any host (one load on x86-64).
std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

void Crc32::Update(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const Tables& t = CrcTables();
  std::uint32_t c = state_;
  for (; size >= 8; bytes += 8, size -= 8) {
    const std::uint32_t lo = LoadLe32(bytes) ^ c;
    const std::uint32_t hi = LoadLe32(bytes + 4);
    c = t[7][lo & 0xFFU] ^ t[6][(lo >> 8) & 0xFFU] ^
        t[5][(lo >> 16) & 0xFFU] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFU] ^
        t[2][(hi >> 8) & 0xFFU] ^ t[1][(hi >> 16) & 0xFFU] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    c = t[0][(c ^ *bytes) & 0xFFU] ^ (c >> 8);
  }
  state_ = c;
}

std::uint32_t Crc32Of(const void* data, std::size_t size) {
  Crc32 crc;
  crc.Update(data, size);
  return crc.Value();
}

std::uint32_t Crc32Of(std::string_view bytes) {
  return Crc32Of(bytes.data(), bytes.size());
}

}  // namespace pelican
