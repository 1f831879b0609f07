#include "common/crc32.h"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#define PELICAN_CRC32_PCLMUL 1
#endif

#include "common/check.h"

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

// The slicing-by-8 tier: eight input bytes per step, then a byte at a
// time. Returns the updated (pre-inversion) state.
std::uint32_t UpdateSlicing8(std::uint32_t c, const unsigned char* bytes,
                             std::size_t size) {
  const Tables& t = CrcTables();
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
  return c;
}

#if defined(PELICAN_CRC32_PCLMUL)

// Inputs shorter than one fold block run on the tables.
constexpr std::size_t kFoldBlock = 64;

// The carry-less-multiply tier, after Intel's "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction" (Gopal et al., 2009),
// in the bit-reflected domain of 0xEDB88320: four 128-bit lanes fold
// 512 bits forward per 64-byte block, then into one lane, which folds
// 128 bits forward per remaining 16-byte block; the last 128 bits fold
// to 64 and are Barrett-reduced to the 32-bit state. Each constant is
// reflect32(x^e mod P(x)) << 1 for the e given, and μ = floor(x^64 /
// P(x)) and P(x) itself are reflected over 33 bits.
constexpr std::uint64_t kK1 = 0x154442bd4;  // e = 4·128 + 32
constexpr std::uint64_t kK2 = 0x1c6e41596;  // e = 4·128 − 32
constexpr std::uint64_t kK3 = 0x1751997d0;  // e = 128 + 32
constexpr std::uint64_t kK4 = 0x0ccaa009e;  // e = 128 − 32
constexpr std::uint64_t kK5 = 0x163cd6124;  // e = 64
constexpr std::uint64_t kPoly = 0x1db710641;
constexpr std::uint64_t kMu = 0x1f7011641;

// The 128-bit value with low qword lo and high qword hi.
inline __m128i Pair(std::uint64_t lo, std::uint64_t hi) {
  return _mm_set_epi64x(static_cast<long long>(hi),
                        static_cast<long long>(lo));
}

// x folded 128 bits forward by the constant pair k, plus `next`.
[[gnu::target("pclmul")]] inline __m128i Fold(__m128i x, __m128i k,
                                              __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// Updates state c over size bytes: size >= kFoldBlock and a multiple
// of 16.
[[gnu::target("pclmul")]] std::uint32_t UpdatePclmul(
    std::uint32_t c, const unsigned char* bytes, std::size_t size) {
  const auto load = [](const unsigned char* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };
  __m128i x1 = _mm_xor_si128(load(bytes),
                             _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load(bytes + 16);
  __m128i x3 = load(bytes + 32);
  __m128i x4 = load(bytes + 48);
  bytes += kFoldBlock;
  size -= kFoldBlock;

  const __m128i k1k2 = Pair(kK1, kK2);
  for (; size >= kFoldBlock; bytes += kFoldBlock, size -= kFoldBlock) {
    x1 = Fold(x1, k1k2, load(bytes));
    x2 = Fold(x2, k1k2, load(bytes + 16));
    x3 = Fold(x3, k1k2, load(bytes + 32));
    x4 = Fold(x4, k1k2, load(bytes + 48));
  }

  const __m128i k3k4 = Pair(kK3, kK4);
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; size >= 16; bytes += 16, size -= 16) {
    x1 = Fold(x1, k3k4, load(bytes));
  }

  // 128 → 64 bits.
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32),
                           Pair(kK5, 0), 0x00),
      _mm_srli_si128(x1, 4));

  // Barrett reduction to 32 bits.
  const __m128i poly_mu = Pair(kPoly, kMu);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}

#endif  // PELICAN_CRC32_PCLMUL

// CPUID alone, as kernels picks its GEMM tiers: the check names every
// feature UpdatePclmul's target attribute does.
bool HostRuns(Crc32Tier tier) {
  switch (tier) {
    case Crc32Tier::kSlicing8:
      return true;
    case Crc32Tier::kPclmul:
#if defined(PELICAN_CRC32_PCLMUL)
      __builtin_cpu_init();
      return __builtin_cpu_supports("pclmul") != 0;
#else
      return false;
#endif
  }
  return false;
}

Crc32Tier Selected() {
  static const Crc32Tier tier = SupportedCrc32Tiers().back();
  return tier;
}

std::uint32_t UpdateOn(Crc32Tier tier, std::uint32_t c,
                       const unsigned char* bytes, std::size_t size) {
#if defined(PELICAN_CRC32_PCLMUL)
  if (tier == Crc32Tier::kPclmul && size >= kFoldBlock) {
    const std::size_t folded = size & ~std::size_t{15};
    c = UpdatePclmul(c, bytes, folded);
    bytes += folded;
    size -= folded;
  }
#else
  (void)tier;
#endif
  return UpdateSlicing8(c, bytes, size);
}

}  // namespace

void Crc32::Update(const void* data, std::size_t size) {
  state_ = UpdateOn(Selected(), state_, static_cast<const unsigned char*>(data),
                    size);
}

void Crc32::UpdateWith(Crc32Tier tier, const void* data, std::size_t size) {
  PELICAN_CHECK(HostRuns(tier), "CRC32 tier " + Crc32TierName(tier) +
                                    " is not supported on this host");
  state_ = UpdateOn(tier, state_, static_cast<const unsigned char*>(data),
                    size);
}

std::uint32_t Crc32Of(const void* data, std::size_t size) {
  Crc32 crc;
  crc.Update(data, size);
  return crc.Value();
}

std::uint32_t Crc32Of(std::string_view bytes) {
  return Crc32Of(bytes.data(), bytes.size());
}

std::vector<Crc32Tier> SupportedCrc32Tiers() {
  std::vector<Crc32Tier> out;
  for (const Crc32Tier tier : {Crc32Tier::kSlicing8, Crc32Tier::kPclmul}) {
    if (HostRuns(tier)) out.push_back(tier);
  }
  return out;
}

std::string Crc32TierName(Crc32Tier tier) {
  return tier == Crc32Tier::kPclmul ? "pclmul" : "slicing-by-8";
}

}  // namespace pelican
