// CRC-32 (IEEE 802.3 polynomial, reflected) for artifact integrity.
//
// Model weight files and training checkpoints carry a CRC32 footer so a
// truncated or bit-flipped artifact is rejected at load time instead of
// silently corrupting a run. Incremental use:
//
//   Crc32 crc;
//   crc.Update(header.data(), header.size());
//   crc.Update(body.data(), body.size());
//   footer = crc.Value();
//
// Update runs on one of two tiers, picked once, at first use, from
// CPUID: slicing-by-8 tables on every host, or, on x86-64 hosts with
// PCLMULQDQ, a carry-less-multiply fold of 64-byte blocks whose short
// inputs and last size mod 16 bytes still go through the tables. Both
// give the bytewise algorithm's values, whatever the length, alignment
// or split of the input, so the tier never changes a file's bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pelican {

// Crc32 tiers, narrowest first.
enum class Crc32Tier : std::uint8_t { kSlicing8, kPclmul };

class Crc32 {
 public:
  void Update(const void* data, std::size_t size);
  void Update(std::string_view bytes) { Update(bytes.data(), bytes.size()); }

  // Test and bench seam, not a user option: Update on `tier`, which
  // must be in SupportedCrc32Tiers().
  void UpdateWith(Crc32Tier tier, const void* data, std::size_t size);

  // Final checksum of everything fed so far (the state stays usable —
  // further Update calls keep accumulating).
  [[nodiscard]] std::uint32_t Value() const { return state_ ^ 0xFFFFFFFFU; }

  void Reset() { state_ = 0xFFFFFFFFU; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFU;
};

// One-shot convenience.
[[nodiscard]] std::uint32_t Crc32Of(const void* data, std::size_t size);
[[nodiscard]] std::uint32_t Crc32Of(std::string_view bytes);

// The tiers this host can run, narrowest first; the last one is what
// Update runs.
[[nodiscard]] std::vector<Crc32Tier> SupportedCrc32Tiers();

// "slicing-by-8" or "pclmul".
[[nodiscard]] std::string Crc32TierName(Crc32Tier tier);

}  // namespace pelican
