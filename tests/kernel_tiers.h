// Helpers shared by the GEMM tests: shapes at every ISA tier's tile
// edges, and the tiers this host runs besides the SSE2 reference.
#pragma once

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "tensor/kernels.h"

namespace pelican::testing {

inline constexpr kernels::Isa kAllTiers[] = {kernels::Isa::kSse2,
                                             kernels::Isa::kAvx512};

// Sizes one past each tier's register tile and the row block, and one
// short of / past each tile width, so every tier sees partial tiles and
// a second row block whichever tier the host dispatches to.
inline std::vector<std::int64_t> TileEdgeDims() {
  std::set<std::int64_t> dims = {1, 3, kernels::kMc + 1, 70};
  for (const auto isa : kAllTiers) {
    const kernels::Tile t = kernels::TileOf(isa);
    dims.insert({t.mr + 1, t.nr - 1, t.nr + 1});
  }
  return {dims.begin(), dims.end()};
}

// As TileEdgeDims, plus each tier's exact tile, the cells either side
// of it and of the row block, and the small-m threshold.
inline std::set<std::int64_t> TileStraddleDims() {
  std::set<std::int64_t> dims = {1,  3, kernels::kSmallM, kernels::kMc - 1,
                                 kernels::kMc, kernels::kMc + 1, 70};
  for (const auto isa : kAllTiers) {
    const kernels::Tile t = kernels::TileOf(isa);
    dims.insert({t.mr - 1, t.mr, t.mr + 1, t.nr - 1, t.nr, t.nr + 1});
  }
  return dims;
}

// The tiers besides SSE2 that this host runs (the others are skipped);
// prints every tier that runs so the test log shows it.
inline std::vector<kernels::Isa> WideTiersOnThisHost(bool int8) {
  std::vector<kernels::Isa> tiers = kernels::SupportedIsas(int8);
  std::string names;
  for (const auto isa : tiers) {
    names += " [" + kernels::TierName(isa, int8) + "]";
  }
  std::printf("%s tiers run:%s\n", int8 ? "int8" : "fp32", names.c_str());
  tiers.erase(tiers.begin());  // SSE2, the reference
  return tiers;
}

}  // namespace pelican::testing
