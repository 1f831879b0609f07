// Save/load trained network weights.
//
// Format v3 (versioned, little-endian binary):
//   magic "PLCN" | u32 version | u64 param_count | u64 buffer_count |
//   per tensor: u32 name_len | name bytes | u32 rank | i64 dims… | f32 data… |
//   u32 CRC32 footer (IEEE, over every preceding byte)
//
// v2 (no CRC footer) files are still readable; SaveWeights always
// writes v3, atomically (temp file + fsync + rename), so a crash or a
// bit-flip can never leave a silently-corrupt weight file: loading
// verifies the checksum before any tensor is parsed.
//
// Loading restores into an *already constructed* network with the same
// architecture; names and shapes are verified parameter-by-parameter.
#pragma once

#include <iosfwd>
#include <string>

#include "nn/sequential.h"

namespace pelican::core {

void SaveWeights(nn::Sequential& network, const std::string& path);

// Throws CheckError on any mismatch (missing file, wrong architecture,
// truncation, checksum failure) and on any non-finite value in a
// parameter or buffer, in v2 and v3 files alike.
void LoadWeights(nn::Sequential& network, const std::string& path);

// Low-level tensor-entry codec shared with the checkpointer.
namespace io {

// u32 name_len | name | u32 rank | i64 dims… | f32 data…
void WriteTensorEntry(std::ostream& out, const std::string& name,
                      const Tensor& value);
// Reads an entry written by WriteTensorEntry into `value`, verifying
// the recorded name and shape match. Throws CheckError on mismatch or
// a truncated stream.
void ReadTensorEntry(std::istream& in, const std::string& expected_name,
                     Tensor& value);

}  // namespace io

}  // namespace pelican::core
