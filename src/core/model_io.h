// Save/load trained network weights.
//
// Format v3, in the sealed envelope of common/file_io.h (magic "PLCN",
// u32 version, payload, CRC32 footer; little-endian, packed):
//   payload: u64 param_count | u64 buffer_count |
//            per tensor: u32 name_len | name bytes | u32 rank | i64 dims… |
//                        f32 data…
//
// v2 files (the same header and payload, no CRC footer) are still
// readable; SaveWeights always writes v3, atomically (temp file + fsync
// + rename), so a crash or a bit-flip can never leave a silently-corrupt
// weight file: loading verifies the checksum before any tensor is
// parsed, and parses the file in place from one read.
//
// Loading restores into an *already constructed* network with the same
// architecture; names and shapes are verified parameter-by-parameter.
#pragma once

#include <cstddef>
#include <string>

#include "common/file_io.h"
#include "nn/sequential.h"

namespace pelican::core {

void SaveWeights(nn::Sequential& network, const std::string& path);

// Throws CheckError on any mismatch (missing file, wrong architecture,
// truncation, checksum failure) and on any non-finite value in a
// parameter or buffer, in v2 and v3 files alike.
void LoadWeights(nn::Sequential& network, const std::string& path);

// Tensor codec shared with the checkpointer.
namespace io {

// u32 rank | i64 dims… | f32 data…
void WriteTensorBody(ByteWriter& out, const Tensor& value);
// Reads a body written by WriteTensorBody into `value`, verifying the
// recorded shape matches; `name` labels errors. Throws CheckError on a
// mismatch or a truncated body.
void ReadTensorBody(ByteReader& in, const std::string& name, Tensor& value);

// u32 name_len | name | tensor body
void WriteTensorEntry(ByteWriter& out, const std::string& name,
                      const Tensor& value);
// Reads an entry written by WriteTensorEntry into `value`, verifying
// the recorded name and shape match. Throws CheckError on mismatch or
// truncation.
void ReadTensorEntry(ByteReader& in, const std::string& expected_name,
                     Tensor& value);

// Throws CheckError naming `name`, its position `index` among the
// file's tensors, and `path` when `value` holds a NaN or an infinity.
void CheckFinite(const std::string& name, std::size_t index,
                 const Tensor& value, const std::string& path);

}  // namespace io

}  // namespace pelican::core
