#include "core/model_io.h"

#include <bit>
#include <cstdint>
#include <string_view>

#include "common/check.h"

namespace pelican::core {

namespace {

constexpr std::string_view kMagic = "PLCN";
// v2 appends non-trainable buffers (batch-norm running statistics)
// after the trainable parameters; v3 appends a CRC32 footer over the
// whole file so truncation and bit-flips are rejected at load time.
constexpr std::uint32_t kLegacyVersion = 2;
constexpr std::uint32_t kVersion = 3;

}  // namespace

namespace io {

// Training never yields a non-finite weight worth keeping, so one in a
// file is corruption. Rejecting it is also what lets inference treat
// 0 · w as +0: Gru::Score skips the h₀ = 0 recurrent GEMMs, which a NaN
// or Inf in U would have poisoned.
//
// The scan ORs together, over every value, whether its exponent bits
// are all ones (NaN or ±Inf), so it has no early exit and no branch per
// value and vectorizes; a tensor is scanned once, at load.
void CheckFinite(const std::string& name, std::size_t index,
                 const Tensor& value, const std::string& path) {
  constexpr std::uint32_t kExponent = 0x7F800000U;
  std::uint32_t nonfinite = 0;
  for (const float v : value.data()) {
    nonfinite |= static_cast<std::uint32_t>(
        (std::bit_cast<std::uint32_t>(v) & kExponent) == kExponent);
  }
  PELICAN_CHECK(nonfinite == 0, "non-finite value in " + name + " (tensor " +
                                    std::to_string(index) + "): " + path);
}

void WriteTensorBody(ByteWriter& out, const Tensor& value) {
  out.Put(static_cast<std::uint32_t>(value.rank()));
  for (std::int64_t d : value.shape()) out.Put(d);
  out.PutBytes(value.data().data(), value.size() * sizeof(float));
}

void ReadTensorBody(ByteReader& in, const std::string& name, Tensor& value) {
  PELICAN_CHECK(in.Get<std::uint32_t>() ==
                    static_cast<std::uint32_t>(value.rank()),
                "rank mismatch for " + name);
  for (std::int64_t d : value.shape()) {
    PELICAN_CHECK(in.Get<std::int64_t>() == d, "shape mismatch for " + name);
  }
  in.GetBytes(value.data().data(),
              static_cast<std::size_t>(value.size()) * sizeof(float));
}

void WriteTensorEntry(ByteWriter& out, const std::string& name,
                      const Tensor& value) {
  out.PutString(name);
  WriteTensorBody(out, value);
}

void ReadTensorEntry(ByteReader& in, const std::string& expected_name,
                     Tensor& value) {
  const std::string_view name = in.GetString();
  PELICAN_CHECK(name == expected_name,
                "tensor name mismatch: expected " + expected_name +
                    ", got " + std::string(name));
  ReadTensorBody(in, expected_name, value);
}

}  // namespace io

void SaveWeights(nn::Sequential& network, const std::string& path) {
  const auto params = network.Params();
  const auto buffers = network.Buffers();
  ByteWriter out(kMagic, kVersion);
  out.Put(static_cast<std::uint64_t>(params.size()));
  out.Put(static_cast<std::uint64_t>(buffers.size()));
  for (const auto& p : params) io::WriteTensorEntry(out, p.name, *p.value);
  for (const auto& b : buffers) io::WriteTensorEntry(out, b.name, *b.value);
  out.Seal(path);
}

void LoadWeights(nn::Sequential& network, const std::string& path) {
  const std::string bytes = ReadFileBytes(path);
  // The checksum is verified before a single tensor byte is trusted.
  auto [version, in] = OpenSealed(bytes, kMagic, "weight file " + path,
                                  /*first_sealed_version=*/kVersion);
  PELICAN_CHECK(version == kVersion || version == kLegacyVersion,
                "unsupported weight file version");

  auto params = network.Params();
  auto buffers = network.Buffers();
  const auto param_count = in.Get<std::uint64_t>();
  const auto buffer_count = in.Get<std::uint64_t>();
  PELICAN_CHECK(param_count == params.size(),
                "parameter count mismatch: file has " +
                    std::to_string(param_count) + ", network has " +
                    std::to_string(params.size()));
  PELICAN_CHECK(buffer_count == buffers.size(),
                "buffer count mismatch: file has " +
                    std::to_string(buffer_count) + ", network has " +
                    std::to_string(buffers.size()));

  std::size_t index = 0;
  for (auto& p : params) {
    io::ReadTensorEntry(in, p.name, *p.value);
    io::CheckFinite(p.name, index++, *p.value, path);
  }
  for (auto& b : buffers) {
    io::ReadTensorEntry(in, b.name, *b.value);
    io::CheckFinite(b.name, index++, *b.value, path);
  }
}

}  // namespace pelican::core
