#include "core/model_io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>

#include "common/check.h"
#include "common/crc32.h"
#include "common/file_io.h"

namespace pelican::core {

namespace {

constexpr char kMagic[4] = {'P', 'L', 'C', 'N'};
// v2 appends non-trainable buffers (batch-norm running statistics)
// after the trainable parameters; v3 appends a CRC32 footer over the
// whole file so truncation and bit-flips are rejected at load time.
constexpr std::uint32_t kLegacyVersion = 2;
constexpr std::uint32_t kVersion = 3;
constexpr std::size_t kFooterSize = sizeof(std::uint32_t);

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T ReadPod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  PELICAN_CHECK(in.good(), "truncated weight file");
  return value;
}

// Training never yields a non-finite weight worth keeping, so one in a
// file is corruption. Rejecting it is also what lets inference treat
// 0 · w as +0: Gru::Score skips the h₀ = 0 recurrent GEMMs, which a NaN
// or Inf in U would have poisoned.
void CheckFinite(const std::string& name, std::size_t index,
                 const Tensor& value, const std::string& path) {
  const auto data = value.data();
  PELICAN_CHECK(std::all_of(data.begin(), data.end(),
                            [](float v) { return std::isfinite(v); }),
                "non-finite value in " + name + " (tensor " +
                    std::to_string(index) + "): " + path);
}

}  // namespace

namespace io {

void WriteTensorEntry(std::ostream& out, const std::string& name,
                      const Tensor& value) {
  WritePod(out, static_cast<std::uint32_t>(name.size()));
  out.write(name.data(), static_cast<std::streamsize>(name.size()));
  WritePod(out, static_cast<std::uint32_t>(value.rank()));
  for (std::int64_t d : value.shape()) WritePod(out, d);
  out.write(reinterpret_cast<const char*>(value.data().data()),
            static_cast<std::streamsize>(value.size() * sizeof(float)));
}

void ReadTensorEntry(std::istream& in, const std::string& expected_name,
                     Tensor& value) {
  const auto name_len = ReadPod<std::uint32_t>(in);
  std::string name(name_len, '\0');
  in.read(name.data(), name_len);
  PELICAN_CHECK(in.good() && name == expected_name,
                "tensor name mismatch: expected " + expected_name +
                    ", got " + name);
  const auto rank = ReadPod<std::uint32_t>(in);
  PELICAN_CHECK(rank == static_cast<std::uint32_t>(value.rank()),
                "rank mismatch for " + expected_name);
  Tensor::Shape shape(rank);
  for (auto& d : shape) d = ReadPod<std::int64_t>(in);
  PELICAN_CHECK(shape == value.shape(),
                "shape mismatch for " + expected_name);
  in.read(reinterpret_cast<char*>(value.data().data()),
          static_cast<std::streamsize>(value.size() * sizeof(float)));
  PELICAN_CHECK(in.good(), "truncated data for " + expected_name);
}

}  // namespace io

void SaveWeights(nn::Sequential& network, const std::string& path) {
  std::ostringstream out(std::ios::binary);
  const auto params = network.Params();
  const auto buffers = network.Buffers();

  out.write(kMagic, sizeof(kMagic));
  WritePod(out, kVersion);
  WritePod(out, static_cast<std::uint64_t>(params.size()));
  WritePod(out, static_cast<std::uint64_t>(buffers.size()));
  for (const auto& p : params) io::WriteTensorEntry(out, p.name, *p.value);
  for (const auto& b : buffers) io::WriteTensorEntry(out, b.name, *b.value);
  PELICAN_CHECK(out.good(), "weight serialization failed: " + path);

  std::string bytes = std::move(out).str();
  const std::uint32_t crc = Crc32Of(bytes);
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  AtomicWriteFile(path, bytes);
}

void LoadWeights(nn::Sequential& network, const std::string& path) {
  const std::string bytes = ReadFileBytes(path);
  PELICAN_CHECK(bytes.size() >= sizeof(kMagic) + sizeof(std::uint32_t),
                "not a Pelican weight file (too short): " + path);
  PELICAN_CHECK(std::equal(bytes.begin(), bytes.begin() + sizeof(kMagic),
                           kMagic),
                "not a Pelican weight file: " + path);

  std::istringstream in(bytes, std::ios::binary);
  in.ignore(sizeof(kMagic));
  const auto version = ReadPod<std::uint32_t>(in);
  PELICAN_CHECK(version == kVersion || version == kLegacyVersion,
                "unsupported weight file version");
  if (version == kVersion) {
    // Verify the CRC32 footer before trusting a single tensor byte.
    PELICAN_CHECK(bytes.size() > sizeof(kMagic) + sizeof(std::uint32_t) +
                                     kFooterSize,
                  "truncated weight file: " + path);
    std::uint32_t stored = 0;
    std::memcpy(&stored, bytes.data() + bytes.size() - kFooterSize,
                kFooterSize);
    const std::uint32_t actual =
        Crc32Of(bytes.data(), bytes.size() - kFooterSize);
    PELICAN_CHECK(stored == actual,
                  "weight file checksum mismatch (corrupt or truncated): " +
                      path);
  }

  auto params = network.Params();
  auto buffers = network.Buffers();
  const auto param_count = ReadPod<std::uint64_t>(in);
  const auto buffer_count = ReadPod<std::uint64_t>(in);
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
    CheckFinite(p.name, index++, *p.value, path);
  }
  for (auto& b : buffers) {
    io::ReadTensorEntry(in, b.name, *b.value);
    CheckFinite(b.name, index++, *b.value, path);
  }
}

}  // namespace pelican::core
