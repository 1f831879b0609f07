#include "common/file_io.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/check.h"
#include "common/crc32.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace pelican {

namespace {

constexpr std::size_t kMagicSize = 4;
constexpr std::size_t kHeaderSize = kMagicSize + sizeof(std::uint32_t);
constexpr std::size_t kFooterSize = sizeof(std::uint32_t);

// Flushes a file (or directory) to stable storage. Best-effort on
// platforms without fsync; on POSIX a failure is a real write error.
void SyncPath(const std::string& path, bool required) {
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    PELICAN_CHECK(!required, "cannot open for fsync: " + path);
    return;
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  PELICAN_CHECK(rc == 0 || !required, "fsync failed: " + path);
#else
  (void)path;
  (void)required;
#endif
}

}  // namespace

std::string ReadFileBytes(const std::string& path) {
  // file_size fails for anything but a regular file, so a directory or
  // a missing path never sizes the buffer.
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  std::ifstream in(path, std::ios::binary);
  PELICAN_CHECK(!ec && in.is_open(), "cannot open for reading: " + path);
  std::string bytes(size, '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(size));
  PELICAN_CHECK(static_cast<std::uintmax_t>(in.gcount()) == size,
                "read failed: " + path);
  return bytes;
}

void AtomicWriteFile(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    PELICAN_CHECK(out.is_open(), "cannot open for writing: " + tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    PELICAN_CHECK(out.good(), "write failed: " + tmp);
  }
  SyncPath(tmp, /*required=*/true);
  PELICAN_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
                "rename failed: " + tmp + " -> " + path);
  const auto slash = path.rfind('/');
  SyncPath(slash == std::string::npos ? "." : path.substr(0, slash + 1),
           /*required=*/false);
}

// ---- ByteWriter -------------------------------------------------------------

ByteWriter::ByteWriter(std::string_view magic, std::uint32_t version) {
  PELICAN_CHECK(magic.size() == kMagicSize, "file magic must be 4 bytes");
  bytes_.assign(magic);
  Put(version);
}

void ByteWriter::PutBytes(const void* data, std::size_t size) {
  bytes_.append(static_cast<const char*>(data), size);
}

void ByteWriter::PutString(std::string_view s) {
  Put(static_cast<std::uint32_t>(s.size()));
  bytes_.append(s);
}

std::size_t ByteWriter::Seal(const std::string& path) {
  Put(Crc32Of(bytes_));
  AtomicWriteFile(path, bytes_);
  return bytes_.size();
}

// ---- ByteReader -------------------------------------------------------------

ByteReader::ByteReader(std::string_view bytes, std::string what)
    : bytes_(bytes), what_(std::move(what)) {}

void ByteReader::GetBytes(void* out, std::size_t size) {
  (void)CheckCount(size, 1);
  if (size > 0) std::memcpy(out, bytes_.data(), size);
  bytes_.remove_prefix(size);
}

std::string_view ByteReader::GetString() {
  const auto size = CheckCount(Get<std::uint32_t>(), 1);
  const std::string_view s = bytes_.substr(0, size);
  bytes_.remove_prefix(size);
  return s;
}

std::size_t ByteReader::CheckCount(std::uint64_t count,
                                   std::size_t size) const {
  PELICAN_CHECK(count <= bytes_.size() / std::max<std::size_t>(size, 1),
                "truncated " + what_ + ": " + std::to_string(count) +
                    " × " + std::to_string(size) + " bytes claimed, " +
                    std::to_string(bytes_.size()) + " left");
  return static_cast<std::size_t>(count);
}

// ---- the envelope -----------------------------------------------------------

Envelope OpenSealed(std::string_view bytes, std::string_view magic,
                    const std::string& what,
                    std::uint32_t first_sealed_version) {
  PELICAN_CHECK(bytes.size() >= kHeaderSize,
                "not a Pelican " + what + " (too short)");
  PELICAN_CHECK(bytes.starts_with(magic), "not a Pelican " + what);
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + kMagicSize, sizeof(version));
  if (version < first_sealed_version) {
    return {version, ByteReader(bytes.substr(kHeaderSize), what)};
  }
  PELICAN_CHECK(bytes.size() >= kHeaderSize + kFooterSize,
                "truncated " + what);
  const std::size_t body = bytes.size() - kFooterSize;
  std::uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + body, kFooterSize);
  PELICAN_CHECK(stored == Crc32Of(bytes.data(), body),
                what + " checksum mismatch (corrupt or truncated)");
  return {version,
          ByteReader(bytes.substr(kHeaderSize, body - kHeaderSize), what)};
}

}  // namespace pelican
