// Whole-file byte I/O with crash-safe writes, and the one codec of the
// binary file formats.
//
// AtomicWriteFile is the single write path for every durable artifact
// (weights, checkpoints, sidecars): serialize to memory, write to
// `<path>.tmp`, fsync, rename over the target. A crash at any point
// leaves either the old file or the new file — never a half-written one.
//
// PLCN weights, PCKP checkpoints and the PQNT `.quant` and PPRE `.pre`
// sidecars share one envelope (little-endian, packed):
//
//   char[4] magic | u32 version | payload | u32 CRC32 of every byte before it
//
// A format builds its file in a ByteWriter begun with its magic and
// version and calls Seal, which appends the footer and writes the file
// atomically. To load, it reads the file with ReadFileBytes (one read
// into a buffer of the file's size) and calls OpenSealed, which checks
// the length, the magic and the CRC before returning the version and a
// ByteReader over the payload in place. The reader bounds-checks every
// read, and CheckCount lets a format reject a length or count larger
// than the bytes left before it allocates anything, so a CRC-valid file
// with a lying length field throws CheckError instead of allocating
// what it claims. The formats keep only their field layouts and their
// own checks. Layouts from before the envelope (PLCN v2, the headerless
// `.pre`) are read through the same ByteReader, without the seal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace pelican {

// Reads an entire file with one read into a string of the file's size.
// Throws CheckError when the file can't be opened or read.
[[nodiscard]] std::string ReadFileBytes(const std::string& path);

// Writes `bytes` to `path` atomically: temp file + fsync + rename (the
// containing directory is fsynced too so the rename itself is durable).
// Throws CheckError on any I/O failure; the target is never left
// half-written.
void AtomicWriteFile(const std::string& path, std::string_view bytes);

// Appends packed values to an in-memory file.
class ByteWriter {
 public:
  // A file without the envelope.
  ByteWriter() = default;
  // A sealed file: starts with `magic` (4 bytes) and `version`.
  ByteWriter(std::string_view magic, std::uint32_t version);

  template <typename T>
  void Put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutBytes(&value, sizeof(T));
  }
  void PutBytes(const void* data, std::size_t size);
  // u32 length | bytes.
  void PutString(std::string_view s);

  // Appends the CRC32 footer over every byte so far and writes the file
  // to `path` with AtomicWriteFile. Returns the file's size.
  std::size_t Seal(const std::string& path);

  [[nodiscard]] const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

// Bounds-checked cursor over bytes it does not own. Every read checks
// that it fits in the bytes left and throws CheckError naming `what`
// otherwise. Values are copied out with memcpy: the layouts are packed,
// so nothing in them is aligned.
class ByteReader {
 public:
  // `what` names the bytes in error messages ("weight file m.bin").
  ByteReader(std::string_view bytes, std::string what);

  template <typename T>
  [[nodiscard]] T Get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    GetBytes(&value, sizeof(T));
    return value;
  }
  void GetBytes(void* out, std::size_t size);
  // u32 length | bytes, returned in place.
  [[nodiscard]] std::string_view GetString();

  // Checks that `count` elements of `size` bytes each fit in the bytes
  // left (without overflow) and returns `count`. Call it before
  // allocating for a count read from the file.
  [[nodiscard]] std::size_t CheckCount(std::uint64_t count,
                                       std::size_t size) const;

  [[nodiscard]] std::size_t remaining() const { return bytes_.size(); }

 private:
  std::string_view bytes_;  // the bytes not read yet
  std::string what_;
};

// A sealed file's version and a reader over its payload.
struct Envelope {
  std::uint32_t version;
  ByteReader payload;
};

// Opens the envelope of `bytes` (a whole file; it must outlive the
// returned reader): checks that it holds a header and a footer, starts
// with `magic` and carries a matching CRC32, and returns its version
// and a reader over the payload. Versions below `first_sealed_version`
// predate the footer: their payload runs to the end of the file and
// has no checksum. `what` names the file in errors.
[[nodiscard]] Envelope OpenSealed(std::string_view bytes,
                                  std::string_view magic,
                                  const std::string& what,
                                  std::uint32_t first_sealed_version = 0);

}  // namespace pelican
