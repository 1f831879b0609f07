// Crash-safety tests: CRC32 integrity, atomic writes, the binary
// codec, the fault-injection harness, checksummed weight files (and
// their rejection of non-finite weights and lying length fields),
// save → load → save byte identity of every format, checkpoint/resume
// (bit-for-bit equivalence with an uninterrupted run; a rejected
// checkpoint writes nothing) and the divergence guard's NaN-loss
// recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/file_io.h"
#include "core/core.h"
#include "data/nslkdd.h"
#include "models/zoo.h"
#include "nn/batchnorm.h"
#include "nn/dense.h"
#include "nn/gru.h"
#include "optim/optimizer.h"

namespace pelican {
namespace {

namespace fs = std::filesystem;

std::string MakeTempDir(const std::string& tag) {
  const auto dir = fs::path(::testing::TempDir()) / ("pelican_ckpt_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<float> FlattenParams(nn::Sequential& net) {
  std::vector<float> out;
  for (const auto& p : net.Params()) {
    out.insert(out.end(), p.value->data().begin(), p.value->data().end());
  }
  return out;
}

struct Toy {
  Tensor x;
  std::vector<int> y;
};

Toy MakeToy(int n = 96) {
  Rng rng(123);
  Toy t{Tensor::RandomNormal({n, 6}, rng, 0, 1), {}};
  t.y.reserve(n);
  for (int i = 0; i < n; ++i) t.y.push_back(i % 3);
  return t;
}

core::TrainConfig ToyConfig(int epochs) {
  core::TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_size = 32;
  tc.optimizer = "adam";  // exercises scalar (step-count) state too
  tc.seed = 99;
  return tc;
}

// ---- CRC32 -----------------------------------------------------------------

// Every tier this host runs, printed so the test log shows which ran.
std::vector<Crc32Tier> Crc32TiersOnThisHost() {
  const std::vector<Crc32Tier> tiers = SupportedCrc32Tiers();
  std::string names;
  for (const auto tier : tiers) names += " [" + Crc32TierName(tier) + "]";
  std::printf("crc32 tiers run:%s\n", names.c_str());
  return tiers;
}

// Crc32Of(p, size) computed on `tier`.
std::uint32_t Crc32OfWith(Crc32Tier tier, const void* p, std::size_t size) {
  Crc32 crc;
  crc.UpdateWith(tier, p, size);
  return crc.Value();
}

TEST(Crc32, KnownAnswerVector) {
  // The standard CRC-32/IEEE check value, and the CRC of 64 copies of
  // its input (576 bytes, long enough for every tier's fold), as zlib's
  // crc32 gives it.
  std::string check64;
  for (int i = 0; i < 64; ++i) check64 += "123456789";
  for (const auto tier : Crc32TiersOnThisHost()) {
    SCOPED_TRACE(Crc32TierName(tier));
    EXPECT_EQ(Crc32OfWith(tier, "123456789", 9), 0xCBF43926U);
    EXPECT_EQ(Crc32OfWith(tier, "", 0), 0x00000000U);
    EXPECT_EQ(Crc32OfWith(tier, check64.data(), check64.size()),
              0x448F0D2CU);
  }
  EXPECT_EQ(Crc32Of("123456789"), 0xCBF43926U);
  EXPECT_EQ(Crc32Of(""), 0x00000000U);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  Crc32 crc;
  crc.Update("1234");
  crc.Update("56789");
  EXPECT_EQ(crc.Value(), 0xCBF43926U);
  crc.Reset();
  crc.Update("123456789");
  EXPECT_EQ(crc.Value(), 0xCBF43926U);
}

// The reference every tier's Update must match: the bytewise
// algorithm, bit by bit from the polynomial, written out here.
std::uint32_t BytewiseCrc32(const unsigned char* p, std::size_t size) {
  std::uint32_t state = 0xFFFFFFFFU;
  for (std::size_t i = 0; i < size; ++i) {
    state ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      state = (state & 1U) != 0 ? 0xEDB88320U ^ (state >> 1) : state >> 1;
    }
  }
  return state ^ 0xFFFFFFFFU;
}

// Checks `tier` at every length in `lens`, from every start offset mod 8
// (so the 8-byte steps, the byte tail and the fold's 16-byte loads see
// every alignment), one-shot and split into two Update calls at
// assorted points.
void ExpectBytewiseAt(Crc32Tier tier, const std::vector<unsigned char>& buf,
                      const std::vector<std::size_t>& lens) {
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (const std::size_t len : lens) {
      ASSERT_LE(offset + len, buf.size());
      const unsigned char* p = buf.data() + offset;
      const std::uint32_t want = BytewiseCrc32(p, len);
      ASSERT_EQ(Crc32OfWith(tier, p, len), want)
          << "offset " << offset << " len " << len;
      const std::size_t last65 = len - std::min<std::size_t>(len, 65);
      for (const std::size_t split :
           {len / 3, len / 2, len - len / 8, last65}) {
        Crc32 crc;
        crc.UpdateWith(tier, p, split);
        crc.UpdateWith(tier, p + split, len - split);
        ASSERT_EQ(crc.Value(), want)
            << "offset " << offset << " len " << len << " split " << split;
      }
    }
  }
}

// Every length 0–1,100, then lengths either side of the fold's 64-byte
// blocks and 16-byte steps up to 4 KiB, then a 3 MB buffer, one-shot
// and fed in pieces that start and end at odd offsets; on every tier.
TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthOffsetAndSplit) {
  Rng rng(8);
  // Room for the longest length, 4096 + 64 + 17, at offset 7.
  std::vector<unsigned char> buf(4096 + 128);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.Int(0, 255));
  std::vector<std::size_t> lens;
  for (std::size_t len = 0; len <= 1100; ++len) lens.push_back(len);
  for (std::size_t edge = 1152; edge <= 4096 + 64; edge += 64) {
    for (const std::size_t below : {17, 16, 15, 1}) {
      lens.push_back(edge - below);
    }
    for (const std::size_t above : {0, 1, 15, 16, 17}) {
      lens.push_back(edge + above);
    }
  }
  std::vector<unsigned char> big((std::size_t{3} << 20) + 13);
  for (auto& b : big) b = static_cast<unsigned char>(rng.Int(0, 255));
  const std::uint32_t big_want = BytewiseCrc32(big.data(), big.size());

  for (const auto tier : Crc32TiersOnThisHost()) {
    SCOPED_TRACE(Crc32TierName(tier));
    ExpectBytewiseAt(tier, buf, lens);
    EXPECT_EQ(Crc32OfWith(tier, big.data(), big.size()), big_want);
    Crc32 crc;
    std::size_t at = 0;
    for (const std::size_t piece : {1, 63, 65, 4097, 999'999, 17, 1'048'577}) {
      crc.UpdateWith(tier, big.data() + at, piece);
      at += piece;
    }
    crc.UpdateWith(tier, big.data() + at, big.size() - at);
    EXPECT_EQ(crc.Value(), big_want);
  }
}

TEST(Crc32, SingleBitFlipChangesValue) {
  std::string bytes(64, '\x5a');
  const auto clean = Crc32Of(bytes);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] ^= 0x01;
    EXPECT_NE(Crc32Of(bytes), clean) << "flip at byte " << i;
    bytes[i] ^= 0x01;
  }
}

// ---- atomic file I/O -------------------------------------------------------

TEST(FileIo, AtomicWriteLeavesNoTempResidue) {
  const auto dir = MakeTempDir("atomic");
  const auto path = dir + "/artifact.bin";
  AtomicWriteFile(path, "hello");
  AtomicWriteFile(path, "world");  // overwrite goes through the same path
  EXPECT_EQ(ReadFileBytes(path), "world");
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

TEST(FileIo, ReadMissingFileThrows) {
  EXPECT_THROW((void)ReadFileBytes("/no/such/pelican/file"), CheckError);
}

// ---- the binary codec --------------------------------------------------------

// Rewrites a sealed file through `edit` and recomputes its CRC32
// footer, so only the format's own checks can reject the result.
template <typename Edit>
void EditSealed(const std::string& path, Edit edit) {
  std::string bytes = ReadFileBytes(path);
  const std::size_t body = bytes.size() - sizeof(std::uint32_t);
  edit(bytes);
  const std::uint32_t crc = Crc32Of(bytes.data(), body);
  std::memcpy(bytes.data() + body, &crc, sizeof(crc));
  AtomicWriteFile(path, bytes);
}

template <typename T>
void PokeAt(std::string& bytes, std::size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), bytes.size());
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
}

TEST(Codec, ReaderRejectsEveryReadPastTheEnd) {
  ByteWriter out;
  out.Put(std::uint16_t{7});
  out.PutString("abc");
  ByteReader in(out.bytes(), "test bytes");
  EXPECT_EQ(in.Get<std::uint16_t>(), 7);
  EXPECT_EQ(in.GetString(), "abc");
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_THROW((void)in.Get<std::uint8_t>(), CheckError);

  ByteWriter lying;
  lying.Put(std::uint32_t{4});  // a string length with 3 bytes behind it
  lying.PutBytes("abc", 3);
  ByteReader short_string(lying.bytes(), "test bytes");
  EXPECT_THROW((void)short_string.GetString(), CheckError);

  ByteReader counts(lying.bytes(), "test bytes");
  EXPECT_EQ(counts.CheckCount(1, 7), 1u);
  EXPECT_THROW((void)counts.CheckCount(2, 4), CheckError);
  // count · size would wrap around 2^64 if it were multiplied.
  EXPECT_THROW((void)counts.CheckCount(std::uint64_t{1} << 62, 8),
               CheckError);
}

TEST(Codec, SealedFileRoundTripsAndRejectsCorruption) {
  const auto dir = MakeTempDir("codec_sealed");
  const auto path = dir + "/f.bin";
  ByteWriter out("TEST", 7);
  out.Put(std::int64_t{-3});
  EXPECT_EQ(out.Seal(path), 4 + 4 + 8 + 4u);

  const std::string bytes = ReadFileBytes(path);
  auto [version, in] = OpenSealed(bytes, "TEST", "test file");
  EXPECT_EQ(version, 7u);
  EXPECT_EQ(in.Get<std::int64_t>(), -3);
  EXPECT_EQ(in.remaining(), 0u);

  EXPECT_THROW((void)OpenSealed(bytes, "XXXX", "test file"), CheckError);
  EXPECT_THROW((void)OpenSealed(std::string_view(bytes).substr(0, 7), "TEST",
                                "test file"),
               CheckError);
  std::string flipped = bytes;
  flipped[10] ^= 0x01;
  EXPECT_THROW((void)OpenSealed(flipped, "TEST", "test file"), CheckError);
  // A version below first_sealed_version predates the footer: its
  // payload (footer bytes included) is read unchecked.
  auto [old_version, old_in] =
      OpenSealed(flipped, "TEST", "test file", /*first_sealed_version=*/8);
  EXPECT_EQ(old_version, 7u);
  EXPECT_EQ(old_in.remaining(), 12u);
}

// ---- fault-injection harness ----------------------------------------------

TEST(FaultInjection, WriteFailureSetsBadbit) {
  std::ostringstream inner(std::ios::binary);
  common::FaultyOStream out(inner, {.fail_at = 5});
  out << "0123456789";
  EXPECT_FALSE(out.good());
  EXPECT_EQ(inner.str(), "01234");
}

TEST(FaultInjection, WriteTruncationSwallowsTail) {
  // A crash that loses the file tail: the writer never notices.
  std::ostringstream inner(std::ios::binary);
  common::FaultyOStream out(inner, {.truncate_at = 4});
  out << "0123456789";
  EXPECT_TRUE(out.good());
  EXPECT_EQ(inner.str(), "0123");
}

TEST(FaultInjection, ReadBitFlipAndEarlyEof) {
  std::istringstream flip_src("abcdef");
  common::FaultyIStream flipped(flip_src,
                                {.flip_offset = 2, .flip_mask = 0x20});
  std::string got(6, '\0');
  flipped.read(got.data(), 6);
  EXPECT_EQ(got, "abCdef");  // 'c' ^ 0x20 == 'C'

  std::istringstream trunc_src("abcdef");
  common::FaultyIStream truncated(trunc_src, {.truncate_at = 3});
  std::string tail(6, '\0');
  truncated.read(tail.data(), 6);
  EXPECT_EQ(truncated.gcount(), 3);
  EXPECT_TRUE(truncated.eof());
}

TEST(FaultInjection, CorruptFileRejectsOffsetPastEof) {
  const auto dir = MakeTempDir("corrupt_eof");
  const auto path = dir + "/small.bin";
  AtomicWriteFile(path, "abc");
  EXPECT_THROW(common::CorruptFile(path, {.flip_offset = 10}), CheckError);
}

// ---- checksummed weight files ----------------------------------------------

TEST(WeightFiles, RoundTripRestoresParamsBitForBit) {
  const auto dir = MakeTempDir("weights_rt");
  Rng rng_a(7);
  auto net_a = models::BuildMlp(6, 3, rng_a, 16);
  core::SaveWeights(*net_a, dir + "/w.bin");

  Rng rng_b(8);  // different init — must be overwritten by the load
  auto net_b = models::BuildMlp(6, 3, rng_b, 16);
  core::LoadWeights(*net_b, dir + "/w.bin");
  EXPECT_EQ(FlattenParams(*net_a), FlattenParams(*net_b));
  // Save → load → save rewrites the file byte for byte.
  core::SaveWeights(*net_b, dir + "/w2.bin");
  EXPECT_EQ(ReadFileBytes(dir + "/w2.bin"), ReadFileBytes(dir + "/w.bin"));
}

TEST(WeightFiles, AnySingleBitFlipRejected) {
  const auto dir = MakeTempDir("weights_flip");
  Rng rng(7);
  auto net = models::BuildMlp(6, 3, rng, 16);
  const auto clean = dir + "/w.bin";
  core::SaveWeights(*net, clean);
  const auto size = fs::file_size(clean);

  // First byte (magic), an early header byte, payload bytes spread
  // across the file, and the CRC footer itself.
  std::vector<std::size_t> offsets = {0, 5, size / 3, size / 2, size - 1};
  for (const std::size_t off : offsets) {
    const auto corrupt = dir + "/w_flip.bin";
    fs::copy_file(clean, corrupt, fs::copy_options::overwrite_existing);
    common::CorruptFile(corrupt, {.flip_offset = off, .flip_mask = 0x10});
    EXPECT_THROW(core::LoadWeights(*net, corrupt), CheckError)
        << "bit flip at offset " << off << " was not rejected";
  }
  // The untouched file still loads.
  EXPECT_NO_THROW(core::LoadWeights(*net, clean));
}

TEST(WeightFiles, TruncationRejected) {
  const auto dir = MakeTempDir("weights_trunc");
  Rng rng(7);
  auto net = models::BuildMlp(6, 3, rng, 16);
  const auto clean = dir + "/w.bin";
  core::SaveWeights(*net, clean);
  const auto size = fs::file_size(clean);

  for (const std::size_t keep : {size - 1, size / 2, std::size_t{3}}) {
    const auto corrupt = dir + "/w_trunc.bin";
    fs::copy_file(clean, corrupt, fs::copy_options::overwrite_existing);
    common::CorruptFile(corrupt, {.truncate_at = keep});
    EXPECT_THROW(core::LoadWeights(*net, corrupt), CheckError)
        << "file truncated to " << keep << " bytes was not rejected";
  }
}

TEST(WeightFiles, LegacyV2WithoutFooterStillLoads) {
  // Pre-CRC v2 files (magic | version 2 | counts | entries, no footer)
  // must keep loading so existing artifacts survive the upgrade.
  const auto dir = MakeTempDir("weights_v2");
  Rng rng(7);
  auto net = models::BuildMlp(6, 3, rng, 16);

  ByteWriter out;
  out.PutBytes("PLCN", 4);
  out.Put(std::uint32_t{2});
  const auto params = net->Params();
  const auto buffers = net->Buffers();
  out.Put(static_cast<std::uint64_t>(params.size()));
  out.Put(static_cast<std::uint64_t>(buffers.size()));
  for (const auto& p : params) core::io::WriteTensorEntry(out, p.name, *p.value);
  for (const auto& b : buffers) core::io::WriteTensorEntry(out, b.name, *b.value);
  AtomicWriteFile(dir + "/legacy.bin", out.bytes());

  Rng rng_b(8);
  auto net_b = models::BuildMlp(6, 3, rng_b, 16);
  core::LoadWeights(*net_b, dir + "/legacy.bin");
  EXPECT_EQ(FlattenParams(*net), FlattenParams(*net_b));
}

TEST(WeightFiles, TensorEntryPayloadTruncationRejected) {
  // Regression: bytes that end mid-payload (after the name and dims
  // parse cleanly) must throw, not leave the tensor half-filled.
  Rng rng(7);
  Tensor t = Tensor::RandomNormal({4, 4}, rng, 0, 1);
  ByteWriter out;
  core::io::WriteTensorEntry(out, "w", t);
  const std::string& full = out.bytes();

  ByteReader in(std::string_view(full).substr(0, full.size() - 8), "entry");
  Tensor dst({4, 4});
  EXPECT_THROW(core::io::ReadTensorEntry(in, "w", dst), CheckError);
}

// Overwrites the first float (or, with `last`, the last one) of the
// first tensor entry named `name` in a v3 weight file and recomputes the
// CRC footer, so only the finiteness check can reject the result.
void PoisonFloat(const std::string& path, const std::string& name,
                 float value, bool last = false) {
  EditSealed(path, [&](std::string& bytes) {
    // Entry layout: u32 name_len | name | u32 rank | i64 dims… | f32 data…
    const std::size_t at = bytes.find(name);
    ASSERT_NE(at, std::string::npos) << name;
    std::uint32_t rank = 0;
    std::memcpy(&rank, bytes.data() + at + name.size(), sizeof(rank));
    const std::size_t dims_at = at + name.size() + sizeof(rank);
    std::int64_t count = 1;
    for (std::uint32_t d = 0; d < rank; ++d) {
      std::int64_t dim = 0;
      std::memcpy(&dim, bytes.data() + dims_at + d * sizeof(dim), sizeof(dim));
      count *= dim;
    }
    const std::size_t element = last ? static_cast<std::size_t>(count - 1) : 0;
    const std::size_t data_at = dims_at + rank * sizeof(std::int64_t);
    PokeAt(bytes, data_at + element * sizeof(float), value);
  });
}

// The scan has no early exit, so a bad value is caught wherever it sits:
// first in a tensor, or last in one whose 15 values (dense.w, 3 × 5) are
// no multiple of any vector width, so the last lies past every full
// vector. Extreme finite values (±FLT_MAX, subnormals) still load, bit
// for bit.
TEST(WeightFiles, NonFiniteWeightsRejectedDespiteValidChecksum) {
  const auto dir = MakeTempDir("weights_nonfinite");
  Rng rng(7);
  nn::Sequential net;
  net.Add(std::make_unique<nn::BatchNorm>(4));
  net.Add(std::make_unique<nn::Gru>(4, 4, rng));
  net.Add(std::make_unique<nn::Dense>(3, 5, rng));
  const auto clean = dir + "/w.bin";
  core::SaveWeights(net, clean);

  struct Poison {
    const char* tensor;
    float value;
    bool last;
  };
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const Poison poisons[] = {
      {"gru.uz", std::numeric_limits<float>::quiet_NaN(), false},
      {"bn.running_var", kInf, false},
      {"dense.w", std::numeric_limits<float>::quiet_NaN(), true},
      {"dense.w", -kInf, true},
  };
  for (const auto& p : poisons) {
    const auto corrupt = dir + "/w_poison.bin";
    fs::copy_file(clean, corrupt, fs::copy_options::overwrite_existing);
    PoisonFloat(corrupt, p.tensor, p.value, p.last);
    try {
      core::LoadWeights(net, corrupt);
      ADD_FAILURE() << p.value << " in " << p.tensor << " was not rejected";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(p.tensor), std::string::npos)
          << "error does not name the tensor: " << e.what();
    }
  }
  EXPECT_NO_THROW(core::LoadWeights(net, clean));

  const Poison finite[] = {
      {"dense.w", std::numeric_limits<float>::max(), true},
      {"dense.w", -std::numeric_limits<float>::max(), false},
      {"dense.b", std::numeric_limits<float>::denorm_min(), true},
      {"gru.uz", -std::numeric_limits<float>::denorm_min(), true},
      {"bn.running_var", std::numeric_limits<float>::min() / 2, false},
  };
  const auto extreme = dir + "/w_extreme.bin";
  fs::copy_file(clean, extreme, fs::copy_options::overwrite_existing);
  for (const auto& f : finite) PoisonFloat(extreme, f.tensor, f.value, f.last);
  ASSERT_NO_THROW(core::LoadWeights(net, extreme));
  core::SaveWeights(net, dir + "/w_resaved.bin");
  EXPECT_EQ(ReadFileBytes(dir + "/w_resaved.bin"), ReadFileBytes(extreme));
}

TEST(WeightFiles, TensorNameLengthPastEndRejected) {
  const auto dir = MakeTempDir("weights_name_len");
  Rng rng(7);
  auto net = models::BuildMlp(6, 3, rng, 16);
  const auto path = dir + "/w.bin";
  core::SaveWeights(*net, path);
  // magic | version | u64 param_count | u64 buffer_count | u32 name_len
  EditSealed(path, [](std::string& bytes) {
    PokeAt(bytes, 24, std::uint32_t{0x7FFFFFFF});
  });
  EXPECT_THROW(core::LoadWeights(*net, path), CheckError);
}

// ---- checkpoint / resume ---------------------------------------------------

TEST(Checkpoint, ResumeMatchesUninterruptedRunBitForBit) {
  const auto toy = MakeToy();
  const auto dir = MakeTempDir("resume");

  // Run A: 6 epochs straight through.
  Rng rng_a(7);
  auto net_a = models::BuildMlp(6, 3, rng_a, 16);
  core::Trainer trainer_a(*net_a, ToyConfig(6));
  const auto history_a = trainer_a.Fit(toy.x, toy.y);
  const auto ref = FlattenParams(*net_a);

  // Run B: 3 epochs with checkpoints, then "crash".
  Rng rng_b(7);
  auto net_b = models::BuildMlp(6, 3, rng_b, 16);
  auto cfg_b = ToyConfig(3);
  cfg_b.checkpoint_dir = dir;
  core::Trainer trainer_b(*net_b, cfg_b);
  trainer_b.Fit(toy.x, toy.y);

  // Run C: a fresh process resumes from the newest checkpoint and
  // finishes the remaining epochs.
  Rng rng_c(7);
  auto net_c = models::BuildMlp(6, 3, rng_c, 16);
  auto cfg_c = ToyConfig(6);
  cfg_c.checkpoint_dir = dir;
  cfg_c.resume = true;
  core::Trainer trainer_c(*net_c, cfg_c);
  const auto history_c = trainer_c.Fit(toy.x, toy.y);

  EXPECT_EQ(FlattenParams(*net_c), ref);
  ASSERT_EQ(history_c.size(), history_a.size());
  for (std::size_t i = 0; i < history_a.size(); ++i) {
    EXPECT_EQ(history_c[i].train_loss, history_a[i].train_loss)
        << "epoch " << history_a[i].epoch;
  }
}

TEST(Checkpoint, ResumeSkipsCorruptNewestCheckpoint) {
  const auto toy = MakeToy();
  const auto dir = MakeTempDir("resume_corrupt");

  Rng rng_a(7);
  auto net_a = models::BuildMlp(6, 3, rng_a, 16);
  core::Trainer trainer_a(*net_a, ToyConfig(6));
  trainer_a.Fit(toy.x, toy.y);
  const auto ref = FlattenParams(*net_a);

  Rng rng_b(7);
  auto net_b = models::BuildMlp(6, 3, rng_b, 16);
  auto cfg_b = ToyConfig(3);
  cfg_b.checkpoint_dir = dir;
  core::Trainer trainer_b(*net_b, cfg_b);
  trainer_b.Fit(toy.x, toy.y);

  // Bit-flip the newest snapshot: LoadLatest must fall back to the one
  // before it and the resumed run must still converge to run A's bits.
  core::Checkpointer ckpt({.dir = dir});
  auto paths = ckpt.List();
  ASSERT_GE(paths.size(), 2U);
  common::CorruptFile(paths.back(), {.flip_offset = 40, .flip_mask = 0x04});

  Rng rng_c(7);
  auto net_c = models::BuildMlp(6, 3, rng_c, 16);
  auto cfg_c = ToyConfig(6);
  cfg_c.checkpoint_dir = dir;
  cfg_c.resume = true;
  core::Trainer trainer_c(*net_c, cfg_c);
  const auto history_c = trainer_c.Fit(toy.x, toy.y);

  EXPECT_EQ(FlattenParams(*net_c), ref);
  EXPECT_EQ(history_c.size(), 6U);
}

TEST(Checkpoint, PrunesToKeepAndLeavesNoTempFiles) {
  const auto toy = MakeToy();
  const auto dir = MakeTempDir("prune");

  Rng rng(7);
  auto net = models::BuildMlp(6, 3, rng, 16);
  auto cfg = ToyConfig(6);
  cfg.checkpoint_dir = dir;
  cfg.checkpoint_keep = 2;
  core::Trainer trainer(*net, cfg);
  trainer.Fit(toy.x, toy.y);

  core::Checkpointer ckpt({.dir = dir, .keep = 2});
  const auto paths = ckpt.List();
  ASSERT_EQ(paths.size(), 2U);
  EXPECT_TRUE(paths.back().ends_with("checkpoint-000006.ckpt"));
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

TEST(Checkpoint, CheckpointEveryThrottlesSnapshots) {
  const auto toy = MakeToy();
  const auto dir = MakeTempDir("every");

  Rng rng(7);
  auto net = models::BuildMlp(6, 3, rng, 16);
  auto cfg = ToyConfig(5);
  cfg.checkpoint_dir = dir;
  cfg.checkpoint_every = 2;
  cfg.checkpoint_keep = 0;  // keep all
  core::Trainer trainer(*net, cfg);
  trainer.Fit(toy.x, toy.y);

  // Epochs 2 and 4 by cadence, plus the final epoch 5.
  core::Checkpointer ckpt({.dir = dir, .every = 2, .keep = 0});
  EXPECT_EQ(ckpt.List().size(), 3U);
}

TEST(Checkpoint, ResumeWithEmptyDirStartsFresh) {
  const auto toy = MakeToy();
  const auto dir = MakeTempDir("resume_empty");

  Rng rng(7);
  auto net = models::BuildMlp(6, 3, rng, 16);
  auto cfg = ToyConfig(2);
  cfg.checkpoint_dir = dir;
  cfg.resume = true;  // nothing to resume from — must not throw
  core::Trainer trainer(*net, cfg);
  const auto history = trainer.Fit(toy.x, toy.y);
  EXPECT_EQ(history.size(), 2U);
  EXPECT_EQ(history.front().epoch, 1);
}

// A checkpoint LoadLatest rejects must write nothing: before, a file
// whose optimizer did not match had already overwritten the weights,
// and Fit then "started fresh" from them.
TEST(Checkpoint, RejectedOptimizerMismatchLeavesWeightsUntouched) {
  const auto dir = MakeTempDir("reject_optimizer");
  Rng rng_a(7);
  auto net_a = models::BuildMlp(6, 3, rng_a, 16);
  auto rmsprop = optim::MakeOptimizer("rmsprop", 1e-3F);
  rmsprop->Attach(net_a->Params());
  core::Checkpointer ckpt({.dir = dir});
  core::CheckpointState saved;
  saved.epoch = 3;
  ckpt.Save(*net_a, *rmsprop, saved);

  Rng rng_b(8);
  auto net_b = models::BuildMlp(6, 3, rng_b, 16);
  auto adam = optim::MakeOptimizer("adam", 1e-3F);
  adam->Attach(net_b->Params());
  const auto before = FlattenParams(*net_b);
  ASSERT_NE(before, FlattenParams(*net_a));
  core::CheckpointState state;
  state.epoch = 42;

  EXPECT_FALSE(ckpt.LoadLatest(*net_b, *adam, &state));
  const auto after = FlattenParams(*net_b);
  ASSERT_EQ(after.size(), before.size());
  EXPECT_EQ(std::memcmp(after.data(), before.data(),
                        before.size() * sizeof(float)),
            0)
      << "a rejected checkpoint overwrote the weights";
  EXPECT_EQ(state.epoch, 42);
  EXPECT_EQ(adam->ScalarState(), std::vector<std::int64_t>{0});
}

// A CRC-valid checkpoint holding a NaN weight is rejected as LoadWeights
// rejects one, naming the tensor, and LoadLatest falls back to the
// snapshot before it.
TEST(Checkpoint, NonFiniteWeightRejectedAndOlderSnapshotLoaded) {
  const auto dir = MakeTempDir("reject_nonfinite");
  Rng rng(7);
  nn::Sequential net;
  net.Add(std::make_unique<nn::Gru>(4, 4, rng));
  auto optimizer = optim::MakeOptimizer("rmsprop", 1e-3F);
  optimizer->Attach(net.Params());
  core::Checkpointer ckpt({.dir = dir});
  core::CheckpointState state;
  state.epoch = 1;
  ckpt.Save(net, *optimizer, state);
  const auto epoch1 = FlattenParams(net);
  for (auto& p : net.Params()) p.value->Fill(0.25F);
  state.epoch = 2;
  const auto newest = ckpt.Save(net, *optimizer, state);
  PoisonFloat(newest, "gru.uz", std::numeric_limits<float>::quiet_NaN());

  core::CheckpointState loaded;
  try {
    core::Checkpointer::LoadFile(newest, net, *optimizer, &loaded);
    ADD_FAILURE() << "NaN in gru.uz was not rejected";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("gru.uz"), std::string::npos)
        << "error does not name the tensor: " << e.what();
  }
  ASSERT_TRUE(ckpt.LoadLatest(net, *optimizer, &loaded));
  EXPECT_EQ(loaded.epoch, 1);
  EXPECT_EQ(FlattenParams(net), epoch1);
}

// A checkpoint written by a trained run, restored into a fresh network
// and optimizer, and saved again.
TEST(Checkpoint, SaveLoadSaveGivesIdenticalBytes) {
  const auto toy = MakeToy();
  const auto dir = MakeTempDir("ckpt_resave");
  Rng rng(7);
  auto net = models::BuildMlp(6, 3, rng, 16);
  auto cfg = ToyConfig(2);
  cfg.checkpoint_dir = dir + "/a";
  core::Trainer trainer(*net, cfg);
  trainer.Fit(toy.x, toy.y);
  const auto saved = core::Checkpointer({.dir = dir + "/a"}).List().back();

  Rng rng_b(8);
  auto loaded = models::BuildMlp(6, 3, rng_b, 16);
  auto adam = optim::MakeOptimizer("adam", 1e-3F);
  adam->Attach(loaded->Params());
  core::CheckpointState state;
  core::Checkpointer::LoadFile(saved, *loaded, *adam, &state);
  const auto resaved =
      core::Checkpointer({.dir = dir + "/b"}).Save(*loaded, *adam, state);
  EXPECT_EQ(ReadFileBytes(resaved), ReadFileBytes(saved));
}

// A CRC-valid checkpoint whose tensor-name or optimizer-name length
// claims more bytes than are left is rejected before it allocates.
TEST(Checkpoint, NameLengthsPastEndRejected) {
  const auto dir = MakeTempDir("ckpt_name_len");
  Rng rng(7);
  auto net = models::BuildMlp(6, 3, rng, 16);
  auto rmsprop = optim::MakeOptimizer("rmsprop", 1e-3F);
  rmsprop->Attach(net->Params());
  core::Checkpointer ckpt({.dir = dir});
  const auto clean = ckpt.Save(*net, *rmsprop, core::CheckpointState{});
  const std::string first_tensor = net->Params().front().name;

  for (const std::string& name : {first_tensor, rmsprop->Name()}) {
    const auto corrupt = dir + "/lying.ckpt";
    fs::copy_file(clean, corrupt, fs::copy_options::overwrite_existing);
    EditSealed(corrupt, [&name](std::string& bytes) {
      const std::size_t at = bytes.find(name);
      ASSERT_NE(at, std::string::npos) << name;
      PokeAt(bytes, at - sizeof(std::uint32_t), std::uint32_t{0xFFFFFFF0});
    });
    core::CheckpointState state;
    EXPECT_THROW(core::Checkpointer::LoadFile(corrupt, *net, *rmsprop, &state),
                 CheckError)
        << "length of " << name;
  }
}

// ---- divergence guard ------------------------------------------------------

TEST(DivergenceGuard, RecoversFromInjectedNanLoss) {
  const auto toy = MakeToy();

  Rng rng(7);
  auto net = models::BuildMlp(6, 3, rng, 16);
  auto cfg = ToyConfig(4);
  cfg.max_divergence_retries = 3;
  int fired = 0;
  cfg.loss_fault_hook = [&fired](int epoch, std::size_t batch) {
    return epoch == 2 && batch == 1 && fired++ == 0;
  };
  core::Trainer trainer(*net, cfg);
  const auto history = trainer.Fit(toy.x, toy.y);

  ASSERT_EQ(history.size(), 4U);
  EXPECT_EQ(history[0].recoveries, 0);
  EXPECT_EQ(history[1].recoveries, 1);  // epoch 2 rolled back once
  for (const auto& e : history) {
    EXPECT_TRUE(std::isfinite(e.train_loss)) << "epoch " << e.epoch;
  }
  for (const float v : FlattenParams(*net)) {
    ASSERT_TRUE(std::isfinite(v));
  }
}

TEST(DivergenceGuard, RetryExhaustionStopsGracefully) {
  const auto toy = MakeToy();

  Rng rng(7);
  auto net = models::BuildMlp(6, 3, rng, 16);
  auto cfg = ToyConfig(5);
  cfg.max_divergence_retries = 2;
  cfg.loss_fault_hook = [](int epoch, std::size_t) { return epoch == 3; };
  core::Trainer trainer(*net, cfg);

  core::TrainHistory history;
  EXPECT_NO_THROW(history = trainer.Fit(toy.x, toy.y));
  // Epochs 1–2 completed; epoch 3 burned the budget and ended the run
  // with the last good (epoch 2) weights restored.
  EXPECT_EQ(history.size(), 2U);
  for (const float v : FlattenParams(*net)) {
    ASSERT_TRUE(std::isfinite(v));
  }
}

TEST(DivergenceGuard, OffByDefaultKeepsPaperBehaviour) {
  // With max_divergence_retries == 0 the guard must not intervene: the
  // injected NaN propagates into the reported loss (the Plain-41
  // phenomenon the paper studies), but training still runs to the end.
  const auto toy = MakeToy();

  Rng rng(7);
  auto net = models::BuildMlp(6, 3, rng, 16);
  auto cfg = ToyConfig(2);
  cfg.loss_fault_hook = [](int epoch, std::size_t batch) {
    return epoch == 1 && batch == 0;
  };
  core::Trainer trainer(*net, cfg);
  const auto history = trainer.Fit(toy.x, toy.y);
  ASSERT_EQ(history.size(), 2U);
  EXPECT_TRUE(std::isnan(history[0].train_loss));
  EXPECT_EQ(history[0].recoveries, 0);
}

// ---- `.pre` scaler sidecar durability --------------------------------------
//
// The preprocessing sidecar carries the fitted mean/stddev every
// inference path standardizes with. v1 wraps it in the same magic +
// version + CRC32-footer armor as the weight file; the original
// headerless layout must keep loading (with statistics validation).

struct PreFixture {
  std::string dir;
  std::string model;        // saved model path; sidecar = model + ".pre"
  data::RawDataset data;
  core::PelicanIds ids;

  PreFixture()
      : dir(MakeTempDir("pre_sidecar")),
        model(dir + "/model.bin"),
        data([] {
          Rng rng(41);
          return data::GenerateNslKdd(200, rng);
        }()),
        ids(data.schema(), SmallIdsConfig()) {
    ids.Train(data);
    ids.Save(model);
  }

  static core::IdsConfig SmallIdsConfig() {
    core::IdsConfig config;
    config.n_blocks = 1;
    config.channels = 8;
    config.train.epochs = 1;
    config.train.batch_size = 32;
    return config;
  }

  [[nodiscard]] core::PelicanIds Fresh() const {
    return core::PelicanIds(data.schema(), SmallIdsConfig());
  }
};

TEST(PreSidecar, VersionedRoundTripRestoresPredictions) {
  PreFixture fx;
  const std::string bytes = ReadFileBytes(fx.model + ".pre");
  ASSERT_GE(bytes.size(), 4u);
  EXPECT_EQ(bytes.substr(0, 4), "PPRE");

  auto restored = fx.Fresh();
  restored.Load(fx.model);
  EXPECT_EQ(restored.Classify(fx.data), fx.ids.Classify(fx.data));

  // Save → load → save rewrites the weights and both sidecars byte for
  // byte.
  ASSERT_TRUE(fx.ids.HasQuantizedParameters());
  const auto resaved = fx.dir + "/resaved.bin";
  restored.Save(resaved);
  for (const std::string ext : {"", ".pre", ".quant"}) {
    EXPECT_EQ(ReadFileBytes(resaved + ext), ReadFileBytes(fx.model + ext))
        << "model.bin" << ext;
  }
}

TEST(PreSidecar, AnySingleBitFlipRejected) {
  PreFixture fx;
  const auto clean = fx.model + ".pre";
  const auto size = fs::file_size(clean);
  // Magic, version, width, payload spread, CRC footer.
  for (const std::size_t off :
       {std::size_t{0}, std::size_t{5}, std::size_t{12}, size / 2,
        size - 1}) {
    fs::copy_file(clean, fx.dir + "/flip.pre",
                  fs::copy_options::overwrite_existing);
    fs::copy_file(fx.model, fx.dir + "/flip",
                  fs::copy_options::overwrite_existing);
    common::CorruptFile(fx.dir + "/flip.pre",
                        {.flip_offset = off, .flip_mask = 0x08});
    auto victim = fx.Fresh();
    EXPECT_THROW(victim.Load(fx.dir + "/flip"), CheckError)
        << "bit flip at offset " << off << " was not rejected";
  }
}

TEST(PreSidecar, TruncationRejected) {
  PreFixture fx;
  const auto clean = fx.model + ".pre";
  const auto size = fs::file_size(clean);
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, size / 2, size - 1}) {
    fs::copy_file(clean, fx.dir + "/trunc.pre",
                  fs::copy_options::overwrite_existing);
    fs::copy_file(fx.model, fx.dir + "/trunc",
                  fs::copy_options::overwrite_existing);
    fs::resize_file(fx.dir + "/trunc.pre", keep);
    auto victim = fx.Fresh();
    EXPECT_THROW(victim.Load(fx.dir + "/trunc"), CheckError)
        << "truncation to " << keep << " bytes was not rejected";
  }
}

TEST(PreSidecar, LegacyHeaderlessLayoutStillLoads) {
  PreFixture fx;
  // Rewrite the v1 sidecar in the original layout: u64 width, then the
  // raw mean/stddev floats — no magic, no CRC.
  const std::string v1 = ReadFileBytes(fx.model + ".pre");
  constexpr std::size_t kHeader = 4 + sizeof(std::uint32_t) + sizeof(std::uint64_t);
  const std::string stats =
      v1.substr(kHeader, v1.size() - kHeader - sizeof(std::uint32_t));
  std::string legacy = v1.substr(8, sizeof(std::uint64_t));  // the width
  legacy += stats;
  fs::copy_file(fx.model, fx.dir + "/legacy",
                fs::copy_options::overwrite_existing);
  AtomicWriteFile(fx.dir + "/legacy.pre", legacy);

  auto restored = fx.Fresh();
  restored.Load(fx.dir + "/legacy");
  EXPECT_EQ(restored.Classify(fx.data), fx.ids.Classify(fx.data));

  // The legacy path still rejects a truncated stats block.
  AtomicWriteFile(fx.dir + "/legacy.pre",
                          legacy.substr(0, legacy.size() - 3));
  auto victim = fx.Fresh();
  EXPECT_THROW(victim.Load(fx.dir + "/legacy"), CheckError);
}

TEST(PreSidecar, InvalidScalerStatisticsRejected) {
  PreFixture fx;
  const std::string v1 = ReadFileBytes(fx.model + ".pre");
  constexpr std::size_t kHeader = 4 + sizeof(std::uint32_t) + sizeof(std::uint64_t);
  const std::string stats =
      v1.substr(kHeader, v1.size() - kHeader - sizeof(std::uint32_t));
  const std::size_t width_bytes = stats.size() / 2;

  // Poison one float at a time through the legacy (checksum-free) path:
  // a NaN mean, an inf stddev, and a negative stddev must all be
  // rejected — Fit can never produce them, so they are corruption even
  // when the bytes parse.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float negative = -1.0F;
  struct Poison {
    std::size_t offset;  // into the stats block
    float value;
    const char* what;
  };
  const Poison poisons[] = {
      {0, nan, "NaN mean"},
      {width_bytes, inf, "inf stddev"},
      {width_bytes + sizeof(float), negative, "negative stddev"},
  };
  for (const auto& p : poisons) {
    std::string legacy = v1.substr(8, sizeof(std::uint64_t));
    legacy += stats;
    std::memcpy(legacy.data() + sizeof(std::uint64_t) + p.offset, &p.value,
                sizeof(float));
    fs::copy_file(fx.model, fx.dir + "/poison",
                  fs::copy_options::overwrite_existing);
    AtomicWriteFile(fx.dir + "/poison.pre", legacy);
    auto victim = fx.Fresh();
    EXPECT_THROW(victim.Load(fx.dir + "/poison"), CheckError)
        << p.what << " was not rejected";
  }
}

// ---- a failed PelicanIds::Load ---------------------------------------------

// InspectAll's verdicts as bytes: label, class name, is_attack and the
// confidence's bits, per record.
std::string VerdictBytes(const core::PelicanIds& ids,
                         const data::RawDataset& records) {
  std::string out;
  for (const auto& v : ids.InspectAll(records)) {
    out += std::to_string(v.label) + ' ' + v.class_name + ' ' +
           (v.is_attack ? '1' : '0');
    out.append(reinterpret_cast<const char*>(&v.confidence),
               sizeof(v.confidence));
    out += '\n';
  }
  return out;
}

// Load stages the network, the scaler statistics and the quantized
// parameters and commits only when all three files pass. So a corrupt
// model leaves a fresh detector untrained, and a loaded one answering
// with the bytes it gave before (fp32 and int8), its network intact.
// The two corruptions fail at either end of Load: a model.bin with one
// bit flipped (the first file read), and a re-sealed `.quant` claiming
// n = 2^31 (the last).
TEST(PelicanIdsLoad, FailedLoadLeavesDetectorAsItWas) {
  PreFixture fx;
  const auto stage = [&fx](const std::string& stem) {
    for (const std::string ext : {"", ".pre", ".quant"}) {
      fs::copy_file(fx.model + ext, stem + ext,
                    fs::copy_options::overwrite_existing);
    }
  };
  const auto flipped_bin = fx.dir + "/flipped_bin";
  stage(flipped_bin);
  common::CorruptFile(flipped_bin,
                      {.flip_offset = fs::file_size(flipped_bin) / 2,
                       .flip_mask = 0x10});
  const auto lying_quant = fx.dir + "/lying_quant";
  stage(lying_quant);
  EditSealed(lying_quant + ".quant", [](std::string& bytes) {
    std::uint32_t name_len = 0;
    std::memcpy(&name_len, bytes.data() + 16, sizeof(name_len));
    PokeAt(bytes, 20 + name_len + sizeof(std::uint64_t),
           std::uint64_t{1} << 31);
  });

  for (const std::string& bad : {flipped_bin, lying_quant}) {
    SCOPED_TRACE(bad);
    auto fresh = fx.Fresh();
    EXPECT_THROW(fresh.Load(bad), CheckError);
    EXPECT_FALSE(fresh.Trained());
    EXPECT_FALSE(fresh.HasQuantizedParameters());

    for (const bool int8 : {false, true}) {
      auto loaded = fx.Fresh();
      loaded.Load(fx.model);
      loaded.EnableQuantized(int8);
      const std::string before = VerdictBytes(loaded, fx.data);
      EXPECT_THROW(loaded.Load(bad), CheckError);
      ASSERT_TRUE(loaded.Trained());
      EXPECT_EQ(loaded.quantized(), int8);
      EXPECT_TRUE(loaded.HasQuantizedParameters());
      EXPECT_EQ(VerdictBytes(loaded, fx.data), before) << "int8=" << int8;
    }
  }
}

// ---- `.quant` length fields -------------------------------------------------

// A CRC-valid `.quant` whose op-name length, n or k claims more bytes
// than are left is rejected before anything is allocated for it.
TEST(QuantSidecarFile, LengthFieldsPastEndRejected) {
  PreFixture fx;
  // magic | version | u64 op_count | u32 name_len | name | u64 k | u64 n
  const std::string clean = ReadFileBytes(fx.model + ".quant");
  std::uint32_t name_len = 0;
  std::memcpy(&name_len, clean.data() + 16, sizeof(name_len));
  const std::size_t k_at = 20 + name_len;
  const std::size_t n_at = k_at + sizeof(std::uint64_t);
  struct Lie {
    std::size_t offset;
    std::uint64_t value;
    bool is_u32;
    const char* what;
  };
  const Lie lies[] = {
      {16, 0xFFFFFFF0, true, "op-name length"},
      {n_at, std::uint64_t{1} << 31, false, "n = 2^31"},
      {k_at, std::uint64_t{1} << 31, false, "k = 2^31"},
      {k_at, (std::uint64_t{1} << 32) - 1, false, "k = 2^32 - 1"},
  };
  for (const Lie& lie : lies) {
    const auto stem = fx.dir + "/lying";
    fs::copy_file(fx.model, stem, fs::copy_options::overwrite_existing);
    fs::copy_file(fx.model + ".pre", stem + ".pre",
                  fs::copy_options::overwrite_existing);
    fs::copy_file(fx.model + ".quant", stem + ".quant",
                  fs::copy_options::overwrite_existing);
    EditSealed(stem + ".quant", [&lie](std::string& bytes) {
      if (lie.is_u32) {
        PokeAt(bytes, lie.offset, static_cast<std::uint32_t>(lie.value));
      } else {
        PokeAt(bytes, lie.offset, lie.value);
      }
    });
    auto victim = fx.Fresh();
    EXPECT_THROW(victim.Load(stem), CheckError) << lie.what;
  }
}

}  // namespace
}  // namespace pelican
