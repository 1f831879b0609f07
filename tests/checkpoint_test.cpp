// Crash-safety tests: CRC32 integrity, atomic writes, the
// fault-injection harness, checksummed weight files (and their
// rejection of non-finite weights), checkpoint/resume
// (bit-for-bit equivalence with an uninterrupted run) and the
// divergence guard's NaN-loss recovery.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <cstdint>
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
#include "nn/gru.h"

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

TEST(Crc32, KnownAnswerVector) {
  // The standard CRC-32/IEEE check value.
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

  std::ostringstream out(std::ios::binary);
  out.write("PLCN", 4);
  const std::uint32_t version = 2;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  const auto params = net->Params();
  const auto buffers = net->Buffers();
  const std::uint64_t n_params = params.size();
  const std::uint64_t n_buffers = buffers.size();
  out.write(reinterpret_cast<const char*>(&n_params), sizeof(n_params));
  out.write(reinterpret_cast<const char*>(&n_buffers), sizeof(n_buffers));
  for (const auto& p : params) core::io::WriteTensorEntry(out, p.name, *p.value);
  for (const auto& b : buffers) core::io::WriteTensorEntry(out, b.name, *b.value);
  AtomicWriteFile(dir + "/legacy.bin", out.str());

  Rng rng_b(8);
  auto net_b = models::BuildMlp(6, 3, rng_b, 16);
  core::LoadWeights(*net_b, dir + "/legacy.bin");
  EXPECT_EQ(FlattenParams(*net), FlattenParams(*net_b));
}

TEST(WeightFiles, TensorEntryPayloadTruncationRejected) {
  // Regression: a stream that ends mid-payload (after the name and dims
  // parse cleanly) must throw, not leave the tensor half-filled.
  Rng rng(7);
  Tensor t = Tensor::RandomNormal({4, 4}, rng, 0, 1);
  std::ostringstream out(std::ios::binary);
  core::io::WriteTensorEntry(out, "w", t);
  const std::string full = out.str();

  std::istringstream in(full.substr(0, full.size() - 8), std::ios::binary);
  Tensor dst({4, 4});
  EXPECT_THROW(core::io::ReadTensorEntry(in, "w", dst), CheckError);
}

// Overwrites the first float of tensor entry `name` in a v3 weight file
// and recomputes the CRC footer, so only the finiteness check can
// reject the result.
void PoisonFirstFloat(const std::string& path, const std::string& name,
                      float value) {
  std::string bytes = ReadFileBytes(path);
  // Entry layout: u32 name_len | name | u32 rank | i64 dims… | f32 data…
  const std::size_t at = bytes.find(name);
  ASSERT_NE(at, std::string::npos) << name;
  std::uint32_t rank = 0;
  std::memcpy(&rank, bytes.data() + at + name.size(), sizeof(rank));
  const std::size_t data =
      at + name.size() + sizeof(rank) + rank * sizeof(std::int64_t);
  std::memcpy(bytes.data() + data, &value, sizeof(value));
  const std::size_t body = bytes.size() - sizeof(std::uint32_t);
  const std::uint32_t crc = Crc32Of(bytes.data(), body);
  std::memcpy(bytes.data() + body, &crc, sizeof(crc));
  AtomicWriteFile(path, bytes);
}

TEST(WeightFiles, NonFiniteWeightsRejectedDespiteValidChecksum) {
  const auto dir = MakeTempDir("weights_nonfinite");
  Rng rng(7);
  nn::Sequential net;
  net.Add(std::make_unique<nn::BatchNorm>(4));
  net.Add(std::make_unique<nn::Gru>(4, 4, rng));
  const auto clean = dir + "/w.bin";
  core::SaveWeights(net, clean);

  struct Poison {
    const char* tensor;
    float value;
  };
  const Poison poisons[] = {
      {"gru.uz", std::numeric_limits<float>::quiet_NaN()},
      {"bn.running_var", std::numeric_limits<float>::infinity()},
  };
  for (const auto& p : poisons) {
    const auto corrupt = dir + "/w_poison.bin";
    fs::copy_file(clean, corrupt, fs::copy_options::overwrite_existing);
    PoisonFirstFloat(corrupt, p.tensor, p.value);
    try {
      core::LoadWeights(net, corrupt);
      ADD_FAILURE() << p.value << " in " << p.tensor << " was not rejected";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(p.tensor), std::string::npos)
          << "error does not name the tensor: " << e.what();
    }
  }
  EXPECT_NO_THROW(core::LoadWeights(net, clean));
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

}  // namespace
}  // namespace pelican
