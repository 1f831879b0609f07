// Crash-safe training checkpoints.
//
// A checkpoint atomically snapshots everything a resumed run needs to
// continue bit-for-bit where the original left off: model parameters +
// buffers, optimizer state (caches/momenta/step counts), the trainer's
// RNG state (shuffle order and dropout masks), learning-rate backoff,
// early-stopping bookkeeping and the epoch history so far.
//
// On-disk format "PCKP" v1 (little-endian binary, one file per epoch,
// named checkpoint-<epoch>.ckpt):
//   magic "PCKP" | u32 version | trainer state | named tensor entries
//   (weights, same codec as PLCN) | optimizer section | u32 CRC32 footer
//
// Writes go through AtomicWriteFile (temp + fsync + rename), so a crash
// mid-snapshot leaves the previous checkpoint intact. Loading verifies
// the CRC32 footer first, then parses and checks the whole file before
// writing anything; LoadLatest walks checkpoints newest→oldest and
// skips corrupt, truncated or mismatched ones, so a crash (or a
// bit-flip) in the newest snapshot degrades to the one before it.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/trainer.h"
#include "nn/sequential.h"
#include "optim/optimizer.h"

namespace pelican::core {

struct CheckpointConfig {
  std::string dir;
  int every = 1;  // snapshot every N completed epochs
  int keep = 3;   // retained snapshots; 0 = keep all
};

// Non-tensor trainer state carried alongside the weights.
struct CheckpointState {
  int epoch = 0;  // last completed epoch
  Rng::State rng{};
  float lr_scale = 1.0F;  // divergence-guard learning-rate backoff
  float best_test_loss = 0.0F;
  int epochs_without_improvement = 0;
  TrainHistory history;
};

class Checkpointer {
 public:
  // Creates `config.dir` if needed. Throws CheckError when the
  // directory can't be created or `every`/`keep` are out of range.
  explicit Checkpointer(CheckpointConfig config);

  [[nodiscard]] bool ShouldSnapshot(int epoch) const {
    return epoch % config_.every == 0;
  }

  // Atomically writes checkpoint-<epoch>.ckpt, then prunes snapshots
  // beyond the `keep` newest. Returns the written path.
  std::string Save(nn::Sequential& network, optim::Optimizer& optimizer,
                   const CheckpointState& state) const;

  // Checkpoint paths on disk, oldest → newest (by epoch).
  [[nodiscard]] std::vector<std::string> List() const;

  // Restores the newest checkpoint LoadFile accepts, skipping (and
  // warning about) the ones it rejects. Returns false when no loadable
  // checkpoint exists.
  bool LoadLatest(nn::Sequential& network, optim::Optimizer& optimizer,
                  CheckpointState* state) const;

  // Restores one checkpoint file. Throws CheckError on a checksum,
  // architecture or optimizer mismatch and on a non-finite parameter or
  // buffer (naming the tensor); a file it rejects writes nothing to
  // `network`, `optimizer` or `state`.
  static void LoadFile(const std::string& path, nn::Sequential& network,
                       optim::Optimizer& optimizer, CheckpointState* state);

  [[nodiscard]] const CheckpointConfig& config() const { return config_; }

 private:
  CheckpointConfig config_;
};

}  // namespace pelican::core
