// Mini-batch trainer for nn::Sequential networks.
//
// Reproduces the paper's training loop: shuffled mini-batches, softmax
// cross-entropy, a pluggable gradient-descent optimizer (RMSprop by
// default, as in Section V-C), per-epoch train/test loss + accuracy
// history (the series plotted in Fig. 5).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "nn/nn.h"
#include "optim/lr_schedule.h"
#include "optim/optimizer.h"

namespace pelican::core {

struct TrainConfig {
  int epochs = 50;
  std::size_t batch_size = 64;
  float learning_rate = 0.01F;      // Table I
  std::string optimizer = "rmsprop";
  float clip_norm = 0.0F;           // 0 = off
  std::uint64_t seed = 42;
  bool verbose = false;
  int log_every = 10;               // epochs between progress logs

  // Optional learning-rate schedule (null = the paper's constant rate).
  optim::LrSchedulePtr lr_schedule;

  // Early stopping on test loss: stop after `patience` epochs without
  // an improvement of at least `min_delta`. 0 disables. Requires a test
  // set to be passed to Fit; ignored otherwise.
  int early_stopping_patience = 0;
  float early_stopping_min_delta = 1e-4F;

  // Weight the loss by inverse class frequency ("balanced") so rare
  // attack classes (U2R, Worms) contribute proportionally. Off by
  // default — the paper trains unweighted.
  bool balanced_class_weights = false;

  // Snapshot the weights at the best test loss and restore them when
  // Fit returns (requires a test set; pairs naturally with early
  // stopping). Off by default — the paper reports last-epoch models.
  bool restore_best_weights = false;

  // ---- fault tolerance -------------------------------------------------
  // When non-empty, snapshot model + optimizer + RNG state to this
  // directory every `checkpoint_every` completed epochs (atomic write,
  // CRC32 footer; the newest `checkpoint_keep` snapshots are retained).
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  int checkpoint_keep = 3;
  // Resume from the newest valid checkpoint in checkpoint_dir instead
  // of starting at epoch 1. Because the checkpoint carries the RNG
  // state, a resumed run reproduces the uninterrupted run bit-for-bit
  // (same shuffles, dropout masks and updates); work from a partially
  // completed epoch is discarded and replayed.
  bool resume = false;

  // Divergence guard: when max_divergence_retries > 0, a non-finite or
  // exploding (> divergence_loss_threshold) batch loss rolls the run
  // back to the last completed epoch, scales the learning rate by
  // lr_backoff, and retries the epoch instead of corrupting the
  // weights. Exhausting the retry budget restores the last good state
  // and ends training gracefully. Recoveries are recorded per epoch in
  // the returned TrainHistory. Off by default — the paper's Plain-41
  // exploding gradients are part of the phenomenon under study.
  int max_divergence_retries = 0;
  float divergence_loss_threshold = 1e6F;
  float lr_backoff = 0.5F;

  // Test hook for the fault-injection harness: when set, a `true`
  // return replaces that batch's loss with NaN before the divergence
  // guard sees it. Null in production.
  std::function<bool(int epoch, std::size_t batch)> loss_fault_hook;

  // ---- observability ---------------------------------------------------
  // When non-empty, Fit writes structured run telemetry to this JSONL
  // file (truncated at start): a run_start manifest (config, seed,
  // thread count, build provenance), one event per completed epoch
  // (losses, accuracies, grad norm, effective learning rate,
  // recoveries, rows/s, checkpoint path), and a run_end summary. Off by
  // default; adds nothing to the hot loops when empty.
  std::string run_log_path;
};

struct EpochStats {
  int epoch = 0;
  float train_loss = 0.0F;
  float train_accuracy = 0.0F;
  // Present when a test set was supplied to Fit.
  std::optional<float> test_loss;
  std::optional<float> test_accuracy;
  // Divergence-guard rollbacks it took to complete this epoch.
  int recoveries = 0;
};

using TrainHistory = std::vector<EpochStats>;

// Writes a history as CSV (epoch,train_loss,train_accuracy,test_loss,
// test_accuracy,recoveries; empty cells where no test set was
// supplied) — the raw series behind the Fig. 5 plots, for external
// plotting tools.
void WriteHistoryCsv(const TrainHistory& history, const std::string& path);

// Same series as JSON Lines, one object per epoch, using the run-log
// epoch-event field names (epoch, train_loss, train_accuracy,
// test_loss, test_accuracy, recoveries; test fields omitted when no
// test set was supplied).
void WriteHistoryJsonl(const TrainHistory& history, const std::string& path);

// Parse a history back from either format. Throw CheckError on
// malformed input; round-trip with the writers above exactly (floats
// travel as shortest-round-trip decimal).
TrainHistory ReadHistoryCsv(const std::string& path);
TrainHistory ReadHistoryJsonl(const std::string& path);

class Trainer {
 public:
  // The network is borrowed and must outlive the trainer.
  Trainer(nn::Sequential& network, TrainConfig config);

  // Trains only `trainable` (a subset of the network's Params()) —
  // gradients still flow through every layer, but frozen parameters are
  // never updated. Used by transfer-learning fine-tunes.
  Trainer(nn::Sequential& network, TrainConfig config,
          std::vector<nn::ParamRef> trainable);

  // Trains on (x, y); when (x_test, y_test) are non-null, evaluates on
  // them after every epoch so loss curves can be plotted.
  TrainHistory Fit(const Tensor& x, std::span<const int> y,
                   const Tensor* x_test = nullptr,
                   std::span<const int> y_test = {});

  // Argmax predictions, evaluated in inference mode, in batches.
  [[nodiscard]] std::vector<int> Predict(const Tensor& x) const;

  // Row-wise softmax class probabilities (N, K), inference mode.
  [[nodiscard]] Tensor PredictProbabilities(const Tensor& x) const;

  // Mean loss + accuracy on a labelled set (inference mode).
  struct Evaluation {
    float loss = 0.0F;
    float accuracy = 0.0F;
  };
  [[nodiscard]] Evaluation Evaluate(const Tensor& x,
                                    std::span<const int> y) const;

  [[nodiscard]] const TrainConfig& config() const { return config_; }

 private:
  nn::Sequential* network_;
  TrainConfig config_;
  std::unique_ptr<optim::Optimizer> optimizer_;
  Rng rng_;
};

// Inference over a network that needs no Trainer: x is scored in
// `batch_size` row slices, in order, on the calling thread's context.
// Trainer's Predict, PredictProbabilities and Evaluate call these with
// their network and config().batch_size, and a loaded PelicanIds calls
// them on its network alone. Score writes no layer state, so any number
// of threads may call them on one network at once (the multi-scorer
// serve plane relies on it).
[[nodiscard]] std::vector<int> Predict(const nn::Sequential& network,
                                       const Tensor& x,
                                       std::size_t batch_size);
[[nodiscard]] Tensor PredictProbabilities(const nn::Sequential& network,
                                          const Tensor& x,
                                          std::size_t batch_size);
[[nodiscard]] Trainer::Evaluation Evaluate(const nn::Sequential& network,
                                           const Tensor& x,
                                           std::span<const int> y,
                                           std::size_t batch_size);

}  // namespace pelican::core
