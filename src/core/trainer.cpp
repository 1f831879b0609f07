#include "core/trainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "common/logging.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "data/batcher.h"
#include "obs/obs.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace pelican::core {

namespace {

// Shortest float form that parses back bit-identically (FLT_DECIMAL_DIG
// significant digits), so WriteHistory*/ReadHistory* round-trip exactly.
std::string FloatRepr(float value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", static_cast<double>(value));
  return buf;
}

// One epoch's history row as run-log-schema JSON (shared between
// WriteHistoryJsonl and the Trainer's per-epoch run-log events).
obs::Json HistoryEventJson(const EpochStats& e) {
  obs::Json ev;
  ev.Set("epoch", static_cast<std::int64_t>(e.epoch));
  ev.SetRaw("train_loss", FloatRepr(e.train_loss));
  ev.SetRaw("train_accuracy", FloatRepr(e.train_accuracy));
  if (e.test_loss) ev.SetRaw("test_loss", FloatRepr(*e.test_loss));
  if (e.test_accuracy) {
    ev.SetRaw("test_accuracy", FloatRepr(*e.test_accuracy));
  }
  ev.Set("recoveries", static_cast<std::int64_t>(e.recoveries));
  return ev;
}

// Lazily-registered training metrics; a metrics-off run never touches
// the registry.
struct TrainMetrics {
  obs::Counter epochs;
  obs::Counter rows;
  obs::Counter recoveries;
  obs::Histogram epoch_seconds;
  obs::Gauge last_train_loss;
};
TrainMetrics& TrainCounters() {
  auto& reg = obs::Registry::Global();
  static TrainMetrics m{
      reg.GetCounter("pelican_train_epochs_total", "Completed epochs"),
      reg.GetCounter("pelican_train_rows_total", "Training rows processed"),
      reg.GetCounter("pelican_train_divergence_recoveries_total",
                     "Divergence-guard rollbacks"),
      reg.GetHistogram("pelican_train_epoch_seconds", "Epoch wall time",
                       obs::DefaultTimeBuckets()),
      reg.GetGauge("pelican_train_last_loss", "Most recent epoch train loss")};
  return m;
}

}  // namespace

void WriteHistoryCsv(const TrainHistory& history, const std::string& path) {
  std::ofstream out(path);
  PELICAN_CHECK(out.is_open(), "cannot open for writing: " + path);
  out << "epoch,train_loss,train_accuracy,test_loss,test_accuracy,"
         "recoveries\n";
  for (const auto& e : history) {
    out << e.epoch << ',' << FloatRepr(e.train_loss) << ','
        << FloatRepr(e.train_accuracy) << ',';
    if (e.test_loss) out << FloatRepr(*e.test_loss);
    out << ',';
    if (e.test_accuracy) out << FloatRepr(*e.test_accuracy);
    out << ',' << e.recoveries << '\n';
  }
  PELICAN_CHECK(out.good(), "history write failed: " + path);
}

void WriteHistoryJsonl(const TrainHistory& history, const std::string& path) {
  std::ofstream out(path);
  PELICAN_CHECK(out.is_open(), "cannot open for writing: " + path);
  for (const auto& e : history) out << HistoryEventJson(e).Str() << '\n';
  PELICAN_CHECK(out.good(), "history write failed: " + path);
}

TrainHistory ReadHistoryCsv(const std::string& path) {
  std::ifstream in(path);
  PELICAN_CHECK(in.is_open(), "cannot open: " + path);
  std::string line;
  PELICAN_CHECK(static_cast<bool>(std::getline(in, line)),
                "empty history CSV: " + path);
  PELICAN_CHECK(line ==
                    "epoch,train_loss,train_accuracy,test_loss,"
                    "test_accuracy,recoveries",
                "unexpected history CSV header: " + line);
  TrainHistory history;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto cells = Split(line, ',');
    PELICAN_CHECK(cells.size() == 6, "malformed history CSV row: " + line);
    EpochStats e;
    e.epoch = std::stoi(cells[0]);
    e.train_loss = std::stof(cells[1]);
    e.train_accuracy = std::stof(cells[2]);
    if (!cells[3].empty()) e.test_loss = std::stof(cells[3]);
    if (!cells[4].empty()) e.test_accuracy = std::stof(cells[4]);
    e.recoveries = std::stoi(cells[5]);
    history.push_back(e);
  }
  return history;
}

TrainHistory ReadHistoryJsonl(const std::string& path) {
  std::ifstream in(path);
  PELICAN_CHECK(in.is_open(), "cannot open: " + path);
  TrainHistory history;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto parsed = obs::ParseJson(line);
    PELICAN_CHECK(parsed.has_value(), "malformed history JSONL line: " + line);
    const auto num = [&](const char* key) -> const obs::JsonValue* {
      const obs::JsonValue* v = parsed->Find(key);
      PELICAN_CHECK(v == nullptr || v->IsNumber(),
                    std::string("non-numeric history field: ") + key);
      return v;
    };
    const obs::JsonValue* epoch = num("epoch");
    PELICAN_CHECK(epoch != nullptr, "history JSONL line missing epoch");
    EpochStats e;
    e.epoch = static_cast<int>(epoch->number);
    if (const auto* v = num("train_loss")) {
      e.train_loss = static_cast<float>(v->number);
    }
    if (const auto* v = num("train_accuracy")) {
      e.train_accuracy = static_cast<float>(v->number);
    }
    if (const auto* v = num("test_loss")) {
      e.test_loss = static_cast<float>(v->number);
    }
    if (const auto* v = num("test_accuracy")) {
      e.test_accuracy = static_cast<float>(v->number);
    }
    if (const auto* v = num("recoveries")) {
      e.recoveries = static_cast<int>(v->number);
    }
    history.push_back(e);
  }
  return history;
}

Trainer::Trainer(nn::Sequential& network, TrainConfig config)
    : Trainer(network, std::move(config), network.Params()) {}

Trainer::Trainer(nn::Sequential& network, TrainConfig config,
                 std::vector<nn::ParamRef> trainable)
    : network_(&network),
      config_(std::move(config)),
      optimizer_(optim::MakeOptimizer(config_.optimizer,
                                      config_.learning_rate)),
      rng_(config_.seed) {
  PELICAN_CHECK(config_.epochs >= 1);
  PELICAN_CHECK(config_.batch_size >= 1);
  PELICAN_CHECK(!trainable.empty(), "no trainable parameters");
  if (config_.clip_norm > 0.0F) optimizer_->SetClipNorm(config_.clip_norm);
  optimizer_->Attach(std::move(trainable));
  network_->SetRng(&rng_);
}

TrainHistory Trainer::Fit(const Tensor& x, std::span<const int> y,
                          const Tensor* x_test,
                          std::span<const int> y_test) {
  PELICAN_CHECK(x.rank() == 2 &&
                    static_cast<std::int64_t>(y.size()) == x.dim(0),
                "Fit expects (N, D) features + N labels");
  if (x_test != nullptr) {
    PELICAN_CHECK(static_cast<std::int64_t>(y_test.size()) == x_test->dim(0),
                  "test labels length mismatch");
  }

  data::Batcher batcher(x, y, config_.batch_size, rng_);
  TrainHistory history;
  history.reserve(static_cast<std::size_t>(config_.epochs));

  // Structured run telemetry (off unless run_log_path is set). The log
  // only *reads* training state, so it cannot perturb the math: a run
  // with telemetry on produces bit-identical weights.
  std::optional<obs::RunLog> run_log;
  if (!config_.run_log_path.empty()) run_log.emplace(config_.run_log_path);
  const auto fit_start = std::chrono::steady_clock::now();
  if (run_log) {
    obs::Json cfg;
    cfg.Set("epochs", static_cast<std::int64_t>(config_.epochs));
    cfg.Set("batch_size", static_cast<std::uint64_t>(config_.batch_size));
    cfg.Set("learning_rate", config_.learning_rate);
    cfg.Set("optimizer", config_.optimizer);
    cfg.Set("clip_norm", config_.clip_norm);
    cfg.Set("balanced_class_weights", config_.balanced_class_weights);
    cfg.Set("early_stopping_patience",
            static_cast<std::int64_t>(config_.early_stopping_patience));
    cfg.Set("restore_best_weights", config_.restore_best_weights);
    cfg.Set("max_divergence_retries",
            static_cast<std::int64_t>(config_.max_divergence_retries));
    cfg.Set("checkpoint_dir", config_.checkpoint_dir);
    obs::Json ev;
    ev.Set("event", "run_start");
    ev.Set("time", obs::Iso8601Now());
    ev.Set("seed", config_.seed);
    ev.Set("threads", static_cast<std::uint64_t>(EffectiveThreads()));
    ev.Set("train_rows", x.dim(0));
    ev.Set("test_rows", x_test != nullptr ? x_test->dim(0) : 0);
    ev.Set("git", obs::GitDescribe());
    ev.Set("compiler", obs::BuildCompiler());
    ev.Set("build_flags", obs::BuildFlags());
    ev.Set("gemm", kernels::IsaName());
    ev.Set("config", cfg);
    run_log->Write(ev);
  }

  std::vector<float> class_weights;
  if (config_.balanced_class_weights) {
    std::int64_t n_classes = 0;
    for (int label : y) {
      n_classes = std::max<std::int64_t>(n_classes, label + 1);
    }
    class_weights = nn::BalancedClassWeights(y, n_classes);
  }

  float best_test_loss = std::numeric_limits<float>::infinity();
  int epochs_without_improvement = 0;
  std::vector<Tensor> best_weights;  // snapshot for restore_best_weights

  float lr_scale = 1.0F;  // divergence-guard learning-rate backoff
  int start_epoch = 1;

  std::unique_ptr<Checkpointer> checkpointer;
  if (!config_.checkpoint_dir.empty()) {
    checkpointer = std::make_unique<Checkpointer>(
        CheckpointConfig{config_.checkpoint_dir, config_.checkpoint_every,
                         config_.checkpoint_keep});
    if (config_.resume) {
      CheckpointState restored;
      if (checkpointer->LoadLatest(*network_, *optimizer_, &restored)) {
        // The restored RNG state replays the exact shuffle/dropout
        // sequence the uninterrupted run would have drawn (the
        // batcher's construction-time shuffle above is discarded by
        // the next StartEpoch).
        rng_.SetState(restored.rng);
        lr_scale = restored.lr_scale;
        best_test_loss = restored.best_test_loss;
        epochs_without_improvement = restored.epochs_without_improvement;
        history = std::move(restored.history);
        start_epoch = restored.epoch + 1;
        if (config_.verbose) {
          PELICAN_LOG(Info) << "resumed from checkpoint at epoch "
                            << restored.epoch;
        }
      }
    }
  }

  // Divergence guard: in-memory snapshot of the last state known good
  // (end of the previous epoch), to roll back to when a batch loss goes
  // non-finite or explodes.
  const bool guard = config_.max_divergence_retries > 0;
  struct GoodState {
    std::vector<Tensor> params;
    std::vector<Tensor> buffers;
    std::vector<Tensor> opt_state;
    std::vector<std::int64_t> opt_scalars;
    Rng::State rng{};
  };
  GoodState last_good;
  auto take_snapshot = [&] {
    last_good.params.clear();
    for (const auto& p : network_->Params()) last_good.params.push_back(*p.value);
    last_good.buffers.clear();
    for (const auto& b : network_->Buffers()) {
      last_good.buffers.push_back(*b.value);
    }
    last_good.opt_state.clear();
    for (const Tensor* t : optimizer_->StateTensors()) {
      last_good.opt_state.push_back(*t);
    }
    last_good.opt_scalars = optimizer_->ScalarState();
    last_good.rng = rng_.GetState();
  };
  auto restore_snapshot = [&] {
    auto params = network_->Params();
    for (std::size_t i = 0; i < params.size(); ++i) {
      *params[i].value = last_good.params[i];
    }
    auto buffers = network_->Buffers();
    for (std::size_t i = 0; i < buffers.size(); ++i) {
      *buffers[i].value = last_good.buffers[i];
    }
    auto opt_state = optimizer_->StateTensors();
    for (std::size_t i = 0; i < opt_state.size(); ++i) {
      *opt_state[i] = last_good.opt_state[i];
    }
    optimizer_->SetScalarState(last_good.opt_scalars);
    rng_.SetState(last_good.rng);
  };
  if (guard) take_snapshot();
  int retries_used = 0;

  data::Batch batch;
  bool stopped_early = false;
  int last_epoch_completed = start_epoch - 1;
  for (int epoch = start_epoch; epoch <= config_.epochs; ++epoch) {
    obs::TraceSpan epoch_span("epoch", "train");
    const auto epoch_start = std::chrono::steady_clock::now();
    int epoch_recoveries = 0;
    bool stop_training = false;
    double loss_sum = 0.0;
    std::int64_t correct = 0;
    std::int64_t seen = 0;
    float effective_lr = config_.learning_rate;

    for (;;) {  // divergence-guard retry loop (runs once when healthy)
      const float base_lr =
          config_.lr_schedule != nullptr
              ? config_.lr_schedule->LearningRate(epoch,
                                                  config_.learning_rate)
              : config_.learning_rate;
      effective_lr = base_lr * lr_scale;
      optimizer_->SetLearningRate(effective_lr);
      batcher.StartEpoch();
      loss_sum = 0.0;
      correct = 0;
      seen = 0;
      bool diverged = false;
      std::size_t batch_index = 0;
      while (batcher.Next(batch)) {
        // Zero every gradient in the network (not just the trainable
        // subset) so frozen parameters' grads don't accumulate across
        // steps during fine-tunes.
        network_->ZeroGrad();
        Tensor logits = network_->Forward(batch.x, /*training=*/true);
        auto result =
            class_weights.empty()
                ? nn::SoftmaxCrossEntropy(logits, batch.labels)
                : nn::SoftmaxCrossEntropyWeighted(logits, batch.labels,
                                                  class_weights);
        float batch_loss = result.loss;
        if (config_.loss_fault_hook &&
            config_.loss_fault_hook(epoch, batch_index)) {
          batch_loss = std::numeric_limits<float>::quiet_NaN();
        }
        if (guard && (!std::isfinite(batch_loss) ||
                      batch_loss > config_.divergence_loss_threshold)) {
          // Bail before the bad gradients touch the weights.
          diverged = true;
          break;
        }
        network_->Backward(result.dlogits);
        optimizer_->Step();

        const auto b = static_cast<std::int64_t>(batch.labels.size());
        loss_sum +=
            static_cast<double>(batch_loss) * static_cast<double>(b);
        for (std::int64_t i = 0; i < b; ++i) {
          if (result.probs.ArgMaxRow(i) ==
              batch.labels[static_cast<std::size_t>(i)]) {
            ++correct;
          }
        }
        seen += b;
        ++batch_index;
      }
      if (!diverged) break;

      restore_snapshot();
      if (retries_used >= config_.max_divergence_retries) {
        PELICAN_LOG(Warn)
            << "divergence guard: retry budget ("
            << config_.max_divergence_retries << ") exhausted at epoch "
            << epoch << "; stopping at the last good state";
        stop_training = true;
        break;
      }
      ++retries_used;
      ++epoch_recoveries;
      lr_scale *= config_.lr_backoff;
      PELICAN_LOG(Warn) << "divergence at epoch " << epoch << " batch "
                           << batch_index
                           << ": rolled back to last good state, lr scale "
                           << lr_scale;
    }
    if (stop_training) break;

    EpochStats stats;
    stats.epoch = epoch;
    stats.train_loss = static_cast<float>(loss_sum / static_cast<double>(seen));
    stats.train_accuracy =
        static_cast<float>(correct) / static_cast<float>(seen);
    stats.recoveries = epoch_recoveries;
    if (x_test != nullptr) {
      const Evaluation eval = Evaluate(*x_test, y_test);
      stats.test_loss = eval.loss;
      stats.test_accuracy = eval.accuracy;
    }
    history.push_back(stats);
    last_epoch_completed = epoch;

    const double epoch_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      epoch_start)
            .count();
    const double rows_per_sec =
        epoch_seconds > 0.0 ? static_cast<double>(seen) / epoch_seconds : 0.0;

    if (obs::MetricsEnabled()) {
      auto& m = TrainCounters();
      m.epochs.Inc();
      m.rows.Inc(static_cast<std::uint64_t>(seen));
      m.recoveries.Inc(static_cast<std::uint64_t>(epoch_recoveries));
      m.epoch_seconds.Observe(epoch_seconds);
      m.last_train_loss.Set(static_cast<double>(stats.train_loss));
    }

    // The early-stop decision happens *before* the progress line so the
    // run's final epoch is always logged, whether it ends by reaching
    // config_.epochs, by early stopping, or by a mid-run stop — even
    // when epochs % log_every != 0.
    bool early_stop = false;
    if (stats.test_loss &&
        (config_.early_stopping_patience > 0 ||
         config_.restore_best_weights)) {
      if (*stats.test_loss <
          best_test_loss - config_.early_stopping_min_delta) {
        best_test_loss = *stats.test_loss;
        epochs_without_improvement = 0;
        if (config_.restore_best_weights) {
          best_weights.clear();
          for (const auto& p : network_->Params()) {
            best_weights.push_back(*p.value);
          }
        }
      } else if (config_.early_stopping_patience > 0 &&
                 ++epochs_without_improvement >=
                     config_.early_stopping_patience) {
        early_stop = true;
      }
    }

    const bool final_epoch = early_stop || epoch == config_.epochs;
    if (config_.verbose &&
        (epoch % std::max(1, config_.log_every) == 0 || final_epoch)) {
      PELICAN_LOG(Info) << "epoch " << epoch << "/" << config_.epochs
                        << " train_loss=" << stats.train_loss
                        << " train_acc=" << stats.train_accuracy
                        << (stats.test_loss
                                ? " test_loss=" + std::to_string(*stats.test_loss)
                                : "")
                        << " rows/s=" << static_cast<std::int64_t>(rows_per_sec);
    }
    if (early_stop && config_.verbose) {
      PELICAN_LOG(Info) << "early stop at epoch " << epoch
                        << " (no test-loss improvement for "
                        << config_.early_stopping_patience << " epochs)";
    }

    if (guard) take_snapshot();
    std::string checkpoint_path;
    if (checkpointer != nullptr &&
        (checkpointer->ShouldSnapshot(epoch) || early_stop ||
         epoch == config_.epochs)) {
      CheckpointState snapshot;
      snapshot.epoch = epoch;
      snapshot.rng = rng_.GetState();
      snapshot.lr_scale = lr_scale;
      snapshot.best_test_loss = best_test_loss;
      snapshot.epochs_without_improvement = epochs_without_improvement;
      snapshot.history = history;
      checkpoint_path = checkpointer->Save(*network_, *optimizer_, snapshot);
    }

    if (run_log) {
      // L2 norm over the trainable gradients of the epoch's last batch
      // — read-only, and only computed when the run log is on.
      double grad_sq = 0.0;
      for (const auto& p : network_->Params()) {
        for (const float g : p.grad->data()) {
          grad_sq += static_cast<double>(g) * static_cast<double>(g);
        }
      }
      obs::Json ev = HistoryEventJson(stats);
      ev.Set("event", "epoch");
      ev.Set("grad_norm", std::sqrt(grad_sq));
      ev.Set("lr", effective_lr);
      ev.Set("seconds", epoch_seconds);
      ev.Set("rows_per_sec", rows_per_sec);
      if (!checkpoint_path.empty()) ev.Set("checkpoint", checkpoint_path);
      run_log->Write(ev);
    }
    if (early_stop) {
      stopped_early = true;
      break;
    }
  }

  if (run_log) {
    obs::Json ev;
    ev.Set("event", "run_end");
    ev.Set("time", obs::Iso8601Now());
    ev.Set("epochs_completed", static_cast<std::int64_t>(last_epoch_completed));
    ev.Set("stopped_early", stopped_early);
    ev.Set("divergence_recoveries", static_cast<std::int64_t>(retries_used));
    ev.Set("wall_seconds",
           std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         fit_start)
               .count());
    if (std::isfinite(best_test_loss)) {
      ev.SetRaw("best_test_loss", FloatRepr(best_test_loss));
    }
    run_log->Write(ev);
  }

  if (config_.restore_best_weights && !best_weights.empty()) {
    auto params = network_->Params();
    PELICAN_CHECK(params.size() == best_weights.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      *params[i].value = best_weights[i];
    }
  }
  return history;
}

namespace {

// Scores x in `batch_size` row slices, in order, and calls
// fn(first_row, logits) on each slice's logits. The context's arena
// grows to the model's footprint on the first slice and is reused
// afterwards.
template <typename Fn>
void ScoreSlices(const nn::Sequential& network, const Tensor& x,
                 std::size_t batch_size, Fn&& fn) {
  const std::int64_t n = x.dim(0), d = x.dim(1);
  const auto bs = static_cast<std::int64_t>(batch_size);
  nn::InferenceContext& ctx = nn::InferenceContext::ThisThread();
  for (std::int64_t start = 0; start < n; start += bs) {
    const std::int64_t len = std::min(bs, n - start);
    Tensor slice({len, d});
    std::copy(x.data().begin() + start * d,
              x.data().begin() + (start + len) * d, slice.data().begin());
    fn(start, network.Score(slice, ctx));
  }
}

}  // namespace

std::vector<int> Predict(const nn::Sequential& network, const Tensor& x,
                         std::size_t batch_size) {
  PELICAN_CHECK(x.rank() == 2, "Predict expects (N, D)");
  std::vector<int> predictions(static_cast<std::size_t>(x.dim(0)));
  ScoreSlices(network, x, batch_size,
              [&](std::int64_t start, const Tensor& logits) {
                // Rows of the logits argmax independently.
                ParallelFor(
                    0, static_cast<std::size_t>(logits.dim(0)),
                    [&](std::size_t i) {
                      predictions[static_cast<std::size_t>(start) + i] =
                          static_cast<int>(logits.ArgMaxRow(
                              static_cast<std::int64_t>(i)));
                    },
                    64);
              });
  return predictions;
}

Tensor PredictProbabilities(const nn::Sequential& network, const Tensor& x,
                            std::size_t batch_size) {
  PELICAN_CHECK(x.rank() == 2, "PredictProbabilities expects (N, D)");
  Tensor probs;
  ScoreSlices(network, x, batch_size,
              [&](std::int64_t start, const Tensor& logits) {
                const Tensor batch_probs = SoftmaxRows(logits);
                if (probs.empty()) {
                  probs = Tensor({x.dim(0), batch_probs.dim(1)});
                }
                std::copy(batch_probs.data().begin(),
                          batch_probs.data().end(),
                          probs.data().begin() + start * batch_probs.dim(1));
              });
  return probs;
}

Trainer::Evaluation Evaluate(const nn::Sequential& network, const Tensor& x,
                             std::span<const int> y, std::size_t batch_size) {
  PELICAN_CHECK(x.rank() == 2 &&
                    static_cast<std::int64_t>(y.size()) == x.dim(0),
                "Evaluate expects (N, D) + N labels");
  const std::int64_t n = x.dim(0);
  PELICAN_CHECK(n > 0, "empty evaluation set");
  double loss_sum = 0.0;
  std::int64_t correct = 0;
  ScoreSlices(network, x, batch_size,
              [&](std::int64_t start, const Tensor& logits) {
                const std::int64_t len = logits.dim(0);
                const auto labels = y.subspan(static_cast<std::size_t>(start),
                                              static_cast<std::size_t>(len));
                loss_sum += static_cast<double>(
                                nn::SoftmaxCrossEntropyLoss(logits, labels)) *
                            static_cast<double>(len);
                for (std::int64_t i = 0; i < len; ++i) {
                  if (logits.ArgMaxRow(i) ==
                      labels[static_cast<std::size_t>(i)]) {
                    ++correct;
                  }
                }
              });
  Trainer::Evaluation eval;
  eval.loss = static_cast<float>(loss_sum / static_cast<double>(n));
  eval.accuracy = static_cast<float>(correct) / static_cast<float>(n);
  return eval;
}

std::vector<int> Trainer::Predict(const Tensor& x) const {
  return core::Predict(*network_, x, config_.batch_size);
}

Tensor Trainer::PredictProbabilities(const Tensor& x) const {
  return core::PredictProbabilities(*network_, x, config_.batch_size);
}

Trainer::Evaluation Trainer::Evaluate(const Tensor& x,
                                      std::span<const int> y) const {
  return core::Evaluate(*network_, x, y, config_.batch_size);
}

}  // namespace pelican::core
