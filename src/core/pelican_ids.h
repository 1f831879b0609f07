// High-level intrusion-detection API — the library façade a downstream
// user consumes (Fig. 1's NIDS box):
//
//   auto ids = PelicanIds(data::NslKddSchema(), {});
//   ids.Train(train_records);
//   auto verdict = ids.Inspect(record);
//   if (verdict.is_attack) alert(verdict.class_name);
//
// Owns the whole pipeline: one-hot encoder, standard scaler (fitted on
// the training data) and the residual network. Train fits the network
// with a Trainer it drops on return; a detector keeps no training
// state, so a loaded one holds its weights, BatchNorm buffers, int8
// parameters and scaler statistics, and no gradient or optimizer state.
#pragma once

#include <optional>

#include "core/model_io.h"
#include "core/trainer.h"
#include "data/data.h"
#include "models/pelican.h"

namespace pelican::core {

struct IdsConfig {
  int n_blocks = 10;            // Residual-41 (= Pelican) by default
  bool residual = true;
  std::int64_t channels = 0;    // 0 = encoded width (paper-faithful)
  int normal_label = 0;         // class considered benign
  TrainConfig train;
};

class PelicanIds {
 public:
  PelicanIds(data::Schema schema, IdsConfig config);

  // Trains end-to-end on raw records (encodes + fits the scaler
  // internally). Optional held-out set yields per-epoch test stats.
  TrainHistory Train(const data::RawDataset& train_set,
                     const data::RawDataset* test_set = nullptr);

  // True once a network exists (from Train or Load).
  [[nodiscard]] bool Trained() const { return network_ != nullptr; }

  struct Verdict {
    int label = 0;
    std::string class_name;
    bool is_attack = false;
    float confidence = 0.0F;  // softmax probability of the chosen class
  };

  // The one scoring body, behind Inspect, InspectAll, StreamDetector
  // and the serving data plane: encodes, scales and scores rows of raw
  // cells (row-major, schema().ColumnCount() each) in slices of
  // scoring_batch() rows, one Verdict per row in order. A Verdict is
  // bit-identical whatever rows surround it (accumulation order is a
  // function of shapes only). A non-null `scaled` receives the scaled
  // rows the network saw, (rows, EncodedWidth()), for drift monitoring.
  [[nodiscard]] std::vector<Verdict> InspectRows(
      std::span<const double> cells, Tensor* scaled = nullptr) const;

  // InspectRows on one record of exactly schema().ColumnCount() cells.
  [[nodiscard]] Verdict Inspect(std::span<const double> raw_row) const;

  // Batch classification of a whole dataset.
  [[nodiscard]] std::vector<int> Classify(const data::RawDataset& records) const;

  // InspectRows on every record of a dataset.
  [[nodiscard]] std::vector<Verdict> InspectAll(
      const data::RawDataset& records) const;

  // Rows per Score call when scoring (TrainConfig::batch_size).
  [[nodiscard]] std::size_t scoring_batch() const {
    return config_.train.batch_size;
  }

  // Accuracy/loss on a labelled raw dataset.
  [[nodiscard]] Trainer::Evaluation Evaluate(
      const data::RawDataset& records) const;

  // Persists / restores network weights + scaler statistics (and, when
  // present, the int8 parameters as a `.quant` sidecar). Load replaces
  // the model only once every file has passed its checks; on a throw
  // the detector is left as it was. A loaded model scores in fp32
  // until EnableQuantized(true).
  void Save(const std::string& path) const;
  void Load(const std::string& path);

  // Calibrates and freezes int8 inference parameters from `calibration`
  // (raw records in the schema's column layout; labels unused). Train
  // already does this automatically on a slice of the training set; use
  // this to quantize a model loaded from a legacy checkpoint without a
  // `.quant` sidecar. No-op if quantized parameters already exist.
  void Quantize(const data::RawDataset& calibration);

  // True once every quantizable op has frozen int8 parameters (from
  // Train, Quantize, or a loaded sidecar).
  [[nodiscard]] bool HasQuantizedParameters() const;

  // Routes subsequent predictions (Inspect/InspectAll/Classify/
  // Evaluate) through the int8 engine. Training stays fp32 regardless.
  void EnableQuantized(bool on);
  [[nodiscard]] bool quantized() const { return quantized_; }

  [[nodiscard]] const data::Schema& schema() const { return schema_; }
  [[nodiscard]] nn::Sequential& network() { return *network_; }
  [[nodiscard]] int normal_label() const { return config_.normal_label; }

 private:
  [[nodiscard]] Tensor EncodeAndScale(const data::RawDataset& records) const;
  // A network of the configured shape: Train draws its weights from an
  // Rng seeded from the config, Load leaves them zero
  // (nn::Init::kNoDraw) for the weight file to fill.
  [[nodiscard]] std::unique_ptr<nn::Sequential> MakeNetwork(
      nn::Init init) const;
  // Calibration Score over (a stride sample of) the scaled rows, then
  // freeze. Inference only: fp32 weights and the trainer RNG are
  // untouched, so the saved model bytes don't change.
  void CalibrateQuantized(const Tensor& x);

  data::Schema schema_;
  IdsConfig config_;
  data::OneHotEncoder encoder_;
  data::StandardScaler scaler_;
  std::unique_ptr<nn::Sequential> network_;
  bool quantized_ = false;
};

}  // namespace pelican::core
