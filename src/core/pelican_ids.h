// High-level intrusion-detection API — the library façade a downstream
// user consumes (Fig. 1's NIDS box):
//
//   auto ids = PelicanIds(data::NslKddSchema(), {});
//   ids.Train(train_records);
//   auto verdict = ids.Inspect(record);
//   if (verdict.is_attack) alert(verdict.class_name);
//
// Owns the whole pipeline: one-hot encoder, standard scaler (fitted on
// the training data), the residual network, and the trainer.
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

  [[nodiscard]] bool Trained() const { return trainer_ != nullptr; }

  struct Verdict {
    int label = 0;
    std::string class_name;
    bool is_attack = false;
    float confidence = 0.0F;  // softmax probability of the chosen class
  };

  // Classifies one raw record (same column layout as the schema).
  // When `scaled_features` is non-null it receives the encoded +
  // standardized row the network saw (length EncodedWidth()) — the
  // stream-side drift monitor reads its baseline-relative features
  // from here instead of re-encoding.
  [[nodiscard]] Verdict Inspect(
      std::span<const double> raw_row,
      std::vector<float>* scaled_features = nullptr) const;

  // Batch classification of a whole dataset.
  [[nodiscard]] std::vector<int> Classify(const data::RawDataset& records) const;

  // Batch Inspect: one Verdict per record, from a single pass through
  // the GEMM-backed predict path. Per-row results are bit-identical to
  // Inspect on the same row (forward accumulation order is a pure
  // function of shapes, never of batch composition) — the serving data
  // plane relies on this to keep micro-batched verdicts byte-equal to
  // the batch CLI.
  [[nodiscard]] std::vector<Verdict> InspectAll(
      const data::RawDataset& records) const;

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
  std::unique_ptr<Trainer> trainer_;
  bool quantized_ = false;
};

}  // namespace pelican::core
