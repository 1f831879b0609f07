#include "core/pelican_ids.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string_view>
#include <utility>

#include "common/file_io.h"
#include "quant/quant_io.h"

namespace pelican::core {

namespace {

// `.pre` scaler sidecar, v1, in the sealed envelope of common/file_io.h
// (magic "PPRE"); payload: u64 width | f32 mean[width] |
// f32 stddev[width]. The original sidecar was that payload alone,
// headerless — a file truncated at a float boundary loaded silently —
// so Load still reads that legacy layout, through the same reader
// without the seal, and validates the size and statistics either way.
constexpr std::string_view kPreMagic = "PPRE";
constexpr std::uint32_t kPreVersion = 1;

// Fit guarantees finite statistics with stddev = √variance ≥ 0 (zero
// for constant columns, which Transform maps to 0 via its epsilon
// guard). Anything outside that envelope would flow straight into
// serve-time features as inf/NaN, so reject it at load.
void ValidateScalerStats(const Tensor& mean, const Tensor& stddev,
                         const std::string& path) {
  for (std::int64_t j = 0; j < mean.size(); ++j) {
    PELICAN_CHECK(std::isfinite(mean[j]),
                  "non-finite scaler mean in " + path);
    PELICAN_CHECK(std::isfinite(stddev[j]) && stddev[j] >= 0.0F,
                  "invalid scaler stddev (negative or non-finite) in " +
                      path);
  }
}

// Reads and checks a `.pre` sidecar of `width` columns (sealed, or the
// legacy headerless payload); returns (mean, stddev).
std::pair<Tensor, Tensor> ReadScalerStats(const std::string& pre_path,
                                          std::int64_t width) {
  const std::string bytes = ReadFileBytes(pre_path);
  const std::string what = "scaler sidecar " + pre_path;
  // A headerless legacy file is a v1 payload without the envelope.
  const bool sealed = std::string_view(bytes).starts_with(kPreMagic);
  Envelope file = sealed ? OpenSealed(bytes, kPreMagic, what)
                         : Envelope{kPreVersion, ByteReader(bytes, what)};
  ByteReader& in = file.payload;
  PELICAN_CHECK(file.version == kPreVersion,
                "unsupported scaler sidecar version");
  PELICAN_CHECK(in.Get<std::uint64_t>() == static_cast<std::uint64_t>(width),
                "scaler width mismatch");
  const std::size_t stats_bytes = 2 * width * sizeof(float);
  PELICAN_CHECK(in.remaining() == stats_bytes,
                "scaler sidecar size mismatch: " + pre_path);
  Tensor mean({width});
  Tensor stddev({width});
  in.GetBytes(mean.data().data(), stats_bytes / 2);
  in.GetBytes(stddev.data().data(), stats_bytes / 2);
  ValidateScalerStats(mean, stddev, pre_path);
  return {std::move(mean), std::move(stddev)};
}

}  // namespace

PelicanIds::PelicanIds(data::Schema schema, IdsConfig config)
    : schema_(std::move(schema)),
      config_(std::move(config)),
      encoder_(schema_) {
  PELICAN_CHECK(config_.normal_label >= 0 &&
                    static_cast<std::size_t>(config_.normal_label) <
                        schema_.LabelCount(),
                "normal_label out of range");
}

std::unique_ptr<nn::Sequential> PelicanIds::MakeNetwork(nn::Init init) const {
  models::NetworkConfig net;
  net.features = encoder_.EncodedWidth();
  net.n_classes = static_cast<std::int64_t>(schema_.LabelCount());
  net.n_blocks = config_.n_blocks;
  net.residual = config_.residual;
  net.channels = config_.channels;
  return models::BuildNetwork(net, init);
}

TrainHistory PelicanIds::Train(const data::RawDataset& train_set,
                               const data::RawDataset* test_set) {
  PELICAN_CHECK(!train_set.Empty(), "empty training set");
  Tensor x = encoder_.Transform(train_set);
  scaler_.Fit(x);
  scaler_.Transform(x);

  Rng rng(config_.train.seed ^ 0x1d5c0ffeeULL);
  std::unique_ptr<nn::Sequential> network = MakeNetwork(rng);

  // The trainer, with the optimizer state it attached, lives for the
  // fit only; the network keeps the gradients it allocated.
  TrainHistory history;
  {
    Trainer trainer(*network, config_.train);
    if (test_set != nullptr) {
      Tensor x_test = encoder_.Transform(*test_set);
      scaler_.Transform(x_test);
      history =
          trainer.Fit(x, train_set.Labels(), &x_test, test_set->Labels());
    } else {
      history = trainer.Fit(x, train_set.Labels());
    }
  }
  network->SetRng(nullptr);  // the trainer's RNG went with it
  network_ = std::move(network);
  // Post-training int8 calibration on a slice of the training set —
  // one fp32 Score only, so the fp32 weights (and therefore the saved
  // model bytes) are unaffected.
  CalibrateQuantized(x);
  return history;
}

void PelicanIds::CalibrateQuantized(const Tensor& x) {
  constexpr std::int64_t kCalibrationRows = 256;
  const std::int64_t n = x.dim(0), d = x.dim(1);
  // Deterministic stride sample: row composition depends only on the
  // dataset size, never on threads or RNG state.
  const std::int64_t stride = std::max<std::int64_t>(1, n / kCalibrationRows);
  const std::int64_t rows =
      std::min(kCalibrationRows, (n + stride - 1) / stride);
  Tensor slice({rows, d});
  for (std::int64_t i = 0; i < rows; ++i) {
    const auto src = x.Row(i * stride);
    std::copy(src.begin(), src.end(), slice.Row(i).begin());
  }
  // One fp32 Score with a calibration sink attached records every
  // quantizable op's input; the layers stay const, and the sink is
  // copied into the ops' observers afterwards.
  nn::CalibrationSink sink;
  nn::InferenceContext ctx;
  ctx.set_calibration_sink(&sink);
  (void)network_->Score(slice, ctx);
  std::vector<quant::LinearQuant*> ops;
  network_->CollectQuantOps(ops);
  for (quant::LinearQuant* op : ops) op->observer = sink[op];
  network_->SetQuantMode(quant::Mode::kInt8);  // freeze scales + weights
  network_->SetQuantMode(quant::Mode::kOff);   // back to fp32 default
}

void PelicanIds::Quantize(const data::RawDataset& calibration) {
  PELICAN_CHECK(Trained(), "Quantize before Train/Load");
  if (HasQuantizedParameters()) return;
  PELICAN_CHECK(!calibration.Empty(), "empty calibration set");
  CalibrateQuantized(EncodeAndScale(calibration));
}

bool PelicanIds::HasQuantizedParameters() const {
  if (network_ == nullptr) return false;
  std::vector<quant::LinearQuant*> ops;
  network_->CollectQuantOps(ops);
  if (ops.empty()) return false;
  return std::all_of(ops.begin(), ops.end(),
                     [](const quant::LinearQuant* op) { return op->Ready(); });
}

void PelicanIds::EnableQuantized(bool on) {
  PELICAN_CHECK(Trained(), "EnableQuantized before Train/Load");
  if (on) {
    PELICAN_CHECK(HasQuantizedParameters(),
                  "model has no quantized parameters (retrain, or call "
                  "Quantize with calibration records)");
    network_->SetQuantMode(quant::Mode::kInt8);
  } else {
    network_->SetQuantMode(quant::Mode::kOff);
  }
  quantized_ = on;
}

Tensor PelicanIds::EncodeAndScale(const data::RawDataset& records) const {
  Tensor x = encoder_.Transform(records);
  scaler_.Transform(x);
  return x;
}

PelicanIds::Verdict PelicanIds::Inspect(
    std::span<const double> raw_row,
    std::vector<float>* scaled_features) const {
  PELICAN_CHECK(Trained(), "Inspect before Train/Load");
  Tensor x({1, encoder_.EncodedWidth()});
  encoder_.EncodeRow(raw_row, x.Row(0));
  scaler_.Transform(x);
  if (scaled_features != nullptr) {
    const auto row = x.Row(0);
    scaled_features->assign(row.begin(), row.end());
  }
  const Tensor probs =
      PredictProbabilities(*network_, x, config_.train.batch_size);
  const auto label = static_cast<int>(probs.ArgMaxRow(0));
  Verdict verdict;
  verdict.label = label;
  verdict.class_name = schema_.LabelName(static_cast<std::size_t>(label));
  verdict.is_attack = label != config_.normal_label;
  verdict.confidence = probs.At(0, label);
  return verdict;
}

std::vector<int> PelicanIds::Classify(const data::RawDataset& records) const {
  PELICAN_CHECK(Trained(), "Classify before Train/Load");
  return Predict(*network_, EncodeAndScale(records),
                 config_.train.batch_size);
}

std::vector<PelicanIds::Verdict> PelicanIds::InspectAll(
    const data::RawDataset& records) const {
  PELICAN_CHECK(Trained(), "InspectAll before Train/Load");
  std::vector<Verdict> verdicts;
  if (records.Size() == 0) return verdicts;
  const Tensor probs = PredictProbabilities(
      *network_, EncodeAndScale(records), config_.train.batch_size);
  verdicts.reserve(static_cast<std::size_t>(probs.dim(0)));
  for (std::int64_t i = 0; i < probs.dim(0); ++i) {
    const auto label = static_cast<int>(probs.ArgMaxRow(i));
    Verdict verdict;
    verdict.label = label;
    verdict.class_name = schema_.LabelName(static_cast<std::size_t>(label));
    verdict.is_attack = label != config_.normal_label;
    verdict.confidence = probs.At(i, label);
    verdicts.push_back(std::move(verdict));
  }
  return verdicts;
}

Trainer::Evaluation PelicanIds::Evaluate(
    const data::RawDataset& records) const {
  PELICAN_CHECK(Trained(), "Evaluate before Train/Load");
  return core::Evaluate(*network_, EncodeAndScale(records), records.Labels(),
                        config_.train.batch_size);
}

void PelicanIds::Save(const std::string& path) const {
  PELICAN_CHECK(Trained(), "Save before Train");
  SaveWeights(*network_, path);

  // Preprocessing statistics ride in a versioned, CRC-footered sidecar
  // written atomically — same durability discipline as the weights.
  const auto d = static_cast<std::uint64_t>(scaler_.mean().size());
  ByteWriter out(kPreMagic, kPreVersion);
  out.Put(d);
  out.PutBytes(scaler_.mean().data().data(), d * sizeof(float));
  out.PutBytes(scaler_.stddev().data().data(), d * sizeof(float));
  out.Seal(path + ".pre");

  if (HasQuantizedParameters()) {
    std::vector<quant::LinearQuant*> ops;
    network_->CollectQuantOps(ops);
    std::vector<const quant::LinearQuant*> const_ops(ops.begin(), ops.end());
    quant::SaveQuantSidecar(path + ".quant", const_ops);
  }
}

// Staged like Checkpointer::LoadFile: the network, the scaler
// statistics and the quantized parameters are built and checked in
// locals, and the detector takes them only once all three files have
// passed. A failed Load (a missing, corrupt or mismatched weight file,
// `.pre` or `.quant`) so leaves the detector as it was: untrained, or
// answering from the model it had.
//
// The network is built without drawing a weight: LoadWeights fills
// every parameter and buffer, each checked for name, shape and
// finiteness under the file's CRC, or throws before the commit below.
void PelicanIds::Load(const std::string& path) {
  std::unique_ptr<nn::Sequential> network = MakeNetwork(nn::Init::kNoDraw);
  LoadWeights(*network, path);
  auto [mean, stddev] =
      ReadScalerStats(path + ".pre", encoder_.EncodedWidth());
  const std::string quant_path = path + ".quant";
  if (std::filesystem::exists(quant_path)) {
    std::vector<quant::LinearQuant*> ops;
    network->CollectQuantOps(ops);
    quant::LoadQuantSidecar(quant_path, ops);
  }

  // Commit. The new network scores in fp32 until EnableQuantized(true).
  scaler_.SetStatistics(std::move(mean), std::move(stddev));
  network_ = std::move(network);
  quantized_ = false;
}

}  // namespace pelican::core
