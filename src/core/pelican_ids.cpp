#include "core/pelican_ids.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "common/crc32.h"
#include "common/file_io.h"
#include "quant/quant_io.h"

namespace pelican::core {

namespace {

// `.pre` scaler sidecar, v1: magic + version header and a CRC32 footer
// (same discipline as the PLCN v3 weight file). The original sidecar
// was headerless raw bytes — a file truncated at a float boundary
// loaded silently — so Load keeps a fallback parse for that legacy
// layout but validates the statistics either way.
constexpr char kPreMagic[4] = {'P', 'P', 'R', 'E'};
constexpr std::uint32_t kPreVersion = 1;
constexpr std::size_t kPreFooterSize = sizeof(std::uint32_t);

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

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

void PelicanIds::BuildNetwork() {
  models::NetworkConfig net;
  net.features = encoder_.EncodedWidth();
  net.n_classes = static_cast<std::int64_t>(schema_.LabelCount());
  net.n_blocks = config_.n_blocks;
  net.residual = config_.residual;
  net.channels = config_.channels;
  Rng rng(config_.train.seed ^ 0x1d5c0ffeeULL);
  network_ = models::BuildNetwork(net, rng);
}

TrainHistory PelicanIds::Train(const data::RawDataset& train_set,
                               const data::RawDataset* test_set) {
  PELICAN_CHECK(!train_set.Empty(), "empty training set");
  Tensor x = encoder_.Transform(train_set);
  scaler_.Fit(x);
  scaler_.Transform(x);

  BuildNetwork();
  trainer_ = std::make_unique<Trainer>(*network_, config_.train);

  TrainHistory history;
  if (test_set != nullptr) {
    Tensor x_test = encoder_.Transform(*test_set);
    scaler_.Transform(x_test);
    history =
        trainer_->Fit(x, train_set.Labels(), &x_test, test_set->Labels());
  } else {
    history = trainer_->Fit(x, train_set.Labels());
  }
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
  const Tensor probs = trainer_->PredictProbabilities(x);
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
  return trainer_->Predict(EncodeAndScale(records));
}

std::vector<PelicanIds::Verdict> PelicanIds::InspectAll(
    const data::RawDataset& records) const {
  PELICAN_CHECK(Trained(), "InspectAll before Train/Load");
  std::vector<Verdict> verdicts;
  if (records.Size() == 0) return verdicts;
  const Tensor probs = trainer_->PredictProbabilities(EncodeAndScale(records));
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
  return trainer_->Evaluate(EncodeAndScale(records), records.Labels());
}

void PelicanIds::Save(const std::string& path) const {
  PELICAN_CHECK(Trained(), "Save before Train");
  SaveWeights(*network_, path);

  // Preprocessing statistics ride in a versioned, CRC-footered sidecar
  // written atomically — same durability discipline as the weights.
  std::ostringstream out(std::ios::binary);
  out.write(kPreMagic, sizeof(kPreMagic));
  WritePod(out, kPreVersion);
  const auto d = static_cast<std::uint64_t>(scaler_.mean().size());
  WritePod(out, d);
  out.write(reinterpret_cast<const char*>(scaler_.mean().data().data()),
            static_cast<std::streamsize>(d * sizeof(float)));
  out.write(reinterpret_cast<const char*>(scaler_.stddev().data().data()),
            static_cast<std::streamsize>(d * sizeof(float)));
  PELICAN_CHECK(out.good(), "scaler serialization failed");
  std::string bytes = std::move(out).str();
  const std::uint32_t crc = Crc32Of(bytes);
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  AtomicWriteFile(path + ".pre", bytes);

  if (HasQuantizedParameters()) {
    std::vector<quant::LinearQuant*> ops;
    network_->CollectQuantOps(ops);
    std::vector<const quant::LinearQuant*> const_ops(ops.begin(), ops.end());
    quant::SaveQuantSidecar(path + ".quant", const_ops);
  }
}

void PelicanIds::Load(const std::string& path) {
  BuildNetwork();
  LoadWeights(*network_, path);

  const std::string pre_path = path + ".pre";
  const std::string bytes = ReadFileBytes(pre_path);
  const auto width = static_cast<std::uint64_t>(encoder_.EncodedWidth());
  std::uint64_t d = 0;
  Tensor mean({encoder_.EncodedWidth()});
  Tensor stddev({encoder_.EncodedWidth()});
  const std::size_t stats_bytes = 2 * width * sizeof(float);
  const bool versioned =
      bytes.size() >= sizeof(kPreMagic) &&
      std::memcmp(bytes.data(), kPreMagic, sizeof(kPreMagic)) == 0;
  if (versioned) {
    constexpr std::size_t kHeader =
        sizeof(kPreMagic) + sizeof(std::uint32_t) + sizeof(std::uint64_t);
    PELICAN_CHECK(bytes.size() >= kHeader + kPreFooterSize,
                  "truncated scaler sidecar: " + pre_path);
    std::uint32_t stored = 0;
    std::memcpy(&stored, bytes.data() + bytes.size() - kPreFooterSize,
                kPreFooterSize);
    const std::uint32_t actual =
        Crc32Of(bytes.data(), bytes.size() - kPreFooterSize);
    PELICAN_CHECK(stored == actual,
                  "scaler sidecar checksum mismatch (corrupt or "
                  "truncated): " + pre_path);
    std::uint32_t version = 0;
    std::memcpy(&version, bytes.data() + sizeof(kPreMagic), sizeof(version));
    PELICAN_CHECK(version == kPreVersion,
                  "unsupported scaler sidecar version");
    std::memcpy(&d, bytes.data() + sizeof(kPreMagic) + sizeof(version),
                sizeof(d));
    PELICAN_CHECK(d == width, "scaler width mismatch");
    PELICAN_CHECK(bytes.size() == kHeader + stats_bytes + kPreFooterSize,
                  "scaler sidecar size mismatch: " + pre_path);
    std::memcpy(mean.data().data(), bytes.data() + kHeader,
                width * sizeof(float));
    std::memcpy(stddev.data().data(),
                bytes.data() + kHeader + width * sizeof(float),
                width * sizeof(float));
  } else {
    // Legacy headerless layout: u64 width, then mean and stddev floats
    // back to back. No checksum — size and statistics validation are
    // the only guards.
    PELICAN_CHECK(bytes.size() >= sizeof(std::uint64_t),
                  "truncated scaler file: " + pre_path);
    std::memcpy(&d, bytes.data(), sizeof(d));
    PELICAN_CHECK(d == width, "scaler width mismatch");
    PELICAN_CHECK(bytes.size() == sizeof(std::uint64_t) + stats_bytes,
                  "truncated scaler file: " + pre_path);
    std::memcpy(mean.data().data(), bytes.data() + sizeof(std::uint64_t),
                width * sizeof(float));
    std::memcpy(stddev.data().data(),
                bytes.data() + sizeof(std::uint64_t) + width * sizeof(float),
                width * sizeof(float));
  }
  ValidateScalerStats(mean, stddev, pre_path);
  scaler_.SetStatistics(std::move(mean), std::move(stddev));

  trainer_ = std::make_unique<Trainer>(*network_, config_.train);

  const std::string quant_path = path + ".quant";
  if (std::filesystem::exists(quant_path)) {
    std::vector<quant::LinearQuant*> ops;
    network_->CollectQuantOps(ops);
    quant::LoadQuantSidecar(quant_path, ops);
  }
}

}  // namespace pelican::core
