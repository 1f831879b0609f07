#include "core/checkpoint.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "common/check.h"
#include "common/crc32.h"
#include "common/file_io.h"
#include "common/logging.h"
#include "core/model_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pelican::core {

namespace {

constexpr char kMagic[4] = {'P', 'C', 'K', 'P'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kFooterSize = sizeof(std::uint32_t);

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T ReadPod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  PELICAN_CHECK(in.good(), "truncated checkpoint");
  return value;
}

std::string CheckpointName(int epoch) {
  char name[32];
  std::snprintf(name, sizeof(name), "checkpoint-%06d.ckpt", epoch);
  return name;
}

// Parses the epoch out of checkpoint-<epoch>.ckpt; nullopt otherwise.
std::optional<int> EpochOf(const std::string& filename) {
  constexpr std::string_view kPrefix = "checkpoint-";
  constexpr std::string_view kSuffix = ".ckpt";
  if (filename.size() <= kPrefix.size() + kSuffix.size()) return std::nullopt;
  if (filename.rfind(kPrefix, 0) != 0) return std::nullopt;
  if (!filename.ends_with(kSuffix)) return std::nullopt;
  const auto digits = filename.substr(
      kPrefix.size(), filename.size() - kPrefix.size() - kSuffix.size());
  int epoch = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    epoch = epoch * 10 + (c - '0');
  }
  return epoch;
}

// Unnamed tensor codec for optimizer state (shapes are implied by the
// attached parameters; verified on load).
void WriteStateTensor(std::ostream& out, const Tensor& value) {
  WritePod(out, static_cast<std::uint32_t>(value.rank()));
  for (std::int64_t d : value.shape()) WritePod(out, d);
  out.write(reinterpret_cast<const char*>(value.data().data()),
            static_cast<std::streamsize>(value.size() * sizeof(float)));
}

void ReadStateTensor(std::istream& in, Tensor& value) {
  const auto rank = ReadPod<std::uint32_t>(in);
  PELICAN_CHECK(rank == static_cast<std::uint32_t>(value.rank()),
                "optimizer state rank mismatch");
  Tensor::Shape shape(rank);
  for (auto& d : shape) d = ReadPod<std::int64_t>(in);
  PELICAN_CHECK(shape == value.shape(), "optimizer state shape mismatch");
  in.read(reinterpret_cast<char*>(value.data().data()),
          static_cast<std::streamsize>(value.size() * sizeof(float)));
  PELICAN_CHECK(in.good(), "truncated optimizer state");
}

}  // namespace

Checkpointer::Checkpointer(CheckpointConfig config)
    : config_(std::move(config)) {
  PELICAN_CHECK(!config_.dir.empty(), "checkpoint directory must be set");
  PELICAN_CHECK(config_.every >= 1, "checkpoint_every must be >= 1");
  PELICAN_CHECK(config_.keep >= 0, "checkpoint_keep must be >= 0");
  std::error_code ec;
  std::filesystem::create_directories(config_.dir, ec);
  PELICAN_CHECK(!ec, "cannot create checkpoint directory " + config_.dir +
                         ": " + ec.message());
}

std::string Checkpointer::Save(nn::Sequential& network,
                               optim::Optimizer& optimizer,
                               const CheckpointState& state) const {
  obs::TraceSpan span("checkpoint_save", "io");
  std::ostringstream out(std::ios::binary);
  out.write(kMagic, sizeof(kMagic));
  WritePod(out, kVersion);

  WritePod(out, static_cast<std::int32_t>(state.epoch));
  for (std::uint64_t s : state.rng.s) WritePod(out, s);
  WritePod(out, state.rng.cached_normal);
  WritePod(out, static_cast<std::uint8_t>(state.rng.has_cached_normal));
  WritePod(out, state.lr_scale);
  WritePod(out, state.best_test_loss);
  WritePod(out, static_cast<std::int32_t>(state.epochs_without_improvement));

  WritePod(out, static_cast<std::uint64_t>(state.history.size()));
  for (const auto& e : state.history) {
    WritePod(out, static_cast<std::int32_t>(e.epoch));
    WritePod(out, e.train_loss);
    WritePod(out, e.train_accuracy);
    WritePod(out, static_cast<std::uint8_t>(e.test_loss.has_value()));
    WritePod(out, e.test_loss.value_or(0.0F));
    WritePod(out, e.test_accuracy.value_or(0.0F));
    WritePod(out, static_cast<std::int32_t>(e.recoveries));
  }

  const auto params = network.Params();
  const auto buffers = network.Buffers();
  WritePod(out, static_cast<std::uint64_t>(params.size()));
  WritePod(out, static_cast<std::uint64_t>(buffers.size()));
  for (const auto& p : params) io::WriteTensorEntry(out, p.name, *p.value);
  for (const auto& b : buffers) io::WriteTensorEntry(out, b.name, *b.value);

  const std::string opt_name = optimizer.Name();
  WritePod(out, static_cast<std::uint32_t>(opt_name.size()));
  out.write(opt_name.data(),
            static_cast<std::streamsize>(opt_name.size()));
  const auto state_tensors = optimizer.StateTensors();
  WritePod(out, static_cast<std::uint64_t>(state_tensors.size()));
  for (const Tensor* t : state_tensors) WriteStateTensor(out, *t);
  const auto scalars = optimizer.ScalarState();
  WritePod(out, static_cast<std::uint64_t>(scalars.size()));
  for (std::int64_t s : scalars) WritePod(out, s);

  PELICAN_CHECK(out.good(), "checkpoint serialization failed");
  std::string bytes = std::move(out).str();
  const std::uint32_t crc = Crc32Of(bytes);
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));

  std::string path = config_.dir + "/" + CheckpointName(state.epoch);
  AtomicWriteFile(path, bytes);
  if (obs::MetricsEnabled()) {
    static obs::Counter writes = obs::Registry::Global().GetCounter(
        "pelican_checkpoint_writes_total", "Checkpoint snapshots written");
    static obs::Counter bytes_written = obs::Registry::Global().GetCounter(
        "pelican_checkpoint_bytes_total", "Checkpoint bytes written");
    writes.Inc();
    bytes_written.Inc(bytes.size());
  }

  if (config_.keep > 0) {
    auto existing = List();
    while (existing.size() > static_cast<std::size_t>(config_.keep)) {
      std::error_code ec;
      std::filesystem::remove(existing.front(), ec);
      existing.erase(existing.begin());
    }
  }
  return path;
}

std::vector<std::string> Checkpointer::List() const {
  std::vector<std::pair<int, std::string>> found;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(config_.dir, ec)) {
    const auto epoch = EpochOf(entry.path().filename().string());
    if (epoch) found.emplace_back(*epoch, entry.path().string());
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [epoch, path] : found) paths.push_back(std::move(path));
  return paths;
}

bool Checkpointer::LoadLatest(nn::Sequential& network,
                              optim::Optimizer& optimizer,
                              CheckpointState* state) const {
  auto paths = List();
  for (auto it = paths.rbegin(); it != paths.rend(); ++it) {
    try {
      LoadFile(*it, network, optimizer, state);
      return true;
    } catch (const CheckError& e) {
      PELICAN_LOG(Warn) << "skipping unusable checkpoint " << *it << ": "
                           << e.what();
    }
  }
  return false;
}

void Checkpointer::LoadFile(const std::string& path, nn::Sequential& network,
                            optim::Optimizer& optimizer,
                            CheckpointState* state) {
  PELICAN_CHECK(state != nullptr, "null CheckpointState");
  const std::string bytes = ReadFileBytes(path);
  PELICAN_CHECK(
      bytes.size() >= sizeof(kMagic) + sizeof(std::uint32_t) + kFooterSize,
      "not a Pelican checkpoint (too short): " + path);
  PELICAN_CHECK(
      std::equal(bytes.begin(), bytes.begin() + sizeof(kMagic), kMagic),
      "not a Pelican checkpoint: " + path);

  // CRC gate before any field is trusted.
  std::uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + bytes.size() - kFooterSize,
              kFooterSize);
  PELICAN_CHECK(stored == Crc32Of(bytes.data(), bytes.size() - kFooterSize),
                "checkpoint checksum mismatch (corrupt or truncated): " +
                    path);

  // Everything is parsed and checked into staging first; only a file
  // that passes every check writes to the network, the optimizer and
  // *state, so a rejected checkpoint leaves all three as they were.
  std::istringstream in(bytes, std::ios::binary);
  in.ignore(sizeof(kMagic));
  const auto version = ReadPod<std::uint32_t>(in);
  PELICAN_CHECK(version == kVersion, "unsupported checkpoint version");

  CheckpointState staged;
  staged.epoch = ReadPod<std::int32_t>(in);
  for (auto& s : staged.rng.s) s = ReadPod<std::uint64_t>(in);
  staged.rng.cached_normal = ReadPod<double>(in);
  staged.rng.has_cached_normal = ReadPod<std::uint8_t>(in) != 0;
  staged.lr_scale = ReadPod<float>(in);
  staged.best_test_loss = ReadPod<float>(in);
  staged.epochs_without_improvement = ReadPod<std::int32_t>(in);

  const auto history_size = ReadPod<std::uint64_t>(in);
  for (std::uint64_t i = 0; i < history_size; ++i) {
    EpochStats e;
    e.epoch = ReadPod<std::int32_t>(in);
    e.train_loss = ReadPod<float>(in);
    e.train_accuracy = ReadPod<float>(in);
    const bool has_test = ReadPod<std::uint8_t>(in) != 0;
    const float test_loss = ReadPod<float>(in);
    const float test_accuracy = ReadPod<float>(in);
    if (has_test) {
      e.test_loss = test_loss;
      e.test_accuracy = test_accuracy;
    }
    e.recoveries = ReadPod<std::int32_t>(in);
    staged.history.push_back(e);
  }

  // Model tensors: names and shapes are checked by ReadTensorEntry,
  // finiteness as LoadWeights checks it.
  auto params = network.Params();
  auto buffers = network.Buffers();
  const auto param_count = ReadPod<std::uint64_t>(in);
  const auto buffer_count = ReadPod<std::uint64_t>(in);
  PELICAN_CHECK(param_count == params.size() &&
                    buffer_count == buffers.size(),
                "checkpoint/network architecture mismatch: " + path);
  std::vector<Tensor*> live;
  std::vector<Tensor> model;
  live.reserve(params.size() + buffers.size());
  model.reserve(params.size() + buffers.size());
  const auto stage_entry = [&](const std::string& name, Tensor* value) {
    Tensor& t = model.emplace_back(value->shape());
    io::ReadTensorEntry(in, name, t);
    io::CheckFinite(name, live.size(), t, path);
    live.push_back(value);
  };
  for (const auto& p : params) stage_entry(p.name, p.value);
  for (const auto& b : buffers) stage_entry(b.name, b.value);

  const auto name_len = ReadPod<std::uint32_t>(in);
  std::string opt_name(name_len, '\0');
  in.read(opt_name.data(), name_len);
  PELICAN_CHECK(in.good() && opt_name == optimizer.Name(),
                "checkpoint optimizer mismatch: file has " + opt_name +
                    ", trainer uses " + optimizer.Name());
  auto state_tensors = optimizer.StateTensors();
  const auto state_count = ReadPod<std::uint64_t>(in);
  PELICAN_CHECK(state_count == state_tensors.size(),
                "optimizer state tensor count mismatch");
  std::vector<Tensor> opt_state;
  opt_state.reserve(state_tensors.size());
  for (const Tensor* t : state_tensors) {
    ReadStateTensor(in, opt_state.emplace_back(t->shape()));
  }
  const auto scalar_count = ReadPod<std::uint64_t>(in);
  PELICAN_CHECK(scalar_count == optimizer.ScalarState().size(),
                "optimizer scalar state count mismatch");
  std::vector<std::int64_t> scalars(scalar_count);
  for (auto& s : scalars) s = ReadPod<std::int64_t>(in);

  // Commit. Copies keep each live tensor's storage.
  for (std::size_t i = 0; i < live.size(); ++i) {
    std::copy_n(model[i].data().data(), model[i].size(),
                live[i]->data().data());
  }
  for (std::size_t i = 0; i < state_tensors.size(); ++i) {
    std::copy_n(opt_state[i].data().data(), opt_state[i].size(),
                state_tensors[i]->data().data());
  }
  optimizer.SetScalarState(scalars);
  *state = std::move(staged);
}

}  // namespace pelican::core
