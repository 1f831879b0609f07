#include "core/checkpoint.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string_view>

#include "common/check.h"
#include "common/file_io.h"
#include "common/logging.h"
#include "core/model_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pelican::core {

namespace {

constexpr std::string_view kMagic = "PCKP";
constexpr std::uint32_t kVersion = 1;
// Bytes of one history entry: i32 epoch | f32 train_loss |
// f32 train_accuracy | u8 has_test | f32 test_loss | f32 test_accuracy |
// i32 recoveries.
constexpr std::size_t kEpochStatsSize =
    2 * sizeof(std::int32_t) + 4 * sizeof(float) + sizeof(std::uint8_t);

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
  ByteWriter out(kMagic, kVersion);
  out.Put(static_cast<std::int32_t>(state.epoch));
  for (std::uint64_t s : state.rng.s) out.Put(s);
  out.Put(state.rng.cached_normal);
  out.Put(static_cast<std::uint8_t>(state.rng.has_cached_normal));
  out.Put(state.lr_scale);
  out.Put(state.best_test_loss);
  out.Put(static_cast<std::int32_t>(state.epochs_without_improvement));

  out.Put(static_cast<std::uint64_t>(state.history.size()));
  for (const auto& e : state.history) {
    out.Put(static_cast<std::int32_t>(e.epoch));
    out.Put(e.train_loss);
    out.Put(e.train_accuracy);
    out.Put(static_cast<std::uint8_t>(e.test_loss.has_value()));
    out.Put(e.test_loss.value_or(0.0F));
    out.Put(e.test_accuracy.value_or(0.0F));
    out.Put(static_cast<std::int32_t>(e.recoveries));
  }

  const auto params = network.Params();
  const auto buffers = network.Buffers();
  out.Put(static_cast<std::uint64_t>(params.size()));
  out.Put(static_cast<std::uint64_t>(buffers.size()));
  for (const auto& p : params) io::WriteTensorEntry(out, p.name, *p.value);
  for (const auto& b : buffers) io::WriteTensorEntry(out, b.name, *b.value);

  out.PutString(optimizer.Name());
  const auto state_tensors = optimizer.StateTensors();
  out.Put(static_cast<std::uint64_t>(state_tensors.size()));
  for (const Tensor* t : state_tensors) io::WriteTensorBody(out, *t);
  const auto scalars = optimizer.ScalarState();
  out.Put(static_cast<std::uint64_t>(scalars.size()));
  for (std::int64_t s : scalars) out.Put(s);

  std::string path = config_.dir + "/" + CheckpointName(state.epoch);
  const std::size_t size = out.Seal(path);
  if (obs::MetricsEnabled()) {
    static obs::Counter writes = obs::Registry::Global().GetCounter(
        "pelican_checkpoint_writes_total", "Checkpoint snapshots written");
    static obs::Counter bytes_written = obs::Registry::Global().GetCounter(
        "pelican_checkpoint_bytes_total", "Checkpoint bytes written");
    writes.Inc();
    bytes_written.Inc(size);
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
  // The CRC is checked before any field is trusted. Everything is then
  // parsed and checked into staging; only a file that passes every
  // check writes to the network, the optimizer and *state, so a
  // rejected checkpoint leaves all three as they were.
  Envelope file = OpenSealed(bytes, kMagic, "checkpoint " + path);
  ByteReader& in = file.payload;
  PELICAN_CHECK(file.version == kVersion, "unsupported checkpoint version");

  CheckpointState staged;
  staged.epoch = in.Get<std::int32_t>();
  for (auto& s : staged.rng.s) s = in.Get<std::uint64_t>();
  staged.rng.cached_normal = in.Get<double>();
  staged.rng.has_cached_normal = in.Get<std::uint8_t>() != 0;
  staged.lr_scale = in.Get<float>();
  staged.best_test_loss = in.Get<float>();
  staged.epochs_without_improvement = in.Get<std::int32_t>();

  staged.history.resize(
      in.CheckCount(in.Get<std::uint64_t>(), kEpochStatsSize));
  for (EpochStats& e : staged.history) {
    e.epoch = in.Get<std::int32_t>();
    e.train_loss = in.Get<float>();
    e.train_accuracy = in.Get<float>();
    const bool has_test = in.Get<std::uint8_t>() != 0;
    const auto test_loss = in.Get<float>();
    const auto test_accuracy = in.Get<float>();
    if (has_test) {
      e.test_loss = test_loss;
      e.test_accuracy = test_accuracy;
    }
    e.recoveries = in.Get<std::int32_t>();
  }

  // Model tensors: names and shapes are checked by ReadTensorEntry,
  // finiteness as LoadWeights checks it.
  auto params = network.Params();
  auto buffers = network.Buffers();
  const auto param_count = in.Get<std::uint64_t>();
  const auto buffer_count = in.Get<std::uint64_t>();
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

  const std::string_view opt_name = in.GetString();
  PELICAN_CHECK(opt_name == optimizer.Name(),
                "checkpoint optimizer mismatch: file has " +
                    std::string(opt_name) + ", trainer uses " +
                    optimizer.Name());
  auto state_tensors = optimizer.StateTensors();
  const auto state_count = in.Get<std::uint64_t>();
  PELICAN_CHECK(state_count == state_tensors.size(),
                "optimizer state tensor count mismatch");
  std::vector<Tensor> opt_state;
  opt_state.reserve(state_tensors.size());
  for (const Tensor* t : state_tensors) {
    io::ReadTensorBody(in, "optimizer state",
                       opt_state.emplace_back(t->shape()));
  }
  const auto scalar_count = in.Get<std::uint64_t>();
  PELICAN_CHECK(scalar_count == optimizer.ScalarState().size(),
                "optimizer scalar state count mismatch");
  std::vector<std::int64_t> scalars(scalar_count);
  for (auto& s : scalars) s = in.Get<std::int64_t>();

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
