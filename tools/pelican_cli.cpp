// pelican — command-line NIDS built on the library.
//
//   pelican generate --dataset nsl --records 5000 --out flows.csv
//   pelican train    --dataset unsw --records 3000 --epochs 16 --out model.bin
//   pelican train    --dataset nsl --csv flows.csv --out model.bin
//   pelican train    --dataset nsl --official KDDTrain+.txt --out model.bin
//   pelican train    --dataset nsl --csv flows.csv --out model.bin
//                    --checkpoint-dir ckpt --resume
//   pelican eval     --model model.bin --csv flows.csv
//   pelican classify --model model.bin --csv flows.csv --limit 20
//   pelican info     --model model.bin
//
// Model files carry a .meta sidecar (key=value) recording the
// architecture and source schema so eval/classify can rebuild the
// network without flags.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <string_view>

#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/file_io.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/core.h"
#include "data/data.h"
#include "metrics/metrics.h"
#include "obs/net_util.h"
#include "obs/obs.h"
#include "serve/serve.h"
#include "tensor/kernels.h"

namespace {

using namespace pelican;

// Live introspection server (--serve-port); null when not serving.
// Commands flip readiness and register the /stream payload on it.
obs::IntrospectionServer* g_server = nullptr;

// SIGTERM/SIGINT ask the scoring server (pelican serve) to drain.
volatile std::sig_atomic_t g_drain_requested = 0;

void OnDrainSignal(int) { g_drain_requested = 1; }

// ---- tiny flag parser ----------------------------------------------------

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      PELICAN_CHECK(arg.rfind("--", 0) == 0, "expected --flag, got " + arg);
      arg = arg.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "true";  // boolean flag
      }
    }
  }

  [[nodiscard]] std::string Get(const std::string& name,
                                const std::string& fallback = "") const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] long GetLong(const std::string& name, long fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : std::atol(it->second.c_str());
  }
  [[nodiscard]] double GetDouble(const std::string& name,
                                 double fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }
  [[nodiscard]] bool Has(const std::string& name) const {
    return values_.count(name) > 0;
  }

 private:
  std::map<std::string, std::string> values_;
};

// ---- model metadata sidecar ------------------------------------------------

struct ModelMeta {
  std::string schema;  // "nsl" or "unsw"
  int blocks = 10;
  bool residual = true;
  std::int64_t channels = 24;
};

// One `key=value` line per field, each ending in a newline, written
// atomically like every other model file.
void WriteMeta(const std::string& model_path, const ModelMeta& meta) {
  const std::string text = "schema=" + meta.schema +
                           "\nblocks=" + std::to_string(meta.blocks) +
                           "\nresidual=" + (meta.residual ? "1" : "0") +
                           "\nchannels=" + std::to_string(meta.channels) +
                           "\n";
  AtomicWriteFile(model_path + ".meta", text);
}

// Whole-field decimal integer in [min, max]; false otherwise.
template <typename Int>
bool ParseMetaInt(std::string_view text, Int min, Int max, Int* value) {
  Int parsed{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
  if (ec != std::errc() || ptr != end || parsed < min || parsed > max) {
    return false;
  }
  *value = parsed;
  return true;
}

// Reads what WriteMeta wrote, and nothing else: every line `key=value`
// and newline-terminated (a file cut short loses its last newline or
// its last keys), each of schema, blocks, residual and channels exactly
// once, no other key. Throws CheckError naming the file otherwise.
ModelMeta ReadMeta(const std::string& model_path) {
  const std::string path = model_path + ".meta";
  const std::string text = ReadFileBytes(path);
  const std::string what = "model meta file " + path + ": ";
  PELICAN_CHECK(!text.empty() && text.back() == '\n',
                what + "truncated (no final newline)");
  ModelMeta meta;
  std::set<std::string> seen;
  auto lines = Split(text, '\n');
  lines.pop_back();  // the empty field after the final newline
  for (const std::string& line : lines) {
    const auto eq = line.find('=');
    PELICAN_CHECK(eq != std::string::npos, what + "no '=' in line " + line);
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    PELICAN_CHECK(seen.insert(key).second, what + "duplicate key " + key);
    bool ok = false;
    if (key == "schema") {
      meta.schema = value;
      ok = value == "nsl" || value == "unsw";
    } else if (key == "blocks") {
      ok = ParseMetaInt(value, 1, std::numeric_limits<int>::max(),
                        &meta.blocks);
    } else if (key == "residual") {
      int residual = 0;
      ok = ParseMetaInt(value, 0, 1, &residual);
      meta.residual = residual == 1;
    } else if (key == "channels") {
      ok = ParseMetaInt(value, std::int64_t{0},
                        std::numeric_limits<std::int64_t>::max(),
                        &meta.channels);
    }
    PELICAN_CHECK(ok, what + "bad line " + line + " (unknown key or value)");
  }
  for (const char* key : {"schema", "blocks", "residual", "channels"}) {
    PELICAN_CHECK(seen.count(key) == 1, what + "missing key " + key);
  }
  return meta;
}

data::Schema SchemaFor(const std::string& name) {
  if (name == "nsl") return data::NslKddSchema();
  if (name == "unsw") return data::UnswNb15Schema();
  PELICAN_CHECK(false, "--dataset must be nsl or unsw, got " + name);
  return data::NslKddSchema();
}

// Loads records from --csv / --official, or generates --records.
data::RawDataset LoadData(const std::string& dataset_name,
                          const Flags& flags) {
  const auto schema = SchemaFor(dataset_name);
  if (flags.Has("csv")) {
    std::printf("loading %s ...\n", flags.Get("csv").c_str());
    return data::ReadCsvFile(schema, flags.Get("csv"));
  }
  if (flags.Has("official")) {
    std::printf("loading official file %s ...\n",
                flags.Get("official").c_str());
    data::OfficialLoadReport report;
    auto ds = dataset_name == "nsl"
                  ? data::ReadNslKddOfficialFile(flags.Get("official"),
                                                 &report)
                  : data::ReadUnswNb15OfficialFile(flags.Get("official"),
                                                   &report);
    std::printf("  %zu rows, %zu skipped, %zu unknown categories\n",
                report.rows, report.skipped, report.unknown_categories);
    return ds;
  }
  const auto records =
      static_cast<std::size_t>(flags.GetLong("records", 3000));
  const auto seed = static_cast<std::uint64_t>(flags.GetLong("seed", 2020));
  Rng rng(seed);
  std::printf("generating %zu synthetic %s records (seed %llu)\n", records,
              dataset_name.c_str(),
              static_cast<unsigned long long>(seed));
  return dataset_name == "nsl" ? data::GenerateNslKdd(records, rng)
                               : data::GenerateUnswNb15(records, rng);
}

core::IdsConfig ConfigFrom(const ModelMeta& meta, const Flags& flags) {
  core::IdsConfig config;
  config.n_blocks = meta.blocks;
  config.residual = meta.residual;
  config.channels = meta.channels;
  config.train.epochs = static_cast<int>(flags.GetLong("epochs", 16));
  config.train.batch_size =
      static_cast<std::size_t>(flags.GetLong("batch", 64));
  config.train.learning_rate = 0.01F;
  config.train.seed = static_cast<std::uint64_t>(flags.GetLong("seed", 2020));
  config.train.verbose = flags.Has("verbose");
  config.train.checkpoint_dir = flags.Get("checkpoint-dir");
  config.train.checkpoint_every =
      static_cast<int>(flags.GetLong("checkpoint-every", 1));
  config.train.checkpoint_keep =
      static_cast<int>(flags.GetLong("checkpoint-keep", 3));
  config.train.resume = flags.Has("resume");
  config.train.max_divergence_retries =
      static_cast<int>(flags.GetLong("divergence-retries", 0));
  config.train.run_log_path = flags.Get("run-log");
  return config;
}

// ---- subcommands -----------------------------------------------------------

int CmdGenerate(const Flags& flags) {
  const auto dataset_name = flags.Get("dataset", "nsl");
  const auto out = flags.Get("out");
  PELICAN_CHECK(!out.empty(), "generate requires --out <file.csv>");
  const auto ds = LoadData(dataset_name, flags);
  data::WriteCsvFile(ds, out);
  std::printf("wrote %zu records to %s\n", ds.Size(), out.c_str());
  return 0;
}

int CmdTrain(const Flags& flags) {
  const auto dataset_name = flags.Get("dataset", "nsl");
  const auto out = flags.Get("out");
  PELICAN_CHECK(!out.empty(), "train requires --out <model.bin>");

  ModelMeta meta;
  meta.schema = dataset_name;
  meta.blocks = static_cast<int>(flags.GetLong("blocks", 10));
  meta.residual = !flags.Has("plain");
  meta.channels = flags.GetLong("channels", 24);

  const auto ds = LoadData(dataset_name, flags);
  const auto config = ConfigFrom(meta, flags);
  PELICAN_CHECK(!config.train.resume || !config.train.checkpoint_dir.empty(),
                "--resume requires --checkpoint-dir");
  core::PelicanIds ids(ds.schema(), config);
  std::printf("training %s-%d (channels=%lld) for %d epochs on %zu "
              "records...\n",
              meta.residual ? "Residual" : "Plain", 4 * meta.blocks + 1,
              static_cast<long long>(meta.channels), config.train.epochs,
              ds.Size());
  if (!config.train.checkpoint_dir.empty()) {
    std::printf("checkpointing to %s every %d epoch(s)%s\n",
                config.train.checkpoint_dir.c_str(),
                config.train.checkpoint_every,
                config.train.resume ? ", resuming from latest" : "");
  }
  // The network materializes on entry to Train, so the process counts
  // as model-loaded for /readyz from here on.
  if (g_server != nullptr) g_server->SetReady(true);
  const auto history = ids.Train(ds);
  std::printf("final train loss %.4f, accuracy %.2f%%\n",
              history.back().train_loss,
              history.back().train_accuracy * 100.0F);
  ids.Save(out);
  WriteMeta(out, meta);
  std::printf("saved model to %s (+ .pre, .quant, .meta)\n", out.c_str());
  return 0;
}

int CmdEval(const Flags& flags) {
  const auto model = flags.Get("model");
  PELICAN_CHECK(!model.empty(), "eval requires --model <model.bin>");
  const auto meta = ReadMeta(model);
  const auto ds = LoadData(meta.schema, flags);

  core::PelicanIds ids(SchemaFor(meta.schema), ConfigFrom(meta, flags));
  ids.Load(model);
  if (flags.Has("quantized")) ids.EnableQuantized(true);
  if (g_server != nullptr) g_server->SetReady(true);

  const auto predictions = ids.Classify(ds);
  metrics::ConfusionMatrix cm(ds.schema().LabelCount());
  cm.RecordAll(ds.Labels(), predictions);
  const auto binary = metrics::CollapseToBinary(cm, 0);
  std::printf("%s\n",
              metrics::ClassificationReport(cm, ds.schema().Labels())
                  .c_str());
  std::printf("DR %.2f%%  ACC %.2f%%  FAR %.2f%%  (TP %lld FP %lld)\n",
              binary.DetectionRate() * 100.0, cm.Accuracy() * 100.0,
              binary.FalseAlarmRate() * 100.0,
              static_cast<long long>(binary.tp),
              static_cast<long long>(binary.fp));
  return 0;
}

int CmdClassify(const Flags& flags) {
  const auto model = flags.Get("model");
  PELICAN_CHECK(!model.empty(), "classify requires --model <model.bin>");
  const auto meta = ReadMeta(model);
  const auto ds = LoadData(meta.schema, flags);

  core::PelicanIds ids(SchemaFor(meta.schema), ConfigFrom(meta, flags));
  ids.Load(model);
  if (flags.Has("quantized")) ids.EnableQuantized(true);
  if (g_server != nullptr) g_server->SetReady(true);

  // Batch verdicts in the serve wire format, for byte-for-byte
  // comparison against a scoring-server run on the same rows.
  const auto verdicts_out = flags.Get("verdicts-out");
  if (!verdicts_out.empty()) {
    std::ofstream vout(verdicts_out);
    PELICAN_CHECK(vout.is_open(), "cannot write " + verdicts_out);
    for (const auto& v : ids.InspectAll(ds)) {
      vout << serve::RenderVerdict(v) << '\n';
    }
    PELICAN_CHECK(vout.good(), "verdict write failed: " + verdicts_out);
  }

  const auto limit = static_cast<std::size_t>(flags.GetLong("limit", 0));
  const bool labels_for_quality = flags.Has("labels-for-quality");
  core::StreamConfig stream_config;
  stream_config.window =
      static_cast<std::size_t>(flags.GetLong("stream-window", 256));
  stream_config.drift_z_threshold =
      flags.GetDouble("drift-threshold", stream_config.drift_z_threshold);
  core::StreamDetector detector(ids, stream_config);

  // The server thread snapshots Stats() between ingests; the detector
  // itself is single-threaded, so the CLI provides the lock.
  std::mutex detector_mu;
  if (g_server != nullptr) {
    g_server->SetStreamSource([&detector, &detector_mu] {
      std::lock_guard lock(detector_mu);
      return core::StreamStatsJson(detector.Stats());
    });
  }

  const auto labels = ds.Labels();
  std::size_t shown = 0;
  for (std::size_t i = 0; i < ds.Size(); ++i) {
    std::optional<int> truth;
    if (labels_for_quality) truth = labels[i];
    std::optional<core::Alert> alert;
    {
      std::lock_guard lock(detector_mu);
      alert = detector.Ingest(ds.Row(i), truth);
    }
    if (alert && (limit == 0 || shown < limit)) {
      std::printf("record %6zu: %-16s confidence=%.2f%s\n", i,
                  alert->class_name.c_str(), alert->confidence,
                  alert->suppressed ? "  [suppressed]" : "");
      ++shown;
    }
  }
  const auto stats = detector.Stats();
  std::printf("\n%llu records, %llu alerts (%.2f%%)\n",
              static_cast<unsigned long long>(stats.processed),
              static_cast<unsigned long long>(stats.alerts),
              100.0 * static_cast<double>(stats.alerts) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, stats.processed)));
  std::printf("drift score %.2f (%llu feature(s) over threshold %.1f)\n",
              stats.window_drift_score,
              static_cast<unsigned long long>(stats.window_drifted_features),
              stream_config.drift_z_threshold);
  if (labels_for_quality && stats.window_labeled > 0) {
    std::printf("rolling window (%llu labeled): DR %.2f%%  ACC %.2f%%  "
                "FAR %.2f%%\n",
                static_cast<unsigned long long>(stats.window_labeled),
                stats.window_detection_rate * 100.0,
                stats.window_accuracy * 100.0,
                stats.window_false_alarm_rate * 100.0);
  }
  return 0;
}

int CmdInfo(const Flags& flags) {
  const auto model = flags.Get("model");
  PELICAN_CHECK(!model.empty(), "info requires --model <model.bin>");
  const auto meta = ReadMeta(model);
  core::IdsConfig config;
  config.n_blocks = meta.blocks;
  config.residual = meta.residual;
  config.channels = meta.channels;
  core::PelicanIds ids(SchemaFor(meta.schema), config);
  ids.Load(model);
  if (g_server != nullptr) g_server->SetReady(true);
  std::printf("model: %s\n", model.c_str());
  std::printf("  schema:    %s (%zu classes, %lld encoded features)\n",
              meta.schema.c_str(), ids.schema().LabelCount(),
              static_cast<long long>(ids.schema().EncodedWidth()));
  std::printf("  structure: %s, %d blocks (%d parameter layers), "
              "channels %lld\n",
              meta.residual ? "residual" : "plain", meta.blocks,
              ids.network().ParameterLayerCount(),
              static_cast<long long>(meta.channels));
  std::printf("  trainable parameters: %lld\n",
              static_cast<long long>(ids.network().ParameterCount()));
  std::printf("gemm: %s\n", kernels::IsaName().c_str());
  return 0;
}

int CmdServe(const Flags& flags) {
  const auto model = flags.Get("model");
  PELICAN_CHECK(!model.empty(), "serve requires --model <model.bin>");
  const auto meta = ReadMeta(model);
  core::PelicanIds ids(SchemaFor(meta.schema), ConfigFrom(meta, flags));
  ids.Load(model);
  if (flags.Has("quantized")) ids.EnableQuantized(true);

  serve::ScoringServerConfig sc;
  sc.port = static_cast<std::uint16_t>(flags.GetLong("port", 0));
  sc.max_connections =
      static_cast<std::size_t>(flags.GetLong("max-connections", 32));
  sc.queue_depth = static_cast<std::size_t>(flags.GetLong("queue-depth", 1024));
  sc.max_batch = static_cast<std::size_t>(flags.GetLong("batch-max", 64));
  sc.batch_linger_ms = static_cast<int>(flags.GetLong("batch-linger-ms", 1));
  sc.read_deadline_ms =
      static_cast<int>(flags.GetLong("read-deadline-ms", 5000));
  sc.idle_timeout_ms =
      static_cast<int>(flags.GetLong("idle-timeout-ms", 30000));
  sc.score_deadline_ms =
      static_cast<int>(flags.GetLong("score-deadline-ms", 2000));
  sc.write_timeout_ms =
      static_cast<int>(flags.GetLong("write-timeout-ms", 5000));
  sc.scorers = static_cast<std::size_t>(flags.GetLong("scorers", 0));
  sc.slow_top_k = static_cast<std::size_t>(flags.GetLong("slow-top-k", 32));
  sc.sample_every =
      static_cast<std::uint64_t>(flags.GetLong("sample-every", 0));
  sc.access_log_path = flags.Get("access-log");
  serve::ScoringServer server(ids, sc);
  server.Start();
  std::printf("scoring server listening on 127.0.0.1:%u (schema %s, "
              "engine %s, scorers %zu)\n",
              static_cast<unsigned>(server.Port()), meta.schema.c_str(),
              server.Engine().c_str(), server.ScorerCount());
  std::fflush(stdout);

  if (g_server != nullptr) {
    g_server->Handle("/serve", [&server](const obs::HttpRequest&) {
      return obs::HttpResponse{200, "application/json",
                               server.StatsJson() + "\n"};
    });
    g_server->Handle("/slow", [&server](const obs::HttpRequest&) {
      return obs::HttpResponse{200, "application/json", server.SlowJsonl()};
    });
    g_server->SetReady(true);  // model loaded, data plane up
  }

  struct sigaction sa {};
  sa.sa_handler = OnDrainSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  while (g_drain_requested == 0 && server.Running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("draining scoring server ...\n");
  std::fflush(stdout);
  // Readiness goes first so load balancers stop routing before the
  // listener closes; the control plane itself stays up for scrapes.
  if (g_server != nullptr) g_server->SetReady(false);
  server.Drain();
  const auto stats = server.Stats();
  if (g_server != nullptr) {
    // The ScoringServer dies with this frame; leave final snapshots.
    const std::string final_stats = server.StatsJson() + "\n";
    g_server->Handle("/serve", [final_stats](const obs::HttpRequest&) {
      return obs::HttpResponse{200, "application/json", final_stats};
    });
    const std::string final_slow = server.SlowJsonl();
    g_server->Handle("/slow", [final_slow](const obs::HttpRequest&) {
      return obs::HttpResponse{200, "application/json", final_slow};
    });
  }
  std::printf("drained: %llu records -> %llu ok, %llu quarantined, "
              "%llu shed, %llu late (%llu connections)\n",
              static_cast<unsigned long long>(stats.records),
              static_cast<unsigned long long>(stats.ok),
              static_cast<unsigned long long>(stats.quarantined),
              static_cast<unsigned long long>(stats.shed),
              static_cast<unsigned long long>(stats.late),
              static_cast<unsigned long long>(stats.connections));
  return 0;
}

// Minimal TCP client for the scoring wire protocol: streams the data
// lines of a CSV (header skipped) in chunks, prints one reply line per
// record. Exists so scripted round-trips don't depend on netcat.
int CmdScore(const Flags& flags) {
  const long port = flags.GetLong("port", 0);
  PELICAN_CHECK(port > 0 && port <= 65535, "score requires --port <port>");
  const auto host = flags.Get("host", "127.0.0.1");
  const auto csv = flags.Get("csv");
  PELICAN_CHECK(!csv.empty(), "score requires --csv <flows.csv>");

  std::ifstream in(csv);
  PELICAN_CHECK(in.is_open(), "cannot read " + csv);
  std::vector<std::string> lines;
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (header) {
      header = false;
      continue;
    }
    if (Trim(line).empty()) continue;
    lines.push_back(line);
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  PELICAN_CHECK(fd >= 0, "socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  PELICAN_CHECK(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
                "bad host: " + host);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    PELICAN_CHECK(false, "cannot connect to " + host + ":" +
                             std::to_string(port));
  }
  // The lockstep write-then-read pattern below is exactly what Nagle +
  // delayed ACK punishes; disable it so each chunk departs immediately.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  std::ofstream out_file;
  const auto out_path = flags.Get("out");
  if (!out_path.empty()) {
    out_file.open(out_path);
    PELICAN_CHECK(out_file.is_open(), "cannot write " + out_path);
  }

  const obs::SocketOps ops;  // real syscalls
  std::string rbuf;
  const auto read_reply = [&](std::string* reply) {
    for (;;) {
      const auto pos = rbuf.find('\n');
      if (pos != std::string::npos) {
        *reply = rbuf.substr(0, pos);
        rbuf.erase(0, pos + 1);
        return true;
      }
      char tmp[4096];
      const ssize_t n = obs::RecvRetry(ops, fd, tmp, sizeof tmp);
      if (n <= 0) return false;
      rbuf.append(tmp, static_cast<std::size_t>(n));
    }
  };

  // Lockstep chunks: write up to 64 records, read their replies, so
  // neither side's socket buffer can fill while the other also writes.
  std::size_t ok = 0, err = 0, busy = 0, late = 0;
  bool short_replies = false;
  const std::size_t chunk = 64;
  for (std::size_t off = 0; off < lines.size() && !short_replies;
       off += chunk) {
    const std::size_t count = std::min(chunk, lines.size() - off);
    std::string payload;
    for (std::size_t j = 0; j < count; ++j) {
      payload += lines[off + j];
      payload += '\n';
    }
    if (!obs::SendAll(ops, fd, payload)) {
      ::close(fd);
      PELICAN_CHECK(false, "send failed (server gone?)");
    }
    for (std::size_t j = 0; j < count; ++j) {
      std::string reply;
      if (!read_reply(&reply)) {
        short_replies = true;
        break;
      }
      if (reply.rfind("ok,", 0) == 0) ++ok;
      else if (reply.rfind("busy,", 0) == 0) ++busy;
      else if (reply.rfind("late,", 0) == 0) ++late;
      else ++err;
      if (out_file.is_open()) {
        out_file << reply << '\n';
      } else {
        std::printf("%s\n", reply.c_str());
      }
    }
  }
  obs::LingeringClose(ops, fd, 4096);
  if (out_file.is_open()) {
    PELICAN_CHECK(out_file.good(), "reply write failed: " + out_path);
  }
  std::fprintf(stderr,
               "scored %zu records: %zu ok, %zu err, %zu busy, %zu late\n",
               ok + err + busy + late, ok, err, busy, late);
  PELICAN_CHECK(!short_replies,
                "server closed before answering every record");
  return busy + late > 0 ? 3 : 0;
}

int Usage() {
  std::printf(
      "pelican — deep residual network intrusion detection\n\n"
      "usage: pelican <command> [--flags]\n\n"
      "commands:\n"
      "  generate  --dataset nsl|unsw --records N [--seed S] --out f.csv\n"
      "  train     --dataset nsl|unsw [--csv f|--official f|--records N]\n"
      "            [--blocks 10] [--plain] [--channels 24] [--epochs 16]\n"
      "            [--checkpoint-dir d] [--checkpoint-every N]\n"
      "            [--checkpoint-keep N] [--resume]\n"
      "            [--divergence-retries N] --out model.bin\n"
      "  eval      --model model.bin [--csv f|--official f|--records N]\n"
      "            [--quantized]\n"
      "  classify  --model model.bin [--csv f|--records N] [--limit 20]\n"
      "            [--labels-for-quality] [--drift-threshold 6.0]\n"
      "            [--stream-window 256] [--verdicts-out f] [--quantized]\n"
      "  serve     --model model.bin [--port 0] [--queue-depth 1024]\n"
      "            [--batch-max 64] [--batch-linger-ms 1]\n"
      "            [--max-connections 32] [--read-deadline-ms 5000]\n"
      "            [--idle-timeout-ms 30000] [--score-deadline-ms 2000]\n"
      "            [--write-timeout-ms 5000] [--quantized]\n"
      "            [--scorers N (0 = min(4, cores))]\n"
      "            [--slow-top-k 32] [--sample-every N (0 = off)]\n"
      "            [--access-log f (JSONL slow/sampled records)]\n"
      "            scoring data plane: line-delimited CSV records in,\n"
      "            one verdict line per record out; SIGTERM/SIGINT\n"
      "            drains gracefully (no accepted record is lost)\n"
      "  score     --port P [--host 127.0.0.1] --csv f [--out f]\n"
      "            stream a CSV's data rows to a running serve\n"
      "            instance (exit 3 if any record was shed/late)\n"
      "  info      --model model.bin\n\n"
      "global flags:\n"
      "  --threads N       worker threads for training/inference\n"
      "                    (0 = hardware concurrency, 1 = serial;\n"
      "                     default from PELICAN_THREADS, else 0)\n"
      "  --log-file f      mirror log lines to f (append) as well as "
      "stderr\n"
      "  --metrics-out f   enable metrics; write Prometheus text to f "
      "on exit\n"
      "  --trace-out f     enable tracing; write Chrome trace JSON to f "
      "on exit\n"
      "                    (open in Perfetto / chrome://tracing)\n"
      "  --run-log f       train only: structured JSONL run telemetry\n"
      "  --serve-port N    live introspection server on 127.0.0.1:N\n"
      "                    (0 = ephemeral; implies metrics + tracing;\n"
      "                     endpoints: /healthz /readyz /buildinfo\n"
      "                     /metrics /metrics.json /trace /stream\n"
      "                     /profile /profile/top, plus /serve and\n"
      "                     /slow while serving)\n"
      "  --profile-hz N    sampling CPU profiler rate for train/eval/\n"
      "                    classify/serve (default 97; 0 = off). It runs\n"
      "                    only with --profile-out or --serve-port.\n"
      "                    Scrape /profile?seconds=N for collapsed\n"
      "                    stacks (flamegraph.pl / speedscope),\n"
      "                    /profile/top for a JSON self-time table\n"
      "  --profile-out f   write the full run's collapsed-stack profile\n"
      "                    to f on exit\n"
      "inference flags:\n"
      "  --quantized       eval/classify/serve: score with the int8\n"
      "                    post-training-quantized predict path (reads\n"
      "                    the model's .quant sidecar; training and the\n"
      "                    fp32 model bytes are untouched)\n"
      "classify quality flags:\n"
      "  --labels-for-quality  feed dataset labels into the rolling\n"
      "                        DR/ACC/FAR quality window\n"
      "  --drift-threshold Z   per-feature drift z-score flag limit\n"
      "  --stream-window N     sliding window length (default 256)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  try {
    Flags flags(argc, argv, 2);
    if (flags.Has("threads")) {
      const long threads = flags.GetLong("threads", 0);
      PELICAN_CHECK(threads >= 0, "--threads must be >= 0");
      SetThreads(static_cast<std::size_t>(threads));
    }
    if (flags.Has("log-file")) SetLogFile(flags.Get("log-file"));
    const std::string metrics_out = flags.Get("metrics-out");
    const std::string trace_out = flags.Get("trace-out");
    if (!metrics_out.empty()) obs::EnableMetrics(true);
    if (!trace_out.empty()) obs::EnableTracing(true);

    // Sampling profiler for the commands that burn CPU, started only
    // when something can read its samples: --profile-out at exit, or
    // /profile on the --serve-port plane. The main thread registers
    // here; pool workers, scorers, and serve connection threads
    // register at their own spawn points.
    const long profile_hz = flags.GetLong("profile-hz", obs::kDefaultProfileHz);
    PELICAN_CHECK(profile_hz >= 0 && profile_hz <= 10000,
                  "--profile-hz must be 0..10000");
    const std::string profile_out = flags.Get("profile-out");
    const bool profiled_command = command == "train" || command == "eval" ||
                                  command == "classify" || command == "serve";
    const bool profile_read = !profile_out.empty() || flags.Has("serve-port");
    if (profiled_command && profile_read && profile_hz > 0) {
      obs::ProfilerConfig pc;
      pc.hz = static_cast<int>(profile_hz);
      obs::StartProfiler(pc);
      obs::ProfileRegisterCurrentThread();
    }

    std::unique_ptr<obs::IntrospectionServer> server;
    if (flags.Has("serve-port")) {
      const long port = flags.GetLong("serve-port", 0);
      PELICAN_CHECK(port >= 0 && port <= 65535,
                    "--serve-port must be 0..65535");
      // Live scraping implies the full telemetry stack.
      obs::EnableMetrics(true);
      obs::EnableTracing(true);
      obs::IntrospectConfig sc;
      sc.port = static_cast<std::uint16_t>(port);
      server = std::make_unique<obs::IntrospectionServer>(sc);
      server->Start();
      g_server = server.get();
      std::printf("introspection server listening on 127.0.0.1:%u\n",
                  static_cast<unsigned>(server->Port()));
      std::fflush(stdout);
    }

    int rc = 2;
    if (command == "generate") {
      rc = CmdGenerate(flags);
    } else if (command == "train") {
      rc = CmdTrain(flags);
    } else if (command == "eval") {
      rc = CmdEval(flags);
    } else if (command == "classify") {
      rc = CmdClassify(flags);
    } else if (command == "serve") {
      rc = CmdServe(flags);
    } else if (command == "score") {
      rc = CmdScore(flags);
    } else if (command == "info") {
      rc = CmdInfo(flags);
    } else {
      return Usage();
    }

    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out);
      PELICAN_CHECK(out.is_open(), "cannot write " + metrics_out);
      obs::UpdateProcessMetrics();
      out << obs::Registry::Global().RenderPrometheus();
      PELICAN_CHECK(out.good(), "metrics write failed: " + metrics_out);
    }
    if (!trace_out.empty()) obs::WriteTraceJson(trace_out);
    if (obs::ProfilerRunning()) obs::StopProfiler();  // final ring drain
    if (!profile_out.empty()) {
      std::ofstream out(profile_out);
      PELICAN_CHECK(out.is_open(), "cannot write " + profile_out);
      out << obs::ProfileCollapsed();
      PELICAN_CHECK(out.good(), "profile write failed: " + profile_out);
    }
    if (server != nullptr) {
      g_server = nullptr;
      server->Stop();  // graceful: in-flight scrape answered first
    }
    return rc;
  } catch (const pelican::CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
