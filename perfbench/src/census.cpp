// The census of a traced run: per-layer timings of the workload's own
// model, measured by calling each layer's public functions from here.
//
// Inference layers are timed at batch 64 and batch 1 — the whole net
// through Sequential::Score, each residual block reached through
// Sequential::LayerAt, and standalone layers built with the public
// constructors at a block's shapes (N, 1, C). Training layers are timed
// the same way in training mode, plus one training step driven layer
// by layer (the steps Trainer::Fit runs per batch). Then the fp32/int8
// GEMM at the GRU's fused input-projection shape, the data, core and
// serve stages, and the ROADMAP's 1-thread baseline table.
#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "common/thread_pool.h"
#include "core/stream.h"
#include "data/data.h"
#include "models/pelican.h"
#include "nn/nn.h"
#include "obs/metrics.h"
#include "optim/optimizer.h"
#include "serve/serve.h"
#include "tensor/kernels.h"

namespace perfbench {

using namespace pelican;

namespace {

// The census serve burst keeps an open-loop rate when every reply is
// ok and p99 stays within this limit; the rate stops halving at the
// minimum.
constexpr double kLatencyLimitMs = 50.0;
constexpr double kMinOpenRate = 625.0;

// Calls fn once untimed, then under a span named `name` until `budget_s`
// has passed and at least `min_reps` calls ran. Returns the µs of each.
template <typename Fn>
std::vector<double> Time(Tracer& tr, const std::string& name, Fn&& fn,
            double budget_s = 0.15, int min_reps = 5, int max_reps = 2000) {
  fn();
  const auto end = Clock::now() + std::chrono::duration<double>(budget_s);
  for (int i = 0; i < max_reps && (i < min_reps || Clock::now() < end); ++i) {
    Scope span(&tr, name, static_cast<std::uint64_t>(i));
    fn();
  }
  return tr.DurationsUs(name);
}

// Samples scaled by a constant (µs → ms, per batch → per row).
std::vector<double> Scaled(std::vector<double> samples, double factor) {
  for (double& v : samples) v *= factor;
  return samples;
}

bool IsBlock(nn::Layer& layer) { return layer.Name() == "Residual"; }

// GFLOP/s (or GOP/s) of `ops` operations taking `us` microseconds.
double Giga(double ops, double us) { return ops / (us * 1e3); }

// The first `n` rows of x (cycling when x has fewer).
Tensor Rows(const Tensor& x, std::int64_t n) {
  Tensor out({n, x.dim(1)});
  for (std::int64_t i = 0; i < n; ++i) {
    const auto src = x.Row(i % x.dim(0));
    std::copy(src.begin(), src.end(), out.Row(i).begin());
  }
  return out;
}

// Runs the enclosed code on n intra-op threads.
class ThreadsScope {
 public:
  explicit ThreadsScope(std::size_t n) : prev_(Threads()) { SetThreads(n); }
  ~ThreadsScope() { SetThreads(prev_); }
  ThreadsScope(const ThreadsScope&) = delete;
  ThreadsScope& operator=(const ThreadsScope&) = delete;

 private:
  std::size_t prev_;
};

// Inference through the loaded model: whole net, blocks, and the
// 1-thread and int8 variants of one block.
void InferenceLayers(core::PelicanIds& ids, const Tensor& x, Report& r,
                     Tracer& tr) {
  nn::Sequential& net = ids.network();
  nn::InferenceContext ctx;
  for (const std::int64_t b : {64, 16, 1}) {
    const Tensor xb = Rows(x, b);
    const auto tag = ".b" + std::to_string(b);
    r.Layer("nn.net.score_us" + tag, "us",
            Time(tr, "nn.net.score" + tag, [&] { (void)net.Score(xb, ctx); }));
  }

  std::size_t first_block = 0;
  while (!IsBlock(net.LayerAt(first_block))) ++first_block;
  nn::Layer& block = net.LayerAt(first_block);
  Tensor block_in[2];  // input of the first block at batch 64 and 1
  for (const std::int64_t b : {64, 1}) {
    const auto tag = ".b" + std::to_string(b);
    Tensor y = Rows(x, b);
    std::vector<double> share;
    for (int rep = -1; rep < 20; ++rep) {  // rep -1 warms up, untraced
      Tracer* t = rep < 0 ? nullptr : &tr;
      const auto id = static_cast<std::uint64_t>(std::max(rep, 0));
      Scope walk(t, "nn.net.walk" + tag, id);
      const auto t0 = Clock::now();
      double in_blocks = 0;
      y = Rows(x, b);
      for (std::size_t i = 0; i < net.LayerCount(); ++i) {
        nn::Layer& layer = net.LayerAt(i);
        if (i == first_block) block_in[b == 64 ? 0 : 1] = y;
        const auto s0 = Clock::now();
        Scope span(t, (IsBlock(layer) ? "nn.block.score" : "nn.other.score") + tag,
                   id);
        y = layer.Score(y, ctx);
        if (IsBlock(layer)) in_blocks += Seconds(s0, Clock::now());
      }
      if (rep >= 0) share.push_back(100.0 * in_blocks / Seconds(t0, Clock::now()));
    }
    r.Layer("nn.block.score_us" + tag, "us", tr.DurationsUs("nn.block.score" + tag));
    r.Layer("nn.block.share" + tag, "%", share);
  }
  {
    const ThreadsScope one(1);
    for (const std::int64_t b : {64, 1}) {
      const auto tag = ".b" + std::to_string(b) + ".t1";
      const Tensor& in = block_in[b == 64 ? 0 : 1];
      r.Layer("nn.block.score_us" + tag, "us",
              Time(tr, "nn.block.score" + tag,
                   [&] { (void)block.Score(in, ctx); }));
    }
  }
  ids.EnableQuantized(true);
  r.Layer("quant.block.score_us.b64", "us",
          Time(tr, "quant.block.score.b64",
               [&] { (void)block.Score(block_in[0], ctx); }));
  ids.EnableQuantized(false);
}

// Standalone layers at a block's shapes, inference and training mode.
void StandaloneLayers(std::int64_t c, std::int64_t classes, Rng& rng,
                      Report& r, Tracer& tr) {
  nn::Gru gru(c, c, rng, /*return_sequences=*/true);
  nn::Conv1D conv(c, c, /*kernel_size=*/10, rng);
  nn::BatchNorm bn(c);
  nn::MaxPool1D pool(2);
  nn::GlobalAvgPool1D gap;
  nn::Dense dense(c, classes, rng);
  nn::Dropout dropout(0.6F);
  dropout.SetRng(&rng);
  nn::InferenceContext ctx;
  const Tensor x64 = Tensor::RandomNormal({64, 1, c}, rng, 0.0F, 1.0F);
  const Tensor x1 = Tensor::RandomNormal({1, 1, c}, rng, 0.0F, 1.0F);
  const Tensor flat = Tensor::RandomNormal({64, c}, rng, 0.0F, 1.0F);

  auto score = [&](const nn::Layer& layer, const Tensor& in,
                   const std::string& name) {
    const auto us = Time(tr, name, [&] { (void)layer.Score(in, ctx); });
    r.Layer(name.substr(0, name.rfind(".score")) + ".score_us" +
                name.substr(name.rfind('.')),
            "us", us);
    return Median(us);
  };
  const double gru_us = score(gru, x64, "nn.gru.score.b64");
  score(gru, x1, "nn.gru.score.b1");
  const double conv_us = score(conv, x64, "nn.conv1d.score.b64");
  score(conv, x1, "nn.conv1d.score.b1");
  score(bn, x64, "nn.bn.score.b64");
  score(pool, x64, "nn.maxpool.score.b64");
  score(gap, x64, "nn.gap.score.b64");
  score(dense, flat, "nn.dense.score.b64");
  // With h0 = 0 only the input projection (N·C)·(C·3H) does useful
  // work; at L = 1 a Conv1D has one valid tap, an (N·C)·(C·F) product.
  const auto n = 64.0, cd = static_cast<double>(c);
  r.Layer("nn.gru.useful_gflops.b64", "GFLOP/s", Giga(2 * n * cd * 3 * cd, gru_us));
  r.Layer("nn.conv1d.gflops.b64", "GFLOP/s", Giga(2 * n * cd * cd, conv_us));

  auto train = [&](nn::Layer& layer, const Tensor& in, const std::string& stem) {
    const Tensor dy = Tensor::RandomNormal(layer.Forward(in, true).shape(), rng,
                                           0.0F, 1.0F);
    (void)layer.Backward(dy);
    for (int rep = 0; rep < 10; ++rep) {
      const auto id = static_cast<std::uint64_t>(rep);
      {
        Scope span(&tr, stem + ".forward", id);
        (void)layer.Forward(in, true);
      }
      Scope span(&tr, stem + ".backward", id);
      (void)layer.Backward(dy);
    }
    r.Layer(stem + ".forward_us", "us", tr.DurationsUs(stem + ".forward"));
    r.Layer(stem + ".backward_us", "us", tr.DurationsUs(stem + ".backward"));
  };
  train(gru, x64, "nn.gru");
  train(conv, x64, "nn.conv1d");
  train(bn, x64, "nn.bn");
  train(dense, flat, "nn.dense");
  r.Layer("nn.dropout.forward_us", "us",
          Time(tr, "nn.dropout.forward",
               [&] { (void)dropout.Forward(x64, true); }));
}

// One training step at a time, layer by layer: the calls Trainer::Fit
// makes per batch (Batcher::Next, Forward, loss, Backward, RMSprop).
void TrainingSteps(const data::RawDataset& corpus, const Tensor& x,
                   const models::NetworkConfig& config, Rng& rng, int steps,
                   Report& r, Tracer& tr) {
  auto net = models::BuildNetwork(config, rng);
  net->SetRng(&rng);
  optim::RmsProp optimizer(0.01F);
  optimizer.Attach(net->Params());
  data::Batcher batcher(x, corpus.Labels(), 64, rng);
  batcher.StartEpoch();
  data::Batch batch;
  for (int step = 0; step <= steps; ++step) {  // step 0 warms up, untraced
    Tracer* t = step == 0 ? nullptr : &tr;
    const auto id = static_cast<std::uint64_t>(step);
    Scope span(t, "train.step", id);
    {
      Scope s(t, "data.batch", id);
      if (!batcher.Next(batch)) {
        batcher.StartEpoch();
        batcher.Next(batch);
      }
    }
    net->ZeroGrad();
    Tensor y = batch.x;
    for (std::size_t i = 0; i < net->LayerCount(); ++i) {
      nn::Layer& layer = net->LayerAt(i);
      Scope s(t, IsBlock(layer) ? "nn.block.forward" : "nn.other.forward", id);
      y = layer.Forward(y, true);
    }
    nn::LossResult loss;
    {
      Scope s(t, "nn.loss", id);
      loss = nn::SoftmaxCrossEntropy(y, batch.labels);
    }
    Tensor dy = loss.dlogits;
    for (std::size_t i = net->LayerCount(); i-- > 0;) {
      nn::Layer& layer = net->LayerAt(i);
      Scope s(t, IsBlock(layer) ? "nn.block.backward" : "nn.other.backward", id);
      dy = layer.Backward(dy);
    }
    Scope s(t, "optim.step", id);
    optimizer.Step();
  }
  for (const char* span : {"nn.block.forward", "nn.block.backward", "nn.loss",
                           "optim.step", "data.batch"}) {
    r.Layer(std::string(span) + "_us", "us", tr.DurationsUs(span));
  }
}

// fp32 and int8 GEMM at the GRU's fused input projection
// (m64 × k=C × n=3C), and fp32 at its weight-gradient shape.
void Kernels(std::int64_t c, Rng& rng, Report& r, Tracer& tr) {
  const std::int64_t m = 64, k = c, n = 3 * c;
  auto random = [&](std::int64_t count) {
    return Tensor::RandomNormal({count}, rng, 0.0F, 1.0F);
  };
  const Tensor a = random(m * k), b = random(k * n), g = random(m * n);
  Tensor out({std::max(m, k) * n});
  const double flops = 2.0 * static_cast<double>(m * n * k);
  r.Layer("kernels.gemm.gflops", "GFLOP/s",
          Giga(flops, Median(Time(tr, "kernels.gemm", [&] {
                 kernels::Gemm(false, false, m, n, k, a.data().data(), k,
                               b.data().data(), n, out.data().data(), n, false);
               }))));
  // dW (C × 3C) = xᵀ (C × 64) · dG (64 × 3C)
  r.Layer("kernels.gemm.gflops.bwd", "GFLOP/s",
          Giga(flops, Median(Time(tr, "kernels.gemm.bwd", [&] {
                 kernels::Gemm(true, false, k, n, m, a.data().data(), k,
                               g.data().data(), n, out.data().data(), n, false);
               }))));
  std::vector<std::int8_t> ai(static_cast<std::size_t>(m * k)),
      bi(static_cast<std::size_t>(k * n));
  auto int8 = [&] { return static_cast<std::int8_t>(static_cast<int>(rng() % 255) - 127); };
  for (auto& v : ai) v = int8();
  for (auto& v : bi) v = int8();
  std::vector<std::int32_t> ci(static_cast<std::size_t>(m * n));
  r.Layer("kernels.gemm_int8.gops", "GOP/s",
          Giga(flops, Median(Time(tr, "kernels.gemm_int8", [&] {
                 kernels::GemmInt8(m, n, k, ai.data(), k, bi.data(), n,
                                   ci.data(), n, false);
               }))));
}

// Stage timings of the data, core and serve layers on the loaded model.
void PipelineStages(const Fixture& fx, core::PelicanIds& ids,
                    const data::RawDataset& corpus, bool tiny, Report& r,
                    Tracer& tr) {
  const auto rows = static_cast<double>(corpus.Size());
  const data::OneHotEncoder encoder(fx.schema);
  const Tensor encoded = encoder.Transform(corpus);
  data::StandardScaler scaler;
  scaler.Fit(encoded);
  const auto encode =
      Scaled(Time(tr, "data.encode", [&] { (void)encoder.Transform(corpus); }),
             1.0 / rows);
  std::vector<double> scale;
  for (int rep = 0; rep < 10; ++rep) {
    Tensor copy = encoded;
    const auto t0 = Clock::now();
    {
      Scope span(&tr, "data.scale", static_cast<std::uint64_t>(rep));
      scaler.Transform(copy);
    }
    scale.push_back(1e6 * Seconds(t0, Clock::now()) / rows);
  }
  r.Layer("data.encode_us", "us", encode);
  r.Layer("data.scale_us", "us", scale);

  // core: what InspectAll adds on a 64-row batch beyond encode, scale
  // and Score, and what Ingest adds beyond the Inspect it wraps. Each
  // pair of calls runs back to back and the difference is taken per
  // pair, so the host's drift cancels out of these small remainders.
  Tensor scaled = encoded;
  scaler.Transform(scaled);
  std::vector<data::RawDataset> batches;
  std::vector<Tensor> batch_x;
  for (std::size_t s = 0; s + 64 <= corpus.Size() && batches.size() < 16; s += 64) {
    std::vector<std::size_t> idx(64);
    for (std::size_t i = 0; i < 64; ++i) idx[i] = s + i;
    batches.push_back(corpus.Subset(idx));
    Tensor x({64, scaled.dim(1)});
    std::copy(scaled.Row(static_cast<std::int64_t>(s)).begin(),
              scaled.Row(static_cast<std::int64_t>(s + 63)).end(),
              x.data().begin());
    batch_x.push_back(std::move(x));
  }
  // Runs the two calls back to back 40 times under spans; returns the
  // (first − second) µs of each pair.
  auto paired = [&](const std::string& first, const std::string& second,
                    auto&& call_first, auto&& call_second) {
    std::vector<double> diff;
    for (std::size_t i = 0; i < 40; ++i) {
      const auto t0 = Clock::now();
      {
        Scope span(&tr, first, i);
        call_first(i);
      }
      const auto t1 = Clock::now();
      {
        Scope span(&tr, second, i);
        call_second(i);
      }
      diff.push_back(1e6 * (Seconds(t0, t1) - Seconds(t1, Clock::now())));
    }
    return diff;
  };
  nn::InferenceContext ctx;
  const auto inspect_all_extra = paired(
      "core.inspect_all.b64", "core.score.b64",
      [&](std::size_t i) { (void)ids.InspectAll(batches[i % batches.size()]); },
      [&](std::size_t i) {
        (void)ids.network().Score(batch_x[i % batch_x.size()], ctx);
      });
  auto verdict = Scaled(inspect_all_extra, 1.0 / 64);  // per row
  for (double& us : verdict) us -= Median(encode) + Median(scale);
  r.Layer("core.verdict_us", "us", verdict);
  core::StreamDetector detector(ids);
  r.Layer("core.stream_us", "us",
          paired(
              "core.ingest", "core.inspect",
              [&](std::size_t i) { (void)detector.Ingest(corpus.Row(i % corpus.Size())); },
              [&](std::size_t i) { (void)ids.Inspect(corpus.Row(i % corpus.Size())); }));

  // serve: the wire parser and reply renderer per record, then a
  // burst against a live server with the obs registry on, so its
  // stage histograms can be read back.
  const serve::WireParser parser(fx.schema);
  const auto lines = WireLines(fx.corpus_csv);
  r.Layer("serve.parse_us", "us",
          Scaled(Time(tr, "serve.parse",
                      [&] {
                        for (const auto& line : lines) (void)parser.Parse(line);
                      }),
                 1.0 / static_cast<double>(lines.size())));
  const auto verdicts = ids.InspectAll(corpus);
  std::vector<std::string> expected;
  for (const auto& v : verdicts) expected.push_back(serve::RenderVerdict(v));
  r.Layer("serve.render_us", "us",
          Scaled(Time(tr, "serve.render",
                      [&] {
                        for (const auto& v : verdicts) {
                          (void)serve::RenderVerdict(v);
                        }
                      }),
                 1.0 / rows));

  obs::EnableMetrics(true);
  auto& reg = obs::Registry::Global();
  serve::ScoringServer server(ids, ServeConfig());
  server.Start();
  // Fresh connections per phase, so no reply a phase left unread can
  // be taken for one of the next phase's.
  auto drive = [&](const char* name, const LoadPlan& plan) {
    Scope span(&tr, name);
    const Connections connections(server.Port(), kLoadConnections);
    return DriveServer(connections, lines, expected, plan, &tr);
  };
  LoadPlan plan;
  plan.closed_s = 1.5;  // a warm-up window and two measured ones
  const auto s0 = server.Stats();
  const LoadResult closed = drive("serve.closed_loop", plan);
  const auto s1 = server.Stats();
  // Open loop at LoadPlan's 10,000 flows/s, halved until it is at most
  // half the closed loop's measured capacity: a wide model would shed or
  // build a backlog at 10,000.
  // Should every reply still not be ok with p99 within
  // kLatencyLimitMs, the open loop runs again at half the rate. The
  // stage quantiles and server counts come from the run that is kept.
  while (plan.open_rate > kMinOpenRate &&
         plan.open_rate > Median(closed.closed_window_rps) / 2) {
    plan.open_rate /= 2;
  }
  plan.closed_s = 0;
  plan.open_s = tiny ? 0.5 : 1.5;
  const auto engine = obs::Labels{{"engine", server.Engine()}};
  const char* stages[] = {"queue", "batch", "score", "reply"};
  auto snapshot = [&] {
    std::vector<obs::Registry::HistogramSnapshot> out;
    for (const char* name : stages) {
      auto labels = engine;
      labels.emplace_back("stage", name);
      out.push_back(reg.HistogramValue("pelican_serve_stage_seconds", labels));
    }
    return out;
  };
  LoadResult open;
  std::vector<obs::Registry::HistogramSnapshot> before;
  serve::ServeStats s2, s3;
  for (;;) {
    before = snapshot();
    s2 = server.Stats();
    open = drive("serve.open_loop", plan);
    s3 = server.Stats();
    const bool kept_up = open.not_ok + open.mismatched + open.missing == 0 &&
                         Quantile(open.open_latency_ms, 0.99) <= kLatencyLimitMs;
    if (kept_up || plan.open_rate <= kMinOpenRate) break;
    plan.open_rate /= 2;
  }
  const auto after = snapshot();
  for (std::size_t i = 0; i < 4; ++i) {
    const auto name = std::string("serve.") + stages[i] + "_ms.";
    r.Layer(name + "p50", "ms",
            1e3 * obs::HistogramQuantileDelta(before[i], after[i], 0.5));
    r.Layer(name + "p99", "ms",
            1e3 * obs::HistogramQuantileDelta(before[i], after[i], 0.99));
  }
  const double busy = server.ScorerBusyRatio();
  server.Drain();
  obs::EnableMetrics(false);
  // Server counts over the closed and the kept open loop.
  auto measured = [&](std::uint64_t serve::ServeStats::*field) {
    return static_cast<double>((s1.*field - s0.*field) + (s3.*field - s2.*field));
  };
  r.Layer("serve.batch_rows", "rows",
          measured(&serve::ServeStats::ok) /
              std::max(measured(&serve::ServeStats::batches), 1.0));
  r.Layer("serve.scorer_busy", "ratio", busy);
  r.Layer("serve.shed", "count", measured(&serve::ServeStats::shed));
  r.Layer("serve.late", "count", measured(&serve::ServeStats::late));
  r.Layer("serve.quarantined", "count", measured(&serve::ServeStats::quarantined));
  r.Layer("serve.open_rate", "flows/s", plan.open_rate);
  r.Layer("gen.late_ms", "ms", Quantile(open.gen_late_ms, 0.99));
  r.Note("census serve burst: closed loop " +
         std::to_string(Median(closed.closed_window_rps)) +
         " flows/s, open loop at " + std::to_string(plan.open_rate) +
         " flows/s: p50 " + std::to_string(Quantile(open.open_latency_ms, 0.5)) +
         " ms, p99 " + std::to_string(Quantile(open.open_latency_ms, 0.99)) +
         " ms");
  r.Fail(closed.not_ok + closed.mismatched + closed.missing + open.not_ok +
             open.mismatched + open.missing,
         "census serve burst replies not ok, wrong or missing");
}

// The ROADMAP's "Baseline measured at this re-anchor" table: whole-net
// Score at widths 24 and 121 and one width-121 block split into GRU /
// Conv1D / rest, on 1 intra-op thread, for NSL-KDD's 121 features.
void BaselineTable(Rng& rng, Report& r, Tracer& tr) {
  const ThreadsScope one(1);
  nn::InferenceContext ctx;
  const std::int64_t features = data::NslKddSchema().EncodedWidth();
  const auto classes =
      static_cast<std::int64_t>(data::NslKddSchema().LabelCount());
  auto cell = [](double us, std::int64_t batch) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.0f µs (%.1fk rows/s)", us,
                  1e3 * static_cast<double>(batch) / us);
    return std::string(buf);
  };
  r.Note("| Pelican-41, NSL (121 feat), 1 thread | batch 1 | batch 64 |");
  r.Note("|---|---|---|");
  for (const std::int64_t width : {24, 121}) {
    models::NetworkConfig config;
    config.features = features;
    config.n_classes = classes;
    config.channels = width;
    const auto net = models::BuildNetwork(config, rng);
    std::string row = "| width " + std::to_string(width) + " — whole net |";
    for (const std::int64_t b : {1, 64}) {
      const Tensor x = Tensor::RandomNormal({b, features}, rng, 0.0F, 1.0F);
        const double us = Median(
          Time(tr, "baseline.w" + std::to_string(width) + ".b" + std::to_string(b),
               [&] { (void)net->Score(x, ctx); }));
      row += " " + cell(us, b) + " |";
    }
    r.Note(row);
  }
  models::BlockConfig block_config;
  block_config.channels = features;
  const auto block = models::MakeResidualBlock(block_config, rng);
  nn::Gru gru(features, features, rng, true);
  nn::Conv1D conv(features, features, 10, rng);
  std::string row = "| width 121 — one block: GRU / Conv1D / rest |";
  for (const std::int64_t b : {1, 64}) {
    const Tensor x = Tensor::RandomNormal({b, 1, features}, rng, 0.0F, 1.0F);
    const auto tag = ".b" + std::to_string(b);
    const double block_us = Median(Time(tr, "baseline.block" + tag,
                                        [&] { (void)block->Score(x, ctx); }));
    const double gru_us =
        Median(Time(tr, "baseline.gru" + tag, [&] { (void)gru.Score(x, ctx); }));
    const double conv_us = Median(
        Time(tr, "baseline.conv1d" + tag, [&] { (void)conv.Score(x, ctx); }));
    char buf[96];
    std::snprintf(buf, sizeof buf, " %.0f / %.0f / %.0f µs |", gru_us, conv_us,
                  block_us - gru_us - conv_us);
    row += buf;
  }
  r.Note(row);
}

}  // namespace

void RunCensus(const Options& o, std::int64_t train_recoveries, Report& r,
               Tracer& tr) {
  const auto spec = SpecFor(o);
  const auto fx = FixtureFor(o);
  Scope census(&tr, "census");
  Rng rng(o.seed + 1);

  std::unique_ptr<core::PelicanIds> ids;
  for (int i = 0; i < 3; ++i) {
    auto next = std::make_unique<core::PelicanIds>(fx.schema,
                                                   IdsConfigFor(spec, o.seed));
    {
      Scope span(&tr, "core.load", static_cast<std::uint64_t>(i));
      next->Load(fx.model_path);
    }
    ids = std::move(next);
  }
  r.Layer("core.load_ms", "ms", Scaled(tr.DurationsUs("core.load"), 1e-3));

  const auto corpus = data::ReadCsvFile(fx.schema, fx.corpus_csv);
  Tensor x = data::OneHotEncoder(fx.schema).Transform(corpus);
  data::StandardScaler scaler;
  scaler.Fit(x);
  scaler.Transform(x);
  models::NetworkConfig config;
  config.features = x.dim(1);
  config.n_classes = static_cast<std::int64_t>(fx.schema.LabelCount());
  const std::int64_t c = x.dim(1);  // full width

  {
    // The layers run on the program's default pool (one thread per
    // core); the .t1 variants, the stages and the baseline table on one
    // thread, as the timed phases do.
    const ThreadsScope defaults(0);
    InferenceLayers(*ids, x, r, tr);
    StandaloneLayers(c, config.n_classes, rng, r, tr);
    TrainingSteps(corpus, x, config, rng, o.tiny ? 2 : 8, r, tr);
    r.Layer("common.parallel_for_us", "us",
            Time(tr, "common.parallel_for", [] {
              ParallelFor(0, EffectiveThreads(), [](std::size_t) {}, 1);
            }, 0.1, 50));
    Kernels(c, rng, r, tr);
  }
  r.Layer("train.recoveries", "count", static_cast<double>(train_recoveries));
  PipelineStages(fx, *ids, corpus, o.tiny, r, tr);
  BaselineTable(rng, r, tr);
}

}  // namespace perfbench
