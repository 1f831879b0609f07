#include "serve/scoring_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>

#include "common/check.h"
#include "data/dataset.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace pelican::serve {

namespace {

using Clock = std::chrono::steady_clock;

// One complete line pulled off a connection (or the oversized marker).
struct ChunkLine {
  std::string text;
  bool oversized = false;
};

// Outcome of one ReadChunk call. `lines` may be non-empty alongside a
// terminal flag (data read before the failure is still answered).
struct ChunkResult {
  std::vector<ChunkLine> lines;
  bool eof = false;          // peer half-closed cleanly
  bool deadline = false;     // read deadline expired mid-record
  bool idle = false;         // idle timeout / drain with empty buffer
  bool io_error = false;     // ECONNRESET and friends
  bool truncated = false;    // EOF with a partial record buffered
};

// Pulls complete lines out of `buf`. `discarding` is the oversized-
// line resync state: once a line outgrows max_line, one err,oversized
// reply is issued and everything up to the next '\n' is swallowed.
void ExtractLines(std::string& buf, bool& discarding,
                  std::vector<ChunkLine>& lines, std::size_t max_line,
                  std::size_t max_lines) {
  std::size_t pos = 0;
  while (lines.size() < max_lines &&
         (pos = buf.find('\n')) != std::string::npos) {
    std::string line = buf.substr(0, pos);
    buf.erase(0, pos + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (discarding) {
      discarding = false;  // tail of an oversized line: already answered
      continue;
    }
    if (line.size() > max_line) {
      lines.push_back({std::string(), true});
      continue;
    }
    lines.push_back({std::move(line), false});
  }
  if (buf.find('\n') == std::string::npos) {
    if (discarding) {
      buf.clear();  // still inside the oversized line
    } else if (buf.size() > max_line) {
      lines.push_back({std::string(), true});
      discarding = true;
      buf.clear();
    }
  }
}

// Ingest-chunk ids are process-wide (several servers can serve one
// process — the multi-scorer plane does) so trace flow ids never
// collide across engines.
std::atomic<std::uint64_t> g_next_chunk_id{1};

}  // namespace

// Scorer-side lifecycle stamps for one reply slot, written under the
// chunk mutex by FulfillSlot. `level` says how far the record got:
// 0 = never reached a scorer (shed slots, or abandoned by the reader),
// 1 = dequeued but not scored (late,deadline / err,internal),
// 2 = ran the full pipeline. The reader turns the stamps into stage
// durations after the reply bytes are written.
struct ScoringServer::SlotTiming {
  Clock::time_point dequeued{};
  Clock::time_point assembled{};
  Clock::time_point scored{};
  std::uint8_t level = 0;
};

// The reply slots for one read chunk. Connection reader and scorer
// meet here: the reader pre-fills quarantine/shed slots, the scorer
// fills verdicts, and `pending` counts unfilled enqueued slots. When
// the reader gives up waiting (scorer wedged past every deadline) it
// flips `abandoned` so late verdicts are dropped instead of racing the
// reply write. Once the reader's wait ends (pending == 0, or abandoned
// set under the mutex), no scorer writes again, so the reader may read
// replies and timings lock-free while finalizing.
struct ScoringServer::PendingChunk {
  std::mutex mu;
  std::condition_variable done;
  std::vector<std::string> replies;
  std::vector<SlotTiming> timings;
  std::size_t pending = 0;
  bool abandoned = false;
};

// Lazily-registered serve metrics, one set per server so the `engine`
// label reflects which predict path (fp32 or int8) answered. Never
// touched while metrics are off.
struct ScoringServer::ServeMetrics {
  obs::Counter records;
  obs::Counter ok;
  obs::Counter quarantined;
  obs::Counter shed;
  obs::Counter late;
  obs::Histogram record_seconds;
  // The four lifecycle stages of record_seconds, telescoping from one
  // clock: queue + batch + score + reply == total, exactly (tests
  // assert the sums reconcile to float rounding).
  obs::Histogram stage_queue;
  obs::Histogram stage_batch;
  obs::Histogram stage_score;
  obs::Histogram stage_reply;
  obs::Histogram batch_rows;
  obs::Gauge queue_depth;
};

ScoringServer::ServeMetrics& ScoringServer::Metrics() {
  std::call_once(metrics_once_, [this] {
    auto& reg = obs::Registry::Global();
    const obs::Labels labels{{"engine", engine_}};
    const char* stage_help =
        "Per-stage slice of pelican_serve_record_seconds "
        "(admission->dequeue->assemble->score->reply)";
    const auto stage = [&](const char* name) {
      obs::Labels stage_labels = labels;
      stage_labels.emplace_back("stage", name);
      return reg.GetHistogram("pelican_serve_stage_seconds", stage_help,
                              obs::DefaultTimeBuckets(), stage_labels);
    };
    metrics_ = std::make_unique<ServeMetrics>(ServeMetrics{
        reg.GetCounter("pelican_serve_records_total",
                       "Flow records accepted off the wire", labels),
        reg.GetCounter("pelican_serve_ok_total",
                       "Records scored and answered", labels),
        reg.GetCounter("pelican_serve_quarantined_total",
                       "Malformed records answered err,*", labels),
        reg.GetCounter("pelican_serve_shed_total",
                       "Records shed with busy,queue_full", labels),
        reg.GetCounter("pelican_serve_late_total",
                       "Records dropped past the scoring deadline", labels),
        reg.GetHistogram("pelican_serve_record_seconds",
                         "Admission-to-reply-write latency per scored record",
                         obs::DefaultTimeBuckets(), labels),
        stage("queue"), stage("batch"), stage("score"), stage("reply"),
        reg.GetHistogram("pelican_serve_batch_rows",
                         "Rows per scorer micro-batch",
                         {1, 2, 4, 8, 16, 32, 64, 128, 256}, labels),
        reg.GetGauge("pelican_serve_queue_depth",
                     "Ingest queue depth sampled per micro-batch", labels)});
  });
  return *metrics_;
}

ScoringServer::ScoringServer(const core::PelicanIds& ids,
                             ScoringServerConfig config)
    : ids_(&ids),
      config_(std::move(config)),
      parser_(ids.schema()),
      engine_(ids.quantized() ? "int8" : "fp32"),
      queue_(config_.queue_depth),
      slow_ring_(config_.slow_top_k, config_.sample_every, engine_) {
  PELICAN_CHECK(ids.Trained(), "ScoringServer needs a trained model");
  PELICAN_CHECK(config_.queue_depth >= 1 && config_.max_batch >= 1 &&
                config_.max_pipeline >= 1 && config_.max_connections >= 1);
  if (!config_.access_log_path.empty()) {
    // Throws CheckError when the path can't be opened — better to fail
    // construction than to silently serve without the requested log.
    slow_ring_.SetAccessLog(
        obs::LineSink(config_.access_log_path, /*truncate=*/true));
  }
}

ScoringServer::~ScoringServer() { Drain(); }

std::size_t ScoringServer::ScorerCount() const {
  if (config_.scorers > 0) return config_.scorers;
  const std::size_t cores = std::thread::hardware_concurrency();
  return std::min<std::size_t>(4, std::max<std::size_t>(1, cores));
}

void ScoringServer::Start() {
  PELICAN_CHECK(!running_.load(), "ScoringServer already started");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  PELICAN_CHECK(listen_fd_ >= 0, "socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    PELICAN_CHECK(false, "bad bind address: " + config_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listen_fd_, config_.backlog) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    PELICAN_CHECK(false, "cannot listen on " + config_.bind_address + ":" +
                             std::to_string(config_.port) + ": " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  draining_.store(false);
  running_.store(true);
  serve_start_ = Clock::now();
  // Serving keeps chunk/batch/flow spans but drops per-GEMM kernel
  // spans: a micro-batch of a few rows would pay several kernel spans
  // per ~50µs of score work — the single biggest line in the serve
  // tracing budget, for slices too thin to read in Perfetto anyway.
  prev_kernel_tracing_ = obs::KernelTracingEnabled();
  obs::EnableKernelTracing(false);
  const std::size_t n_scorers = ScorerCount();
  scorer_busy_count_ = n_scorers;
  scorer_busy_ns_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(n_scorers);
  for (std::size_t i = 0; i < n_scorers; ++i) scorer_busy_ns_[i].store(0);
  scorers_.reserve(n_scorers);
  for (std::size_t i = 0; i < n_scorers; ++i) {
    scorers_.emplace_back([this, i] { ScorerLoop(i); });
  }
  listener_ = std::thread([this] { ListenLoop(); });
}

void ScoringServer::Drain() {
  if (!running_.exchange(false)) return;
  draining_.store(true);
  // Order matters: the listener joins every connection thread, each of
  // which may still be waiting on verdicts — so the scorers must keep
  // running until all connections have flushed. Only then is the queue
  // closed (the scorers drain the remainder between them and exit).
  if (listener_.joinable()) listener_.join();
  queue_.Close();
  for (std::thread& scorer : scorers_) {
    if (scorer.joinable()) scorer.join();
  }
  scorers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  obs::EnableKernelTracing(prev_kernel_tracing_);
}

void ScoringServer::ListenLoop() {
  obs::ProfiledThreadScope profiled;
  struct ConnSlot {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::list<ConnSlot> conns;
  const auto reap = [&conns](bool all) {
    for (auto it = conns.begin(); it != conns.end();) {
      if (all || it->done.load()) {
        it->thread.join();
        it = conns.erase(it);
      } else {
        ++it;
      }
    }
  };

  while (!draining_.load()) {
    if (!obs::PollIn(listen_fd_, 50)) {
      reap(false);
      continue;
    }
    const int fd = obs::AcceptRetry(listen_fd_);
    if (fd < 0) continue;
    counters_.connections.fetch_add(1);
    if (active_connections_.load() >= config_.max_connections) {
      counters_.connections_rejected.fetch_add(1);
      std::string reply{kBusyConnectionsReply};
      reply += '\n';
      obs::SendAll(config_.ops, fd, reply);
      obs::LingeringClose(config_.ops, fd, config_.max_line_bytes);
      continue;
    }
    active_connections_.fetch_add(1);
    auto& slot = conns.emplace_back();
    slot.thread = std::thread([this, fd, &slot] {
      obs::ProfiledThreadScope conn_profiled;
      HandleConnection(fd);
      active_connections_.fetch_sub(1);
      slot.done.store(true);
    });
    reap(false);
  }
  reap(true);
}

void ScoringServer::HandleConnection(int fd) {
  // Bound writes kernel-side: a reader that stops consuming verdicts
  // turns SendAll into a failure instead of a wedge.
  timeval tv{};
  tv.tv_sec = config_.write_timeout_ms / 1000;
  tv.tv_usec = (config_.write_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  // Verdict payloads are small and latency-bound: without TCP_NODELAY,
  // Nagle holds each reply until the client's delayed ACK (~40ms),
  // collapsing closed-loop clients to ~25 chunks/sec regardless of how
  // fast the scorers are.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  const auto score_deadline = std::chrono::milliseconds(
      config_.score_deadline_ms);
  // Grace past the scoring deadline before the reader abandons its
  // chunk: covers scorer wake-up and reply hand-off, so `late` replies
  // normally come from the scorer (counted once), and the reader-side
  // timeout only fires if the scorer is truly wedged.
  const auto reply_slack = std::chrono::milliseconds(
      config_.score_deadline_ms + 2000);

  std::string buf;
  bool discarding = false;

  const auto read_chunk = [&](ChunkResult& out) {
    auto partial_since = Clock::now();
    bool had_partial = !buf.empty();
    const auto idle_since = Clock::now();
    // Phase 1: block until at least one complete line (or a terminal
    // condition). Short poll ticks keep drain responsive.
    for (;;) {
      ExtractLines(buf, discarding, out.lines, config_.max_line_bytes,
                   config_.max_pipeline);
      if (!out.lines.empty()) break;
      if (draining_.load()) {
        out.idle = true;
        return;
      }
      const auto now = Clock::now();
      if (had_partial &&
          now - partial_since >
              std::chrono::milliseconds(config_.read_deadline_ms)) {
        out.deadline = true;
        return;
      }
      if (!had_partial &&
          now - idle_since >
              std::chrono::milliseconds(config_.idle_timeout_ms)) {
        out.idle = true;
        return;
      }
      if (!obs::PollIn(fd, 50)) continue;
      char tmp[4096];
      const ssize_t n = obs::RecvRetry(config_.ops, fd, tmp, sizeof tmp);
      if (n == 0) {
        out.eof = true;
        out.truncated = !buf.empty() || discarding;
        return;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
        out.io_error = true;
        return;
      }
      if (!had_partial) {
        had_partial = true;
        partial_since = Clock::now();
      }
      buf.append(tmp, static_cast<std::size_t>(n));
    }
    // Phase 2: greedily take whatever else is already here, up to the
    // pipeline cap — the micro-batcher thrives on bigger chunks.
    while (out.lines.size() < config_.max_pipeline) {
      ExtractLines(buf, discarding, out.lines, config_.max_line_bytes,
                   config_.max_pipeline);
      if (out.lines.size() >= config_.max_pipeline) break;
      if (!obs::PollIn(fd, 0)) break;
      char tmp[4096];
      const ssize_t n = obs::RecvRetry(config_.ops, fd, tmp, sizeof tmp);
      if (n == 0) {
        out.eof = true;
        out.truncated = !buf.empty() || discarding;
        break;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        out.io_error = true;
        break;
      }
      buf.append(tmp, static_cast<std::size_t>(n));
    }
    ExtractLines(buf, discarding, out.lines, config_.max_line_bytes,
                 config_.max_pipeline);
  };

  const bool metrics_on = obs::MetricsEnabled();
  for (;;) {
    ChunkResult chunk;
    read_chunk(chunk);

    if (chunk.io_error) counters_.io_errors.fetch_add(1);
    if (chunk.deadline) counters_.read_deadline_closes.fetch_add(1);
    if (chunk.truncated) counters_.truncated.fetch_add(1);

    if (!chunk.lines.empty()) {
      counters_.records.fetch_add(chunk.lines.size());
      if (metrics_on) Metrics().records.Inc(chunk.lines.size());

      const std::uint64_t chunk_id =
          g_next_chunk_id.fetch_add(1, std::memory_order_relaxed);
      auto pending = std::make_shared<PendingChunk>();
      pending->replies.resize(chunk.lines.size());
      pending->timings.resize(chunk.lines.size());
      std::vector<char> enqueued_slot(chunk.lines.size(), 0);
      std::size_t enqueued_count = 0;
      const auto admitted = Clock::now();
      const auto deadline = admitted + score_deadline;
      {
        obs::TraceSpan ingest("serve ingest", "serve");
        for (std::size_t i = 0; i < chunk.lines.size(); ++i) {
          const ChunkLine& line = chunk.lines[i];
          if (line.oversized) {
            pending->replies[i] = std::string{kErrOversizedReply};
            counters_.quarantined.fetch_add(1);
            if (metrics_on) Metrics().quarantined.Inc();
            continue;
          }
          ParsedRecord parsed = parser_.Parse(line.text);
          if (!parsed.ok) {
            pending->replies[i] = "err," + parsed.error;
            counters_.quarantined.fetch_add(1);
            if (metrics_on) Metrics().quarantined.Inc();
            continue;
          }
          QueueItem item;
          item.chunk = pending;
          item.index = i;
          item.flow_id = chunk_id;
          item.row = std::move(parsed.row);
          item.enqueued = admitted;
          item.deadline = deadline;
          {
            std::lock_guard lock(pending->mu);
            ++pending->pending;
          }
          if (!queue_.TryPush(std::move(item))) {
            {
              std::lock_guard lock(pending->mu);
              --pending->pending;
              pending->replies[i] = std::string{kBusyQueueReply};
            }
            counters_.shed.fetch_add(1);
            if (metrics_on) Metrics().shed.Inc();
          } else {
            enqueued_slot[i] = 1;
            ++enqueued_count;
          }
        }
        // One flow per ingest chunk: start here (bound to this ingest
        // slice), stepped by whichever scorer batches it, ended in the
        // reply slice below — the Perfetto arrow across threads.
        if (enqueued_count > 0) {
          obs::TraceFlow(obs::FlowPhase::kStart, chunk_id, "chunk", "serve");
        }
      }

      {
        obs::TraceSpan wait("serve wait", "serve");
        std::unique_lock lock(pending->mu);
        const bool flushed =
            pending->done.wait_until(lock, deadline + reply_slack, [&] {
              return pending->pending == 0;
            });
        if (!flushed) {
          pending->abandoned = true;
          for (auto& reply : pending->replies) {
            if (reply.empty()) {
              reply = std::string{kLateTimeoutReply};
              counters_.late.fetch_add(1);
              if (metrics_on) Metrics().late.Inc();
            }
          }
        }
      }
      // From here no scorer writes into `pending` (pending == 0, or
      // abandoned was set under the mutex), so replies/timings are
      // safe to read without the lock.

      std::string payload;
      for (const auto& reply : pending->replies) {
        payload += reply;
        payload += '\n';
      }
      bool sent = false;
      {
        obs::TraceSpan reply_span("serve reply", "serve");
        if (enqueued_count > 0) {
          obs::TraceFlow(obs::FlowPhase::kEnd, chunk_id, "chunk", "serve");
        }
        sent = obs::SendAll(config_.ops, fd, payload);
      }
      if (!sent) {
        counters_.write_errors.fetch_add(1);
        break;
      }
      counters_.replies.fetch_add(pending->replies.size());

      // Finalize lifecycles now that the reply bytes are on the wire.
      // Stage durations telescope from one clock — queue + batch +
      // score + reply == total exactly — so the stage histograms
      // reconcile against record_seconds.
      if (enqueued_count > 0) {
        const auto written = Clock::now();
        const auto secs = [](Clock::duration d) {
          return std::chrono::duration<double>(d).count();
        };
        // Stage latencies accumulate into stack-local bucket tables
        // (HistogramBatch) and land on the shared shards once per
        // chunk — the whole micro-batch costs each series one flush.
        struct LifecycleBatches {
          obs::HistogramBatch total, queue, batch, score, reply;
          explicit LifecycleBatches(ServeMetrics& m)
              : total(m.record_seconds),
                queue(m.stage_queue),
                batch(m.stage_batch),
                score(m.stage_score),
                reply(m.stage_reply) {}
        };
        std::optional<LifecycleBatches> batches;
        if (metrics_on) batches.emplace(Metrics());
        for (std::size_t i = 0; i < pending->replies.size(); ++i) {
          if (enqueued_slot[i] == 0) continue;
          const SlotTiming& t = pending->timings[i];
          RecordLifecycle rec;
          rec.chunk = chunk_id;
          rec.index = static_cast<std::uint32_t>(i);
          rec.total_s = secs(written - admitted);
          if (t.level >= 1) rec.queue_s = secs(t.dequeued - admitted);
          if (t.level >= 2) {
            rec.verdict = "ok";
            rec.batch_s = secs(t.assembled - t.dequeued);
            rec.score_s = secs(t.scored - t.assembled);
            rec.reply_s = secs(written - t.scored);
            if (batches) {
              batches->total.Observe(rec.total_s);
              batches->queue.Observe(rec.queue_s);
              batches->batch.Observe(rec.batch_s);
              batches->score.Observe(rec.score_s);
              batches->reply.Observe(rec.reply_s);
            }
          } else {
            rec.verdict =
                pending->replies[i].rfind("err", 0) == 0 ? "err" : "late";
          }
          slow_ring_.Record(rec);
        }
        batches.reset();  // flush the chunk's observations
      }
    }

    if (chunk.eof || chunk.deadline || chunk.idle || chunk.io_error) break;
  }
  obs::LingeringClose(config_.ops, fd, config_.max_line_bytes);
}

void ScoringServer::FulfillSlot(const QueueItem& item, std::string reply,
                                const SlotTiming* timing) {
  PendingChunk& chunk = *item.chunk;
  std::lock_guard lock(chunk.mu);
  if (chunk.abandoned) return;  // reader gave up; reply already written
  chunk.replies[item.index] = std::move(reply);
  if (timing != nullptr) chunk.timings[item.index] = *timing;
  if (--chunk.pending == 0) chunk.done.notify_one();
}

// Runs on every scorer thread. PopBatch is multi-consumer-safe (one
// mutex guards the queue), InspectAll routes through the reentrant
// Score path with a per-thread inference context, and FulfillSlot
// serializes on the owning chunk's mutex — so any number of scorers
// can run this loop concurrently against the shared trained model.
// Counters are atomics; the queue_depth gauge is last-write-wins,
// which is fine for a sampled depth.
void ScoringServer::ScorerLoop(std::size_t scorer_index) {
  // Scorer threads run the GEMM-backed PredictAll hot path — the
  // acceptance target for "serve batch > serve score" attribution.
  obs::ProfiledThreadScope profiled;
  const bool metrics_on = obs::MetricsEnabled();
  const auto linger = std::chrono::milliseconds(config_.batch_linger_ms);
  obs::Gauge busy_gauge;
  if (metrics_on) {
    busy_gauge = obs::Registry::Global().GetGauge(
        "pelican_serve_scorer_busy_ratio",
        "Fraction of wall time this scorer thread spent processing "
        "batches (vs blocked on the ingest queue)",
        obs::Labels{{"engine", engine_},
                    {"scorer", std::to_string(scorer_index)}});
  }
  std::atomic<std::uint64_t>& busy_ns = scorer_busy_ns_[scorer_index];
  for (;;) {
    if (config_.before_batch_hook) config_.before_batch_hook();
    std::vector<QueueItem> batch = queue_.PopBatch(config_.max_batch, linger);
    if (batch.empty()) break;  // closed and drained
    // Everything between here and the loop bottom is "busy": the queue
    // pop above is where an idle scorer parks.
    const auto dequeued_at = Clock::now();
    const std::uint64_t batch_seq = counters_.batches.fetch_add(1);
    if (metrics_on) {
      auto& m = Metrics();
      m.batch_rows.Observe(static_cast<double>(batch.size()));
      // Depth takes the queue mutex and the busy ratio moves slowly,
      // so refresh both gauges on a 1-in-16 batch sample instead of
      // paying for them on every micro-batch.
      if (batch_seq % 16 == 0) {
        m.queue_depth.Set(static_cast<double>(queue_.Depth()));
      }
    }

    obs::TraceSpan batch_span("serve batch", "serve");
    if (obs::TracingEnabled()) {
      // Step each distinct ingest chunk's flow through this batch
      // slice; batches mix chunks, so dedupe. A batch rarely spans
      // more than a few chunks — a full stack array just skips the
      // dedupe and emits duplicate steps, which Perfetto tolerates.
      std::uint64_t seen[16];
      std::size_t n_seen = 0;
      for (const QueueItem& item : batch) {
        bool dup = false;
        for (std::size_t s = 0; s < n_seen; ++s) {
          if (seen[s] == item.flow_id) {
            dup = true;
            break;
          }
        }
        if (dup) continue;
        if (n_seen < 16) seen[n_seen++] = item.flow_id;
        obs::TraceFlow(obs::FlowPhase::kStep, item.flow_id, "chunk",
                       "serve");
      }
    }

    data::RawDataset rows(ids_->schema());
    std::vector<std::size_t> live;
    live.reserve(batch.size());
    SlotTiming late_timing;
    late_timing.dequeued = dequeued_at;
    late_timing.level = 1;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].deadline < dequeued_at) {
        FulfillSlot(batch[i], std::string{kLateDeadlineReply}, &late_timing);
        counters_.late.fetch_add(1);
        if (metrics_on) Metrics().late.Inc();
        continue;
      }
      // Label 0 is a placeholder — verdicts never read it.
      rows.Add(std::move(batch[i].row), 0);
      live.push_back(i);
    }
    const auto finish_batch = [&] {
      const std::uint64_t spent = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              Clock::now() - dequeued_at)
              .count());
      const std::uint64_t total =
          busy_ns.fetch_add(spent, std::memory_order_relaxed) + spent;
      if (metrics_on && batch_seq % 16 == 0) {
        const double elapsed = std::chrono::duration<double>(
                                   Clock::now() - serve_start_)
                                   .count();
        if (elapsed > 0) {
          busy_gauge.Set(static_cast<double>(total) / 1e9 / elapsed);
        }
      }
    };
    if (live.empty()) {
      finish_batch();
      continue;
    }
    const auto assembled_at = Clock::now();

    // The wire parser validates every row before admission, so this
    // only trips on a genuine internal bug — which must cost one batch
    // an err reply, not the whole server an abort.
    try {
      std::vector<core::PelicanIds::Verdict> verdicts;
      {
        obs::TraceSpan score_span("serve score", "serve");
        verdicts = ids_->InspectAll(rows);
      }
      const auto scored_at = Clock::now();
      SlotTiming timing;
      timing.dequeued = dequeued_at;
      timing.assembled = assembled_at;
      timing.scored = scored_at;
      timing.level = 2;
      for (std::size_t j = 0; j < live.size(); ++j) {
        const QueueItem& item = batch[live[j]];
        FulfillSlot(item, RenderVerdict(verdicts[j]), &timing);
      }
      counters_.ok.fetch_add(live.size());
      if (metrics_on) Metrics().ok.Inc(live.size());
    } catch (const std::exception&) {
      for (const std::size_t i : live) {
        FulfillSlot(batch[i], "err,internal", &late_timing);
        counters_.quarantined.fetch_add(1);
        if (metrics_on) Metrics().quarantined.Inc();
      }
    }
    finish_batch();
  }
}

ServeStats ScoringServer::Stats() const {
  ServeStats s;
  s.connections = counters_.connections.load();
  s.connections_rejected = counters_.connections_rejected.load();
  s.records = counters_.records.load();
  s.ok = counters_.ok.load();
  s.quarantined = counters_.quarantined.load();
  s.shed = counters_.shed.load();
  s.late = counters_.late.load();
  s.replies = counters_.replies.load();
  s.batches = counters_.batches.load();
  s.read_deadline_closes = counters_.read_deadline_closes.load();
  s.truncated = counters_.truncated.load();
  s.write_errors = counters_.write_errors.load();
  s.io_errors = counters_.io_errors.load();
  return s;
}

double ScoringServer::ScorerBusyRatio() const {
  if (scorer_busy_count_ == 0) return 0.0;
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - serve_start_).count();
  if (elapsed <= 0) return 0.0;
  double busy_s = 0.0;
  for (std::size_t i = 0; i < scorer_busy_count_; ++i) {
    busy_s +=
        static_cast<double>(scorer_busy_ns_[i].load(std::memory_order_relaxed)) /
        1e9;
  }
  return busy_s / (static_cast<double>(scorer_busy_count_) * elapsed);
}

std::string ScoringServer::StatsJson() const {
  const ServeStats s = Stats();
  obs::Json json;
  json.Set("engine", engine_);
  json.Set("scorers", static_cast<std::uint64_t>(ScorerCount()));
  json.Set("running", running_.load());
  json.Set("draining", draining_.load());
  json.Set("queue_depth", static_cast<std::uint64_t>(queue_.Depth()));
  json.Set("queue_capacity", static_cast<std::uint64_t>(queue_.Capacity()));
  json.Set("connections", s.connections);
  json.Set("connections_rejected", s.connections_rejected);
  json.Set("records", s.records);
  json.Set("ok", s.ok);
  json.Set("quarantined", s.quarantined);
  json.Set("shed", s.shed);
  json.Set("late", s.late);
  json.Set("replies", s.replies);
  json.Set("batches", s.batches);
  json.Set("read_deadline_closes", s.read_deadline_closes);
  json.Set("truncated", s.truncated);
  json.Set("write_errors", s.write_errors);
  json.Set("io_errors", s.io_errors);
  json.Set("scorer_busy_ratio", ScorerBusyRatio());
  json.Set("trace_dropped", obs::TraceDroppedCount());
  json.Set("slow_recorded", slow_ring_.Recorded());
  json.Set("access_log_active", slow_ring_.AccessLogActive());
  json.Set("access_log_failures", slow_ring_.AccessLogFailures());
  // Latency summary read through THE shared quantile helper (the same
  // one the perfbench census serve burst uses), -1 when the histogram
  // has no mass (metrics off, or nothing scored yet).
  auto& reg = obs::Registry::Global();
  const obs::Labels labels{{"engine", engine_}};
  const auto q_ms = [](const obs::Registry::HistogramSnapshot& snap,
                       double q) {
    const double v = obs::HistogramQuantile(snap, q);
    return v < 0 ? -1.0 : v * 1e3;
  };
  const auto total = reg.HistogramValue("pelican_serve_record_seconds", labels);
  json.Set("p50_ms", q_ms(total, 0.5));
  json.Set("p99_ms", q_ms(total, 0.99));
  obs::Json stages;
  for (const char* name : {"queue", "batch", "score", "reply"}) {
    obs::Labels stage_labels = labels;
    stage_labels.emplace_back("stage", name);
    const auto snap =
        reg.HistogramValue("pelican_serve_stage_seconds", stage_labels);
    obs::Json stage;
    stage.Set("p50_ms", q_ms(snap, 0.5));
    stage.Set("p99_ms", q_ms(snap, 0.99));
    stages.Set(name, stage);
  }
  json.Set("stages", stages);
  return json.Str();
}

}  // namespace pelican::serve
