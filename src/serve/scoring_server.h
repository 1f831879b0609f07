// serve::ScoringServer — the hardened scoring data plane.
//
// A multi-threaded TCP server that accepts line-delimited CSV flow
// records (wire.h), micro-batches them through the GEMM-backed
// PelicanIds::InspectAll hot path, and answers one verdict line per
// record, in order. Robustness is the design center:
//
//   admission    bounded MPSC queue; full → `busy,queue_full` reply +
//                counter, never unbounded buffering. A connection cap
//                sheds excess clients the same way.
//   deadlines    per-connection read deadline (a peer stalled
//                mid-record is cut loose, counted) and a per-record
//                scoring deadline (work no scorer can reach in time
//                is answered `late`, counted, never silently stalled).
//   quarantine   malformed lines get one `err,<reason>` reply via the
//                StreamDetector rejection predicate; one bad line
//                never kills a connection, one bad connection never
//                kills the server.
//   slow peers   SO_SNDTIMEO-bounded writes with lingering close; all
//                socket I/O is EINTR-safe (obs/net_util) and routed
//                through a SocketOps seam for fault injection.
//   drain        Drain() stops accepting, lets in-flight chunks
//                finish, flushes the queue through the scorers, then
//                joins — no accepted record is lost (Stats() shows
//                records == replies after drain).
//   lifecycle    every enqueued record is stamped at admission,
//                dequeue, batch assembly, score, and reply write; the
//                deltas telescope into the per-stage latency
//                histograms pelican_serve_stage_seconds{stage=queue|
//                batch|score|reply}, one trace flow per ingest chunk
//                links connection thread → scorer → reply in
//                Perfetto, and the slowest records surface in /slow
//                and the optional access log (DESIGN.md §13).
//
// Threads: one listener, one thread per connection (bounded by
// max_connections), and N scorers (`scorers`, default min(4, cores))
// pulling micro-batches off the shared queue concurrently. Parallel
// scoring is safe because every scorer runs the const, reentrant
// Score path (per-thread inference contexts; weights are read-only
// after training), never the cache-mutating Forward. Verdicts stay
// bit-identical to the batch CLI — and across any scorer count —
// because the blocked GEMM's accumulation order is independent of
// batch composition, and the reply-slot protocol keeps per-connection
// ordering regardless of which scorer answers which record.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/pelican_ids.h"
#include "obs/net_util.h"
#include "serve/bounded_queue.h"
#include "serve/slow_ring.h"
#include "serve/wire.h"

namespace pelican::serve {

struct ScoringServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;              // 0 = kernel-assigned
  int backlog = 64;
  std::size_t max_connections = 32;    // excess → busy,connections
  std::size_t queue_depth = 1024;      // bounded ingest queue capacity
  std::size_t max_batch = 64;          // scorer micro-batch rows
  int batch_linger_ms = 1;             // wait for batch to fill
  std::size_t max_line_bytes = 8192;   // longer lines → err,oversized
  std::size_t max_pipeline = 128;      // lines taken per read chunk
  int read_deadline_ms = 5000;         // stalled mid-record → close
  int idle_timeout_ms = 30000;         // quiet connection → close
  int score_deadline_ms = 2000;        // older queued work → late
  int write_timeout_ms = 5000;         // slow reader → drop + close
  std::size_t scorers = 0;             // scorer threads; 0 = min(4, cores)
  std::size_t slow_top_k = 32;         // /slow slowest-record slots
  std::uint64_t sample_every = 0;      // 1-in-N access sampling; 0 = off
  std::string access_log_path;         // JSONL access-log sink; "" = off
  obs::SocketOps ops;                  // test seam: fault injection
  // Test seam: runs on each scorer thread at the top of every loop
  // iteration, before it pops a batch — blocking here holds the queue
  // at a deterministic depth for shed/deadline tests.
  std::function<void()> before_batch_hook;
};

// Monotonic counters, readable at any time (atomics, no locks). After
// Drain(), absent write failures, the conservation law holds:
// records == ok + quarantined + shed + late == replies — every
// accepted line was answered exactly once (tests assert this).
struct ServeStats {
  std::uint64_t connections = 0;          // accepted sockets
  std::uint64_t connections_rejected = 0; // busy,connections sheds
  std::uint64_t records = 0;              // complete lines accepted
  std::uint64_t ok = 0;
  std::uint64_t quarantined = 0;          // err,* replies
  std::uint64_t shed = 0;                 // busy,queue_full replies
  std::uint64_t late = 0;                 // late,* replies
  std::uint64_t replies = 0;              // reply lines written
  std::uint64_t batches = 0;              // scorer micro-batches run
  std::uint64_t read_deadline_closes = 0; // stalled-mid-record cuts
  std::uint64_t truncated = 0;            // EOF with a partial record
  std::uint64_t write_errors = 0;         // reply writes that failed
  std::uint64_t io_errors = 0;            // connection-fatal recv errors
};

class ScoringServer {
 public:
  // `ids` must be trained and must outlive the server.
  ScoringServer(const core::PelicanIds& ids, ScoringServerConfig config = {});
  ~ScoringServer();  // implies Drain()
  ScoringServer(const ScoringServer&) = delete;
  ScoringServer& operator=(const ScoringServer&) = delete;

  // Binds, listens, launches listener + scorers. Throws CheckError
  // when the socket can't be set up.
  void Start();

  // Graceful shutdown: stop accepting, finish in-flight chunks, drain
  // the queue through the scorers, join everything. Blocking,
  // idempotent, called by the destructor.
  void Drain();

  // Signal-handler-safe nudge: flips the draining flag so the serving
  // loops begin winding down; a later Drain() joins them.
  void RequestDrain() { draining_.store(true); }

  [[nodiscard]] bool Running() const { return running_.load(); }
  [[nodiscard]] bool Draining() const { return draining_.load(); }
  [[nodiscard]] std::uint16_t Port() const { return port_; }
  [[nodiscard]] std::size_t QueueDepth() const { return queue_.Depth(); }
  [[nodiscard]] ServeStats Stats() const;
  [[nodiscard]] std::string StatsJson() const;  // the /serve payload

  // The /slow payload: slowest records (descending total latency) then
  // the 1-in-N sampled recents, one JSON object per line.
  [[nodiscard]] std::string SlowJsonl() const { return slow_ring_.Jsonl(); }
  [[nodiscard]] const SlowRecordRing& SlowRing() const { return slow_ring_; }

  // Fraction of wall time the scorer threads spent processing batches
  // (sum over scorers / (scorers × elapsed)); 0 before Start().
  [[nodiscard]] double ScorerBusyRatio() const;

  // Which predict engine answers verdicts: "int8" when the model had
  // quantized inference enabled at construction, else "fp32". Also the
  // `engine` label on every pelican_serve_* series.
  [[nodiscard]] const std::string& Engine() const { return engine_; }

  // The resolved scorer-thread count this server runs with (config
  // value, or min(4, hardware cores) when the config left it 0).
  [[nodiscard]] std::size_t ScorerCount() const;

 private:
  struct PendingChunk;
  struct ServeMetrics;
  struct SlotTiming;
  struct QueueItem {
    std::shared_ptr<PendingChunk> chunk;
    std::size_t index = 0;       // reply slot within the chunk
    std::uint64_t flow_id = 0;   // ingest-chunk id (trace flow + /slow)
    std::vector<double> row;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline;
  };

  void ListenLoop();
  void HandleConnection(int fd);
  void ScorerLoop(std::size_t scorer_index);
  void FulfillSlot(const QueueItem& item, std::string reply,
                   const SlotTiming* timing);
  ServeMetrics& Metrics();

  const core::PelicanIds* ids_;
  ScoringServerConfig config_;
  // Schema-bound hash-indexed parser: vocabulary lookups are O(1) per
  // cell on the connection-reader hot path.
  WireParser parser_;
  std::string engine_;
  BoundedQueue<QueueItem> queue_;

  // Lazily-registered per-engine serve metrics (labels can't be known
  // before construction, so these can't be process-static).
  std::once_flag metrics_once_;
  std::unique_ptr<ServeMetrics> metrics_;

  // Tail-latency attribution (DESIGN.md §13): the slowest-record ring
  // plus 1-in-N samples behind /slow and the optional access log.
  SlowRecordRing slow_ring_;

  std::thread listener_;
  std::vector<std::thread> scorers_;
  // Nanoseconds each scorer spent processing batches (not blocked in
  // PopBatch), indexed by scorer. Sized at Start(), read by
  // ScorerBusyRatio(); unique_ptr array because atomics don't move.
  std::unique_ptr<std::atomic<std::uint64_t>[]> scorer_busy_ns_;
  std::size_t scorer_busy_count_ = 0;
  std::chrono::steady_clock::time_point serve_start_{};
  bool prev_kernel_tracing_ = true;  // restored by Drain()
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::size_t> active_connections_{0};
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;

  struct Counters {
    std::atomic<std::uint64_t> connections{0};
    std::atomic<std::uint64_t> connections_rejected{0};
    std::atomic<std::uint64_t> records{0};
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> quarantined{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> late{0};
    std::atomic<std::uint64_t> replies{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> read_deadline_closes{0};
    std::atomic<std::uint64_t> truncated{0};
    std::atomic<std::uint64_t> write_errors{0};
    std::atomic<std::uint64_t> io_errors{0};
  };
  Counters counters_;
};

}  // namespace pelican::serve
