// serve::SlowRecordRing — where did my tail latency go?
//
// The stage histograms (queue|batch|score|reply) say WHERE time goes in
// aggregate; this ring says WHICH records paid it. It keeps two bounded
// views of the record lifecycle stream:
//
//   top-K      the K slowest records ever finalized (by total admission
//              →reply-write latency), a min-heap behind an atomic
//              threshold: a record cheaper than the current K-th slowest
//              costs one relaxed load + compare on the hot path, no
//              lock. Only genuinely slow records take the mutex.
//   sampled    every N-th finalized record (1-in-N admission counter),
//              newest-wins ring of recent traffic for "what does a
//              normal record look like right now".
//
// Both views export as structured JSONL (`Jsonl()`, served at /slow),
// and every entry that enters either view is also appended to the
// optional access-log LineSink — the same atomic single-write sink the
// run log and PELICAN_LOG use, so interleaved writers can't tear lines.
//
// Thread-safe: any number of connection/scorer threads may Record()
// concurrently with Jsonl() readers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/line_sink.h"

namespace pelican::serve {

// One finalized record's lifecycle. Stage durations are seconds;
// negative means "stage never happened" (e.g. a late,timeout record
// that no scorer reached renders those fields as JSON null).
struct RecordLifecycle {
  std::uint64_t chunk = 0;   // ingest-chunk id (flow id in the trace)
  std::uint32_t index = 0;   // reply slot within the chunk
  const char* verdict = "";  // "ok" | "late" (records that ran the pipeline)
  double queue_s = -1.0;     // admission → scorer pop
  double batch_s = -1.0;     // pop → micro-batch assembled
  double score_s = -1.0;     // assembled → verdicts ready
  double reply_s = -1.0;     // verdicts ready → reply bytes written
  double total_s = 0.0;      // admission → reply bytes written
};

class SlowRecordRing {
 public:
  // `top_k` slow slots; `sample_every` = 1-in-N access sampling
  // (0 disables sampling); `engine` is stamped into every JSONL line.
  SlowRecordRing(std::size_t top_k, std::uint64_t sample_every,
                 std::string engine);

  // Mirrors ring entries (slow + sampled) to `sink` as JSONL.
  void SetAccessLog(obs::LineSink sink) { access_log_ = std::move(sink); }
  [[nodiscard]] bool AccessLogActive() const { return access_log_.active(); }

  // Hot path. Cheap when the record is neither slow nor sampled.
  void Record(const RecordLifecycle& rec);

  // One JSON object per line: slow entries first (descending total),
  // then sampled entries (oldest → newest). Empty string when nothing
  // has been recorded.
  [[nodiscard]] std::string Jsonl() const;

  [[nodiscard]] std::uint64_t Recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t AccessLogFailures() const {
    return log_failures_.load(std::memory_order_relaxed);
  }

  // Test hook: the current slow set, unordered.
  [[nodiscard]] std::vector<RecordLifecycle> SlowSnapshot() const;

 private:
  struct Entry {
    RecordLifecycle rec;
    // Raw stamp; rendered to ISO-8601 lazily (Jsonl / access-log
    // append), keeping the ~1µs gmtime+snprintf off the hot path.
    std::chrono::system_clock::time_point when;
  };

  // The JSONL object (no newline) of /slow and the access log.
  [[nodiscard]] std::string Line(const char* kind, const Entry& entry) const;

  std::size_t top_k_;
  std::uint64_t sample_every_;
  std::string engine_;
  obs::LineSink access_log_;

  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> log_failures_{0};
  // total_s of the cheapest record in a FULL slow set; records below it
  // can skip the lock. -1 while the set still has room.
  std::atomic<double> slow_floor_{-1.0};

  mutable std::mutex mu_;            // guards slow_ + sampled_
  std::vector<Entry> slow_;          // min-heap by rec.total_s
  std::vector<Entry> sampled_;       // circular, newest overwrites oldest
  std::size_t sampled_next_ = 0;
  std::size_t sampled_count_ = 0;
};

}  // namespace pelican::serve
