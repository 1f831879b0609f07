#include "serve/slow_ring.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/json.h"
#include "obs/run_log.h"  // Iso8601Now

namespace pelican::serve {

namespace {

// Recent-traffic window behind the 1-in-N sampler. Big enough to see a
// few seconds of context at serve rates, small enough that /slow stays
// a screenful.
constexpr std::size_t kSampledCap = 128;

// Stage fields render null (JSON NaN → null) when the stage never ran.
double MsOrNan(double seconds) {
  return seconds < 0.0 ? std::numeric_limits<double>::quiet_NaN()
                       : seconds * 1e3;
}

}  // namespace

SlowRecordRing::SlowRecordRing(std::size_t top_k, std::uint64_t sample_every,
                               std::string engine)
    : top_k_(std::max<std::size_t>(1, top_k)),
      sample_every_(sample_every),
      engine_(std::move(engine)) {
  slow_.reserve(top_k_);
}

void SlowRecordRing::Record(const RecordLifecycle& rec) {
  const std::uint64_t seq = recorded_.fetch_add(1, std::memory_order_relaxed);
  const bool sampled =
      sample_every_ > 0 && seq % sample_every_ == 0;
  const bool maybe_slow =
      rec.total_s > slow_floor_.load(std::memory_order_relaxed);
  if (!sampled && !maybe_slow) return;  // the hot-path early out

  Entry entry{rec, std::chrono::system_clock::now()};
  const auto cheaper = [](const Entry& a, const Entry& b) {
    return a.rec.total_s > b.rec.total_s;  // min-heap on total
  };

  bool took_slow = false;
  {
    std::lock_guard lock(mu_);
    if (maybe_slow) {
      // Re-check under the lock: the floor is only a fast-path filter
      // and may lag the true K-th latency by one race.
      if (slow_.size() < top_k_) {
        slow_.push_back(entry);
        std::push_heap(slow_.begin(), slow_.end(), cheaper);
        took_slow = true;
      } else if (rec.total_s > slow_.front().rec.total_s) {
        std::pop_heap(slow_.begin(), slow_.end(), cheaper);
        slow_.back() = entry;
        std::push_heap(slow_.begin(), slow_.end(), cheaper);
        took_slow = true;
      }
      if (slow_.size() >= top_k_) {
        slow_floor_.store(slow_.front().rec.total_s,
                          std::memory_order_relaxed);
      }
    }
    if (sampled) {
      if (sampled_.size() < kSampledCap) {
        sampled_.push_back(entry);
      } else {
        sampled_[sampled_next_] = entry;
      }
      sampled_next_ = (sampled_next_ + 1) % kSampledCap;
      ++sampled_count_;
    }
  }

  if (access_log_.active() && (sampled || took_slow) &&
      !access_log_.WriteLine(Line(took_slow ? "slow" : "sample", entry))) {
    log_failures_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::string SlowRecordRing::Line(const char* kind, const Entry& entry) const {
  obs::Json line;
  const RecordLifecycle& r = entry.rec;
  line.Set("time", obs::Iso8601(entry.when));
  line.Set("kind", kind);
  line.Set("engine", engine_);
  line.Set("chunk", r.chunk);
  line.Set("index", static_cast<std::uint64_t>(r.index));
  line.Set("verdict", r.verdict);
  line.Set("queue_ms", MsOrNan(r.queue_s));
  line.Set("batch_ms", MsOrNan(r.batch_s));
  line.Set("score_ms", MsOrNan(r.score_s));
  line.Set("reply_ms", MsOrNan(r.reply_s));
  line.Set("total_ms", r.total_s * 1e3);
  return line.Str();
}

std::string SlowRecordRing::Jsonl() const {
  std::vector<Entry> slow;
  std::vector<Entry> sampled;
  {
    std::lock_guard lock(mu_);
    slow = slow_;
    // Unroll the circular buffer oldest → newest.
    if (sampled_.size() < kSampledCap) {
      sampled = sampled_;
    } else {
      sampled.reserve(kSampledCap);
      for (std::size_t i = 0; i < kSampledCap; ++i) {
        sampled.push_back(sampled_[(sampled_next_ + i) % kSampledCap]);
      }
    }
  }
  std::sort(slow.begin(), slow.end(), [](const Entry& a, const Entry& b) {
    return a.rec.total_s > b.rec.total_s;  // slowest first
  });

  std::string out;
  for (const Entry& entry : slow) out += Line("slow", entry) + '\n';
  for (const Entry& entry : sampled) out += Line("sample", entry) + '\n';
  return out;
}

std::vector<RecordLifecycle> SlowRecordRing::SlowSnapshot() const {
  std::lock_guard lock(mu_);
  std::vector<RecordLifecycle> out;
  out.reserve(slow_.size());
  for (const Entry& entry : slow_) out.push_back(entry.rec);
  return out;
}

}  // namespace pelican::serve
