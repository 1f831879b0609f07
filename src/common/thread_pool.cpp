#include "common/thread_pool.h"

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace pelican {

namespace {

using ShardFn =
    std::function<void(std::size_t shard, std::size_t lo, std::size_t hi)>;

// Registered lazily so a process that never enables metrics renders an
// empty scrape.
obs::Counter& PoolShardsCounter() {
  static obs::Counter counter = obs::Registry::Global().GetCounter(
      "pelican_pool_shards_total",
      "Parallel-loop shards run as part of a job dispatched to the pool");
  return counter;
}

std::atomic<std::size_t>& ThreadsVar() {
  // Seeded once from the environment; SetThreads overrides.
  static std::atomic<std::size_t> threads{
      ParseThreadsEnv(std::getenv("PELICAN_THREADS"))};
  return threads;
}

// One dispatched loop: `shards` shards of `per_shard` indices over
// [begin, end), the last possibly shorter. It lives on the caller's
// stack for the length of the call.
struct Job {
  const ShardFn& fn;
  std::size_t begin;
  std::size_t end;
  std::size_t per_shard;
  std::size_t shards;
  std::atomic<std::size_t> next{0};  // the next unclaimed shard
  std::size_t joined = 0;            // workers inside, under the pool's lock
  std::array<std::exception_ptr, kMaxShards> errors{};

  // Claims and runs shards until none is left. An exception stays in
  // its shard's slot, so the thread goes on claiming.
  void RunShards() {
    for (std::size_t s = next.fetch_add(1, std::memory_order_relaxed);
         s < shards; s = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        // Tracing and metrics only read clocks and bump thread-local
        // cells, so the results are untouched.
        obs::TraceSpan span("pool_shard", "pool");
        if (obs::MetricsEnabled()) PoolShardsCounter().Inc();
        const std::size_t lo = begin + s * per_shard;
        fn(s, lo, std::min(end, lo + per_shard));
      } catch (...) {
        errors[s] = std::current_exception();
      }
    }
  }
};

// EffectiveThreads() − 1 workers that help the caller run one job at a
// time.
class ThreadPool {
 public:
  // The process-wide pool, sized on first use.
  static ThreadPool& Global() {
    static ThreadPool pool(EffectiveThreads() - 1);
    return pool;
  }

  explicit ThreadPool(std::size_t workers) { Start(workers); }
  ~ThreadPool() { Stop(); }

  void Resize(std::size_t workers) {
    {
      std::lock_guard lock(mu_);
      PELICAN_CHECK(job_ == nullptr,
                    "SetThreads while a parallel loop is in flight");
      if (workers == workers_.size()) return;
    }
    Stop();
    Start(workers);
  }

  // Runs every shard of `job` on the caller and the workers, and returns
  // true after the last one ends. Returns false, having run nothing,
  // when another job is in flight or there is no worker.
  bool Run(Job& job) {
    std::size_t helpers = 0;
    {
      std::lock_guard lock(mu_);
      if (job_ != nullptr || workers_.empty()) return false;
      job_ = &job;
      ++generation_;
      helpers = std::min(job.shards - 1, workers_.size());
    }
    for (std::size_t i = 0; i < helpers; ++i) wake_.notify_one();
    job.RunShards();
    // Every shard is claimed; the ones still running belong to joined
    // workers.
    std::unique_lock lock(mu_);
    done_.wait(lock, [&job] { return job.joined == 0; });
    job_ = nullptr;
    return true;
  }

 private:
  void Start(std::size_t workers) {
    stopping_ = false;
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void Stop() {
    {
      std::lock_guard lock(mu_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (auto& w : workers_) w.join();
    workers_.clear();
  }

  void WorkerLoop() {
    // CPU-time sampling: workers burn the GEMM/conv cycles, so they are
    // the threads the profiler most needs to see. Idle workers cost
    // nothing (the timer counts consumed CPU, not wall time).
    obs::ProfiledThreadScope profiled;
    std::uint64_t seen = 0;  // a published job's generation is at least 1
    for (;;) {
      Job* job = nullptr;
      {
        std::unique_lock lock(mu_);
        wake_.wait(lock, [&] {
          return stopping_ || (job_ != nullptr && generation_ != seen);
        });
        if (stopping_) return;
        seen = generation_;
        job = job_;
        ++job->joined;
      }
      job->RunShards();
      {
        std::lock_guard lock(mu_);
        // The job may end, and leave the caller's stack, once unlocked.
        if (--job->joined != 0) continue;
      }
      done_.notify_one();
    }
  }

  std::mutex mu_;
  std::condition_variable wake_;  // workers: a job was published, or stop
  std::condition_variable done_;  // the caller: the last worker left
  std::vector<std::thread> workers_;
  Job* job_ = nullptr;            // the job in flight
  std::uint64_t generation_ = 0;  // jobs published so far
  bool stopping_ = false;
};

}  // namespace

std::size_t ParseThreadsEnv(const char* text) {
  if (text == nullptr || *text == '\0') return 0;
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < 0) return 0;
  return static_cast<std::size_t>(value);
}

std::size_t Threads() { return ThreadsVar().load(std::memory_order_relaxed); }

std::size_t EffectiveThreads() {
  const std::size_t configured = Threads();
  if (configured != 0) return configured;
  // Read once: the pool is sized from it, and each read of the core
  // count makes system calls that every dispatched loop would pay.
  static const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return cores;
}

void SetThreads(std::size_t n) {
  ThreadsVar().store(n, std::memory_order_relaxed);
  ThreadPool::Global().Resize(EffectiveThreads() - 1);
}

std::size_t ShardCount(std::size_t n, std::size_t grain) {
  if (n == 0) return 0;
  if (grain == 0) grain = 1;
  return std::min(kMaxShards, (n + grain - 1) / grain);
}

void ParallelForShards(std::size_t begin, std::size_t end, std::size_t grain,
                       const ShardFn& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t count = ShardCount(n, grain);
  const std::size_t per_shard = (n + count - 1) / count;
  // The boundaries above depend only on (n, grain); the execution
  // strategy below must not change them.
  const std::size_t shards = (n + per_shard - 1) / per_shard;  // non-empty
  if (shards > 1 && EffectiveThreads() > 1) {
    Job job{fn, begin, end, per_shard, shards};
    if (ThreadPool::Global().Run(job)) {
      for (const auto& error : job.errors) {
        if (error) std::rethrow_exception(error);
      }
      return;
    }
  }
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t lo = begin + s * per_shard;
    fn(s, lo, std::min(end, lo + per_shard));
  }
}

void ParallelFor(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& fn,
                 std::size_t grain) {
  // One shard, or every shard in order on the caller, is this loop; it
  // keeps the one-thread path free of the partition's arithmetic.
  if (begin >= end || end - begin <= grain || EffectiveThreads() <= 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  ParallelForShards(begin, end, grain,
                    [&fn](std::size_t, std::size_t lo, std::size_t hi) {
                      for (std::size_t i = lo; i < hi; ++i) fn(i);
                    });
}

}  // namespace pelican
