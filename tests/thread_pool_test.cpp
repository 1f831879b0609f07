// ParallelFor concurrency contract: exception join-before-propagate,
// nested-call serial fallback, concurrent callers, shard coverage,
// thread-count-invariant shard layout, and bit-identical training for 1
// vs N threads.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/trainer.h"
#include "models/pelican.h"
#include "nn/inference_context.h"
#include "tensor/ops.h"

namespace {

using namespace pelican;

// Pins the configured thread count for one test, restoring it after.
class ThreadGuard {
 public:
  explicit ThreadGuard(std::size_t n) : previous_(Threads()) { SetThreads(n); }
  ~ThreadGuard() { SetThreads(previous_); }

 private:
  std::size_t previous_;
};

TEST(ParallelFor, ExceptionJoinsAllShardsBeforePropagating) {
  ThreadGuard guard(4);
  std::atomic<int> active{0};
  std::atomic<bool> threw{false};
  auto body = [&](std::size_t i) {
    active++;
    if (i == 0 && !threw.exchange(true)) {
      active--;
      throw std::runtime_error("shard failure");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    active--;
  };
  EXPECT_THROW(ParallelFor(0, 64, body, 1), std::runtime_error);
  // Every shard must have finished by the time the exception escapes —
  // otherwise they'd still be running against a dead stack frame.
  EXPECT_EQ(active.load(), 0);
}

TEST(ParallelFor, PropagatesTheExceptionMessage) {
  ThreadGuard guard(4);
  try {
    ParallelFor(0, 16, [](std::size_t) {
      throw std::runtime_error("boom");
    });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

// A loop issued from a shard, or from any thread while another thread's
// job is in flight, runs on the thread that issued it.
void ExpectNestedLoopsRunOnTheirThread() {
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 100;
  std::vector<std::vector<int>> hits(kOuter,
                                     std::vector<int>(kInner, 0));
  std::atomic<int> nested_parallelism{0};
  ParallelFor(0, kOuter, [&](std::size_t o) {
    const auto outer_thread = std::this_thread::get_id();
    ParallelFor(0, kInner, [&, o, outer_thread](std::size_t i) {
      // The nested loop must run on the thread that issued it.
      if (std::this_thread::get_id() != outer_thread) nested_parallelism++;
      hits[o][i]++;
    });
  });
  EXPECT_EQ(nested_parallelism.load(), 0);
  for (const auto& row : hits) {
    for (int h : row) EXPECT_EQ(h, 1);
  }
}

TEST(ParallelFor, NestedCallFallsBackToSerialAndCompletes) {
  ThreadGuard guard(4);
  ExpectNestedLoopsRunOnTheirThread();

  // Again while another thread's job holds the pool.
  std::atomic<bool> in_flight{false};
  std::atomic<bool> done{false};
  std::thread other([&] {
    ParallelFor(0, 2, [&](std::size_t) {
      in_flight = true;
      while (!done) std::this_thread::yield();
    });
  });
  while (!in_flight) std::this_thread::yield();
  ExpectNestedLoopsRunOnTheirThread();
  done = true;
  other.join();
}

// Four threads call at once: each call runs as the pool's job, or runs
// its shards itself when it finds another in flight. Either way it
// writes the 1-thread bytes.
TEST(ParallelFor, ConcurrentCallersWriteTheOneThreadBytes) {
  Rng rng(5);
  const Tensor dy = Tensor::RandomNormal({1000, 121}, rng, 0, 1);
  ASSERT_GT(ShardCount(1000, ShardGrain(121, 1 << 15)), 1U);
  const auto net = models::BuildPelican(24, 3, rng);
  const Tensor x = Tensor::RandomNormal({64, 24}, rng, 0, 1);
  const auto sum_rows = [&dy] {
    std::vector<float> sums(121, 0.0F);
    SumRowsInto(dy.data().data(), 1000, 121, sums.data());
    return sums;
  };
  std::vector<float> sums1;
  Tensor scores1;
  {
    ThreadGuard guard(1);
    sums1 = sum_rows();
    scores1 = net->Score(x, nn::InferenceContext::ThisThread());
  }
  ThreadGuard guard(4);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      nn::InferenceContext ctx;
      for (int i = 0; i < 100; ++i) {
        const std::vector<float> sums = sum_rows();
        if (std::memcmp(sums.data(), sums1.data(),
                        sums.size() * sizeof(float)) != 0) {
          mismatches++;
        }
        const Tensor scores = net->Score(x, ctx);
        if (std::memcmp(scores.data().data(), scores1.data().data(),
                        scores1.data().size() * sizeof(float)) != 0) {
          mismatches++;
        }
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ParallelFor, EmptyRangeRunsNothing) {
  ThreadGuard guard(4);
  std::atomic<int> calls{0};
  ParallelFor(5, 5, [&](std::size_t) { calls++; });
  ParallelFor(7, 3, [&](std::size_t) { calls++; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, RangeSmallerThanGrainStaysSerialAndCovers) {
  ThreadGuard guard(4);
  const auto caller = std::this_thread::get_id();
  std::vector<int> hits(7, 0);
  std::atomic<int> off_thread{0};
  ParallelFor(
      0, 7,
      [&](std::size_t i) {
        if (std::this_thread::get_id() != caller) off_thread++;
        hits[i]++;
      },
      16);
  EXPECT_EQ(off_thread.load(), 0);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, LargeRangeCoversEveryIndexOnce) {
  ThreadGuard guard(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(0, kN, [&](std::size_t i) { hits[i]++; }, 1);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForShards, PartitionIsContiguousOrderedAndComplete) {
  ThreadGuard guard(1);  // serial so we can record without synchronizing
  std::vector<std::array<std::size_t, 3>> seen;
  ParallelForShards(10, 110, 7,
                    [&](std::size_t s, std::size_t lo, std::size_t hi) {
                      seen.push_back({s, lo, hi});
                    });
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.front()[1], 10U);
  EXPECT_EQ(seen.back()[2], 110U);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i][0], i);
    EXPECT_LT(seen[i][1], seen[i][2]);
    if (i > 0) {
      EXPECT_EQ(seen[i][1], seen[i - 1][2]);
    }
  }
}

TEST(ParallelForShards, ShardLayoutIgnoresThreadCount) {
  const auto layout_with = [](std::size_t threads) {
    ThreadGuard guard(threads);
    std::mutex mu;
    std::vector<std::array<std::size_t, 3>> seen;
    ParallelForShards(0, 1000, 3,
                      [&](std::size_t s, std::size_t lo, std::size_t hi) {
                        std::lock_guard lock(mu);
                        seen.push_back({s, lo, hi});
                      });
    std::sort(seen.begin(), seen.end());
    return seen;
  };
  EXPECT_EQ(layout_with(1), layout_with(4));
  EXPECT_EQ(ShardCount(1000, 3), ShardCount(1000, 3));
  EXPECT_EQ(ShardCount(0, 1), 0U);
  EXPECT_LE(ShardCount(1U << 20U, 1), kMaxShards);
  EXPECT_EQ(ShardCount(5, 10), 1U);
}

TEST(Threads, ParseEnvValues) {
  EXPECT_EQ(ParseThreadsEnv(nullptr), 0U);
  EXPECT_EQ(ParseThreadsEnv(""), 0U);
  EXPECT_EQ(ParseThreadsEnv("4"), 4U);
  EXPECT_EQ(ParseThreadsEnv("0"), 0U);
  EXPECT_EQ(ParseThreadsEnv("-2"), 0U);
  EXPECT_EQ(ParseThreadsEnv("abc"), 0U);
  EXPECT_EQ(ParseThreadsEnv("4x"), 0U);
}

// Trains a small Pelican for two epochs under `threads` workers and
// returns (loss history, flattened final weights).
std::pair<std::vector<float>, std::vector<float>> TrainWith(
    std::size_t threads) {
  ThreadGuard guard(threads);
  Rng data_rng(77);
  auto x = Tensor::RandomNormal({96, 24}, data_rng, 0, 1);
  std::vector<int> y(96);
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = static_cast<int>(i % 3);
  }
  Rng net_rng(1234);
  auto net = models::BuildPelican(24, 3, net_rng, 8);
  core::TrainConfig config;
  config.epochs = 2;
  config.batch_size = 32;
  config.seed = 99;
  core::Trainer trainer(*net, config);
  const auto history = trainer.Fit(x, y);
  std::vector<float> losses;
  for (const auto& e : history) {
    losses.push_back(e.train_loss);
    losses.push_back(e.train_accuracy);
  }
  std::vector<float> weights;
  for (const auto& p : net->Params()) {
    const auto span = p.value->data();
    weights.insert(weights.end(), span.begin(), span.end());
  }
  return {losses, weights};
}

TEST(Determinism, TrainingIsBitIdenticalForOneVsFourThreads) {
  const auto [losses1, weights1] = TrainWith(1);
  const auto [losses4, weights4] = TrainWith(4);
  ASSERT_EQ(losses1.size(), losses4.size());
  ASSERT_EQ(weights1.size(), weights4.size());
  // Bit-identical, not approximately equal: memcmp over the raw floats.
  EXPECT_EQ(std::memcmp(losses1.data(), losses4.data(),
                        losses1.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(weights1.data(), weights4.data(),
                        weights1.size() * sizeof(float)),
            0);
}

}  // namespace
