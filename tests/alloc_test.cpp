// Heap allocations per parallel-loop dispatch and per Score call.
//
// This binary replaces the global operator new (every form, with the
// matching deletes) to count each heap allocation of the process, the
// pool's workers included, so it runs as a test binary of its own.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <limits>
#include <new>
#include <thread>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "models/pelican.h"
#include "nn/inference_context.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* Allocate(std::size_t n, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  n = std::max<std::size_t>(n, 1);
  if (align <= alignof(std::max_align_t)) return std::malloc(n);
  return std::aligned_alloc(align, (n + align - 1) / align * align);
}

void* AllocateOrThrow(std::size_t n, std::size_t align) {
  if (void* p = Allocate(n, align)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return AllocateOrThrow(n, 0); }
void* operator new[](std::size_t n) { return AllocateOrThrow(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return AllocateOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return AllocateOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return Allocate(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return Allocate(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace pelican;

// Heap allocations made, on any thread, while `fn` runs.
template <typename Fn>
std::size_t AllocationsOf(Fn&& fn) {
  const std::size_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

// Pins the configured thread count for one test, restoring it after.
class ThreadGuard {
 public:
  explicit ThreadGuard(std::size_t n) : previous_(Threads()) { SetThreads(n); }
  ~ThreadGuard() { SetThreads(previous_); }

 private:
  std::size_t previous_;
};

// Returns once all three workers of a 4-thread pool have started (a
// starting thread allocates): four shards that each wait for the others
// finish only on four threads at once. False if that took 10 s.
bool StartAllWorkers() {
  std::atomic<int> arrived{0};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  ParallelFor(0, 4, [&](std::size_t) {
    arrived++;
    while (arrived.load() < 4 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  return std::chrono::steady_clock::now() < deadline;
}

TEST(Dispatch, ParallelLoopsAllocateNothingPerCall) {
  ThreadGuard guard(4);
  ASSERT_TRUE(StartAllWorkers());
  const auto caller = std::this_thread::get_id();
  std::atomic<std::size_t> off_caller{0};
  // Each shard sleeps so that the workers, woken per call, take some.
  const auto shard = [&] {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    if (std::this_thread::get_id() != caller) off_caller++;
  };
  const std::array<std::function<void()>, 3> loops = {
      [&] { ParallelFor(0, 2, [&](std::size_t) { shard(); }); },
      [&] { ParallelFor(0, 16, [&](std::size_t) { shard(); }); },
      [&] {
        ParallelForShards(0, 16, 1, [&](std::size_t, std::size_t,
                                        std::size_t) { shard(); });
      }};
  for (std::size_t l = 0; l < loops.size(); ++l) {
    for (int i = 0; i < 5; ++i) loops[l]();  // first use of each path
    off_caller = 0;
    const std::size_t allocations = AllocationsOf([&] {
      for (int i = 0; i < 100; ++i) loops[l]();
    });
    EXPECT_EQ(allocations, 0U) << "loop " << l;
    EXPECT_GT(off_caller.load(), 0U) << "loop " << l << " never dispatched";
  }
}

// A batch-64 Score of full-width NSL Residual-41 (121 features and
// channels): each of its 64-row GEMMs is a two-shard job at 4 threads.
TEST(Dispatch, ScoreAllocatesAsMuchAtFourThreadsAsAtOne) {
  Rng rng(7);
  const auto net = models::BuildPelican(121, 5, rng);
  const Tensor x = Tensor::RandomNormal({64, 121}, rng, 0.0F, 1.0F);
  nn::InferenceContext ctx;
  // A worker's workspace grows until it has held the largest panel a
  // shard gives it, and which worker claims which shard varies; the
  // fewest allocations over several calls is the steady-state count.
  const auto per_call = [&](std::size_t threads) {
    ThreadGuard guard(threads);
    for (int i = 0; i < 5; ++i) (void)net->Score(x, ctx);
    std::size_t fewest = std::numeric_limits<std::size_t>::max();
    for (int i = 0; i < 10; ++i) {
      fewest = std::min(fewest,
                        AllocationsOf([&] { (void)net->Score(x, ctx); }));
    }
    return fewest;
  };
  const std::size_t one = per_call(1);
  const std::size_t four = per_call(4);
  EXPECT_EQ(four, one);
  std::cout << "allocations per batch-64 Score: " << one << " at 1 thread, "
            << four << " at 4\n";
}

}  // namespace
