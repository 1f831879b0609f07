// Deterministic parallel loops on one fork-join.
//
// ParallelForShards partitions [begin, end) into ShardCount(n, grain)
// contiguous shards and runs fn(shard, lo, hi) for each; ParallelFor
// runs fn(i) over the same partition. The partition depends only on the
// range length and the grain, never on the thread count, so callers
// that accumulate into per-shard buffers and combine them in shard order
// produce bit-identical results for any PELICAN_THREADS setting
// (including 1, which runs the same shards one after another). This is
// what keeps training losses and saved weights independent of
// parallelism and preserves the exact checkpoint/resume guarantee.
//
// Execution: at N threads the process holds N − 1 pool workers, and the
// calling thread runs shards too. The pool runs one job at a time: its
// threads claim shard indices from one counter, and the call returns
// after the last shard ends. Dispatch allocates nothing.
//  - A call that finds a job in flight (a nested call from a shard, or
//    another thread's call) runs its own shards itself, in shard order;
//    so does a one-shard call and every call at one thread. Such a call
//    touches no pool state.
//  - If `fn` throws, every shard of a dispatched job still runs, and the
//    first exception in shard order is rethrown after the last shard
//    ends; no shard outlives the call. A call its caller runs alone
//    stops at the first throwing shard.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>

namespace pelican {

// ---- threading configuration ---------------------------------------------
// Thread count resolution: SetThreads() overrides the PELICAN_THREADS
// environment variable; 0 (the default) means hardware concurrency,
// 1 forces the serial path.

// Overrides the configured thread count and resizes the global pool if
// it already exists. Must not run while a parallel loop is in flight.
void SetThreads(std::size_t n);

// The configured thread count (0 = auto).
std::size_t Threads();

// The resolved thread count (>= 1): the caller plus the pool's workers.
std::size_t EffectiveThreads();

// Parses a PELICAN_THREADS-style value; nullptr/empty/garbage/negative → 0.
std::size_t ParseThreadsEnv(const char* text);

// ---- parallel loops -------------------------------------------------------

// Runs fn(i) for every i in [begin, end), in ParallelForShards' shards.
// Safe only for bodies whose iterations are independent (disjoint
// writes); such loops are deterministic for any thread count because
// each iteration's arithmetic is self-contained.
void ParallelFor(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& fn,
                 std::size_t grain = 1);

// Upper bound on the number of shards of one loop; fixed (not
// hardware-derived) so reduction trees are machine-independent.
inline constexpr std::size_t kMaxShards = 16;

// Number of shards of a range of length n:
// min(kMaxShards, ceil(n / grain)). Pure function of (n, grain).
std::size_t ShardCount(std::size_t n, std::size_t grain);

// The grain that gives one shard at least `min_shard_work` units of
// work when one index carries `work_per_index`:
// max(1, min_shard_work / work_per_index). Pure function of the shape.
constexpr std::size_t ShardGrain(std::int64_t work_per_index,
                                 std::int64_t min_shard_work) {
  return static_cast<std::size_t>(std::max<std::int64_t>(
      1, min_shard_work / std::max<std::int64_t>(1, work_per_index)));
}

// Partitions [begin, end) into ShardCount contiguous shards of
// ceil(n / ShardCount) indices (shards past the end of the range are
// empty and skipped) and runs fn(shard, lo, hi) for each. Shard
// boundaries are identical whether the shards execute serially or on the
// pool; reductions that accumulate per-shard partials and combine them in
// shard order are therefore bit-identical for any thread count.
void ParallelForShards(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t shard, std::size_t lo,
                             std::size_t hi)>& fn);

}  // namespace pelican
