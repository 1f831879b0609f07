// Thread-local scratch arena for kernel temporaries.
//
// Hot paths (GEMM packing panels, Conv1D im2col buffers) need large
// scratch arrays every step; allocating them per call dominates small
// batches and fragments the heap. Workspace::Tls() hands each thread a
// growing arena whose blocks are never freed, so steady-state training
// performs zero scratch allocations: the same pages are reused batch
// after batch.
//
// Usage:
//   Workspace::Scope scope;                       // marks the arena
//   float* buf = Workspace::Tls().Alloc(n);       // 64-byte aligned
//   ...                                           // scope dtor releases
//
// Scopes nest (an op that opens a scope may call another op that opens
// its own); allocations made inside a scope are released when it is
// destroyed, but the backing blocks stay reserved for reuse. Pointers
// are stable for the lifetime of their scope — growing the arena
// appends new blocks rather than moving old ones.
//
// Contents are uninitialized. Each thread owns its arena exclusively,
// so no synchronization is needed; buffers handed to other threads
// (e.g. a packed panel read by pool workers) are safe to *read* inside
// a ParallelFor's shards: the pool's lock, taken to publish the job,
// orders the caller's writes before the workers' reads.
#pragma once

#include <cstddef>
#include <vector>

namespace pelican {

class Workspace {
 public:
  // The calling thread's arena (constructed on first use, destroyed at
  // thread exit).
  static Workspace& Tls();

  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  // RAII mark/release of an arena — the calling thread's TLS arena by
  // default, or an explicitly supplied one (e.g. an
  // nn::InferenceContext's private arena).
  class Scope {
   public:
    Scope();
    explicit Scope(Workspace& ws);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Workspace& ws_;
    std::size_t block_;
    std::size_t used_;
  };

  // `n` floats of uninitialized, 64-byte-aligned scratch, valid until
  // the innermost enclosing Scope is destroyed.
  float* Alloc(std::size_t n);

  // Total floats reserved across all blocks (for tests/introspection).
  [[nodiscard]] std::size_t reserved() const;

 private:
  struct Block {
    explicit Block(std::size_t cap);
    ~Block();
    Block(Block&& other) noexcept;
    Block(const Block&) = delete;
    Block& operator=(const Block&) = delete;
    Block& operator=(Block&&) = delete;

    float* data = nullptr;
    std::size_t capacity = 0;  // floats
    std::size_t used = 0;      // floats, always a multiple of kAlignFloats
  };

  std::vector<Block> blocks_;
  std::size_t active_ = 0;  // index of the block Alloc currently fills
};

}  // namespace pelican
