// Fixed-size thread pool for the benchmark harness.
//
// The paper's evaluation is embarrassingly parallel across seeds: every
// seed builds its own trace and runs run_comparison independently, and the
// bench code only needs the per-seed results back *in seed order* (the
// Welford accumulators in support/stats.hpp are order-sensitive). The pool
// therefore exposes parallel_for, an indexed fork-join helper: workers pull
// indices from a shared counter, write into caller-owned slots, and the
// caller resumes only when every index has run. Results are bit-identical
// to a serial loop regardless of scheduling because each index touches only
// its own slot and the caller folds the slots serially afterwards.
//
// No work stealing, no task graph — submit() plus the indexed loop is all
// the sweep harness needs, and a plain mutex/condvar queue keeps the
// determinism argument auditable.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace sdem {

class ThreadPool {
 public:
  /// Spawns `threads` workers; values < 1 are clamped to 1. A 1-thread
  /// pool is still a real pool (one worker), so code paths stay identical
  /// between --jobs 1 and --jobs N.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueue one task. Tasks must not submit to the same pool and wait on
  /// the result (the pool has no nesting support; the sweep never needs it).
  void submit(std::function<void()> fn);

  /// Block until every submitted task has finished. Rethrows the first
  /// exception any task threw (the rest are dropped).
  void wait_idle();

  /// Run fn(i) for i in [0, n) across the workers and block until all
  /// complete. fn must be safe to call concurrently for distinct i.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// std::thread::hardware_concurrency with a floor of 1.
  static int hardware_jobs();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable idle_;
  std::size_t in_flight_ = 0;
  std::exception_ptr first_error_;
  bool stop_ = false;
};

/// Grid sweep with a per-tile context: every (operating point, seed) cell
/// is an independent work item, so small-seed sweeps with many points
/// (fig7's 64 cells, table4's single point) still occupy the whole pool.
/// The flat point-major cell range — slot point*seeds + (seed-1), the order
/// the serial reference loop visits — is cut into runs of `tile`
/// consecutive cells and each run becomes one pool task that first calls
/// `make_ctx()` and then hands the same context to every cell in the run —
/// `fn(ctx, point, seed, slot)`. The context is the amortization vehicle: a
/// solver workspace or policy pair created once per tile keeps its grown
/// buffers warm across the tile's cells instead of being rebuilt per cell.
/// tile <= 1 degenerates to one cell per task; the serial path (null pool)
/// uses a single context for the whole grid, which is exactly the largest
/// legal tile. Bit-identity holds for any (tile, jobs) pair because cells
/// write only their own slots and the caller folds slots in flat order —
/// provided `fn` gives the same results for a fresh and a reused context
/// (reuse must be semantically stateless, e.g. policies that reset per run).
template <typename MakeCtx, typename Fn>
void parallel_for_grid_tiled(ThreadPool* pool, int points, int seeds, int tile,
                             MakeCtx&& make_ctx, Fn&& fn) {
  if (points <= 0 || seeds <= 0) return;
  const std::size_t total =
      static_cast<std::size_t>(points) * static_cast<std::size_t>(seeds);
  const std::size_t sseeds = static_cast<std::size_t>(seeds);
  if (pool == nullptr) {
    auto ctx = make_ctx();
    for (std::size_t i = 0; i < total; ++i) {
      fn(ctx, i / sseeds, static_cast<std::uint64_t>(i % sseeds) + 1, i);
    }
    return;
  }
  const std::size_t step = tile > 1 ? static_cast<std::size_t>(tile) : 1;
  const std::size_t tiles = (total + step - 1) / step;
  pool->parallel_for(tiles, [&fn, &make_ctx, sseeds, step,
                             total](std::size_t t) {
    auto ctx = make_ctx();
    const std::size_t hi = std::min(total, (t + 1) * step);
    for (std::size_t i = t * step; i < hi; ++i) {
      fn(ctx, i / sseeds, static_cast<std::uint64_t>(i % sseeds) + 1, i);
    }
  });
}

/// parallel_for_grid_tiled without a context, one cell per pool task:
/// `fn(point, seed, slot)` gets the 0-based point, the 1-based seed and the
/// flat point-major slot, so caller-side folds over slots are bit-identical
/// at any job count.
template <typename Fn>
void parallel_for_grid(ThreadPool* pool, int points, int seeds, Fn&& fn) {
  parallel_for_grid_tiled(
      pool, points, seeds, 1, [] { return 0; },
      [&fn](int, std::size_t point, std::uint64_t seed, std::size_t slot) {
        fn(point, seed, slot);
      });
}

/// The one-point grid: `fn(seed, index)` receives the 1-based seed (what
/// the generators consume) and the 0-based slot index. Serial when pool is
/// null — the reference execution the parallel path must match bit-for-bit.
template <typename Fn>
void parallel_for_seeds(ThreadPool* pool, int seeds, Fn&& fn) {
  parallel_for_grid(pool, 1, seeds,
                    [&fn](std::size_t, std::uint64_t seed, std::size_t i) {
                      fn(seed, i);
                    });
}

}  // namespace sdem
