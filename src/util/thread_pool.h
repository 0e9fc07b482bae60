// Shared parallel compute runtime for the hot paths (tensor kernels,
// selection scoring, evaluation).
//
// Design goals, in order:
//   1. Determinism. Results must be bit-identical run-to-run AND across
//      worker counts. parallel_for chunks carry disjoint writes, so any
//      schedule yields the same bytes; reduce_ordered decomposes the range
//      by grain size alone (never by worker count) and combines the chunk
//      partials strictly in chunk order.
//   2. Fixed worker pool. Threads are spawned once and reused; a
//      parallel_for is one mutex round-trip + atomic chunk claiming, cheap
//      enough for per-sequence kernels. The calling thread always
//      participates, so a 1-lane pool is exactly the serial code path.
//      The pool runs regions only (parallel_for, parallel_for_slotted,
//      reduce_ordered): no work outlives the call that opened it.
//   3. Graceful degradation. Nested parallel_for calls (a parallel region
//      invoked from inside a worker) execute inline on the calling lane,
//      never deadlock. Exceptions thrown by chunk bodies are captured and
//      rethrown on the submitting thread after the region completes.
//
// The global pool is sized from the ODLP_THREADS environment variable when
// set (clamped to [1, 64]), else std::thread::hardware_concurrency().
// Benches resize it between measurements via resize(); resize is not safe
// concurrently with an in-flight parallel region.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

namespace odlp::util {

class ThreadPool {
 public:
  // `lanes` counts execution lanes *including the calling thread*; a pool
  // with N lanes owns N-1 worker threads. 0 = auto (configured_lanes()).
  explicit ThreadPool(std::size_t lanes = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t lanes() const { return lanes_; }

  // Joins all workers and respawns with the new lane count. Must not be
  // called while a parallel region is running.
  void resize(std::size_t lanes);

  // Process-wide pool shared by all kernels. Constructed on first use.
  static ThreadPool& global();

  // Lane count the global pool starts with: ODLP_THREADS when set and
  // valid, else hardware_concurrency (minimum 1).
  static std::size_t configured_lanes();

  // Splits [begin, end) into chunks of at most `grain` items and runs
  // `chunk(chunk_begin, chunk_end)` across the lanes. grain == 0 picks an
  // automatic grain (~4 chunks per lane). Writes inside chunks must be
  // disjoint; under that contract results are schedule-independent.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& chunk);

  // Same, but the body also receives the executing lane id in [0, lanes()).
  // A lane runs at most one chunk at a time, so lane-indexed scratch (e.g.
  // per-worker model clones) needs no further synchronization.
  void parallel_for_slotted(
      std::size_t begin, std::size_t end, std::size_t grain,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& chunk);

  // Deterministic ordered reduction: maps each chunk of [begin, end) to a
  // partial value, then combines the partials sequentially in ascending
  // chunk order on the calling thread. The chunk decomposition depends only
  // on `grain` (0 = kDefaultReduceGrain), never on the lane count, so the
  // result is bit-identical for any pool size. `fan_out == false` maps the
  // same chunks inline on the calling thread (no region is opened) — the
  // same bytes, for callers whose work is below the kernels' fan-out
  // cut-over (tensor::fans_out).
  template <typename T>
  T reduce_ordered(std::size_t begin, std::size_t end, std::size_t grain,
                   T identity,
                   const std::function<T(std::size_t, std::size_t)>& map,
                   const std::function<T(const T&, const T&)>& combine,
                   bool fan_out = true) {
    if (grain == 0) grain = kDefaultReduceGrain;
    if (end <= begin) return identity;
    const std::size_t chunks = (end - begin + grain - 1) / grain;
    std::vector<T> partials(chunks, identity);
    auto map_chunk = [&](std::size_t b, std::size_t e) {
      partials[(b - begin) / grain] = map(b, e);
    };
    if (fan_out) {
      parallel_for(begin, end, grain, map_chunk);
    } else {
      for (std::size_t b = begin; b < end; b += grain) {
        map_chunk(b, std::min(end, b + grain));
      }
    }
    T acc = identity;
    for (std::size_t c = 0; c < chunks; ++c) acc = combine(acc, partials[c]);
    return acc;
  }

  // Fixed grain used by reduce_ordered when the caller passes 0; part of
  // the determinism contract (documented in DESIGN.md §8).
  static constexpr std::size_t kDefaultReduceGrain = 32;

 private:
  struct Job;
  struct Impl;

  void run_region(
      std::size_t begin, std::size_t end, std::size_t grain,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& chunk);

  std::size_t lanes_ = 1;
  Impl* impl_ = nullptr;  // owned; raw pointer keeps <thread> out of the header
};

}  // namespace odlp::util
