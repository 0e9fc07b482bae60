// The fleet scheduler's worker pool: the one level of parallelism in the
// program. Kernels run on the calling thread (DESIGN.md §8); the fleet runs
// its per-user chunks as slots of a parallel_for_slotted region.
//
//   1. Fixed worker pool. Threads are spawned once and reused; the calling
//      thread always participates, so a 1-lane pool runs every chunk inline
//      in submission order. The pool runs regions only: no work outlives
//      the call that opened it.
//   2. Graceful degradation. A region opened from inside a region runs
//      inline on the calling lane and never deadlocks. Exceptions thrown by
//      chunk bodies are captured and rethrown on the submitting thread
//      after the region completes.
//
// The global pool starts at std::thread::hardware_concurrency() lanes
// (clamped to [1, 64]); the fleet resizes it to its thread count. resize is
// not safe concurrently with an in-flight region.
#pragma once

#include <cstddef>
#include <functional>

namespace odlp::util {

class ThreadPool {
 public:
  // `lanes` counts execution lanes *including the calling thread*; a pool
  // with N lanes owns N-1 worker threads. 0 = hardware_concurrency().
  explicit ThreadPool(std::size_t lanes = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t lanes() const { return lanes_; }

  // Joins all workers and respawns with the new lane count. Must not be
  // called while a region is running.
  void resize(std::size_t lanes);

  // Process-wide pool. Constructed on first use.
  static ThreadPool& global();

  // Splits [begin, end) into chunks of at most `grain` items (0 counts as 1)
  // and runs `chunk(chunk_begin, chunk_end, lane)` across the lanes, lane in
  // [0, lanes()). A lane runs at most one chunk at a time, so lane-indexed
  // scratch (e.g. per-worker model clones) needs no further synchronization.
  void parallel_for_slotted(
      std::size_t begin, std::size_t end, std::size_t grain,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& chunk);

 private:
  struct Job;
  struct Impl;

  std::size_t lanes_ = 1;
  Impl* impl_ = nullptr;  // owned; raw pointer keeps <thread> out of the header
};

}  // namespace odlp::util
