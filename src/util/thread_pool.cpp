#include "util/thread_pool.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace odlp::util {

namespace {

// True while the current thread is executing chunks of a parallel region
// (worker lane or the submitting thread). Nested regions run inline.
thread_local bool tl_inside_region = false;

constexpr std::size_t kMaxLanes = 64;

// Pool telemetry. Queue depth is the number of unclaimed chunks in the
// in-flight region; per-lane busy counters expose utilization skew across
// workers (lane 0 is the submitting thread).
struct PoolMetrics {
  obs::Gauge& queue_depth = obs::registry().gauge("pool.queue.depth");
  obs::Counter& regions = obs::registry().counter("pool.regions.total");
  obs::Histogram& chunk_us = obs::registry().histogram("pool.chunk_us");

  obs::Counter& lane_busy(std::size_t lane) {
    static std::array<obs::Counter*, kMaxLanes> lanes = [] {
      std::array<obs::Counter*, kMaxLanes> a{};
      for (std::size_t i = 0; i < kMaxLanes; ++i) {
        a[i] = &obs::registry().counter("pool.lane" + std::to_string(i) +
                                        ".busy_us");
      }
      return a;
    }();
    return *lanes[lane < kMaxLanes ? lane : kMaxLanes - 1];
  }

  static PoolMetrics& get() {
    static PoolMetrics m;
    return m;
  }
};

}  // namespace

struct ThreadPool::Job {
  std::size_t begin = 0;
  std::size_t grain = 1;
  std::size_t num_chunks = 0;
  const std::function<void(std::size_t, std::size_t, std::size_t)>* body =
      nullptr;
  std::size_t range_end = 0;

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};

  std::mutex error_mutex;
  std::exception_ptr error;
};

struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable wake;
  std::condition_variable done;
  Job* job = nullptr;
  std::uint64_t job_seq = 0;
  std::size_t workers_in_job = 0;
  bool stop = false;
  std::vector<std::thread> workers;

  // Claims and runs chunks of `job` until exhausted. `lane` identifies the
  // executing lane for slotted bodies.
  void run_chunks(Job& job_ref, std::size_t lane) {
    PoolMetrics& pm = PoolMetrics::get();
    obs::Counter& busy = pm.lane_busy(lane);
    tl_inside_region = true;
    std::uint64_t busy_us = 0;
    while (true) {
      const std::size_t c = job_ref.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= job_ref.num_chunks) break;
      const std::size_t b = job_ref.begin + c * job_ref.grain;
      const std::size_t e = std::min(job_ref.range_end, b + job_ref.grain);
      Stopwatch sw;
      try {
        (*job_ref.body)(b, e, lane);
      } catch (...) {
        std::lock_guard<std::mutex> lk(job_ref.error_mutex);
        if (!job_ref.error) job_ref.error = std::current_exception();
      }
      const double us = sw.elapsed_seconds() * 1e6;
      pm.chunk_us.record(us);
      busy_us += static_cast<std::uint64_t>(us);
      const std::size_t done_chunks =
          job_ref.completed.fetch_add(1, std::memory_order_acq_rel) + 1;
      pm.queue_depth.set(static_cast<double>(
          job_ref.num_chunks - std::min(done_chunks, job_ref.num_chunks)));
    }
    if (busy_us > 0) busy.inc(busy_us);
    tl_inside_region = false;
  }

  void worker_loop(std::size_t lane) {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mutex);
    while (true) {
      wake.wait(lk, [&] { return stop || job_seq != seen; });
      if (stop) return;
      seen = job_seq;
      Job* j = job;
      if (!j) continue;  // region already retired before this lane woke
      ++workers_in_job;
      lk.unlock();
      run_chunks(*j, lane);
      lk.lock();
      --workers_in_job;
      done.notify_all();
    }
  }

  void shutdown_workers() {
    {
      std::lock_guard<std::mutex> lk(mutex);
      stop = true;
    }
    wake.notify_all();
    for (auto& t : workers) t.join();
    workers.clear();
  }
};

ThreadPool::ThreadPool(std::size_t lanes) : impl_(new Impl) {
  resize(lanes == 0 ? std::thread::hardware_concurrency() : lanes);
}

ThreadPool::~ThreadPool() {
  impl_->shutdown_workers();
  delete impl_;
}

void ThreadPool::resize(std::size_t lanes) {
  if (lanes == 0) lanes = 1;
  if (lanes > kMaxLanes) lanes = kMaxLanes;
  impl_->shutdown_workers();
  impl_->stop = false;
  lanes_ = lanes;
  impl_->workers.reserve(lanes - 1);
  for (std::size_t lane = 1; lane < lanes; ++lane) {
    impl_->workers.emplace_back([this, lane] { impl_->worker_loop(lane); });
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::parallel_for_slotted(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& chunk) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const std::size_t num_chunks = (end - begin + grain - 1) / grain;

  // Serial / inline paths: single-lane pool, a single chunk, or a nested
  // region on a thread already executing chunks (avoids deadlock).
  if (lanes_ == 1 || num_chunks == 1 || tl_inside_region) {
    const bool was_inside = tl_inside_region;
    tl_inside_region = true;
    for (std::size_t c = 0; c < num_chunks; ++c) {
      const std::size_t b = begin + c * grain;
      const std::size_t e = std::min(end, b + grain);
      chunk(b, e, 0);
    }
    tl_inside_region = was_inside;
    return;
  }

  ODLP_TRACE_SCOPE("pool.region");
  PoolMetrics& pm = PoolMetrics::get();
  pm.regions.inc();
  pm.queue_depth.set(static_cast<double>(num_chunks));

  Job job;
  job.begin = begin;
  job.range_end = end;
  job.grain = grain;
  job.num_chunks = num_chunks;
  job.body = &chunk;

  {
    std::lock_guard<std::mutex> lk(impl_->mutex);
    impl_->job = &job;
    ++impl_->job_seq;
  }
  impl_->wake.notify_all();

  impl_->run_chunks(job, /*lane=*/0);

  // Retire the region only once every chunk ran AND every worker that
  // entered it has left — a late worker may still hold the Job pointer
  // briefly after the final chunk completes.
  {
    std::unique_lock<std::mutex> lk(impl_->mutex);
    impl_->done.wait(lk, [&] {
      return job.completed.load(std::memory_order_acquire) == job.num_chunks &&
             impl_->workers_in_job == 0;
    });
    impl_->job = nullptr;
  }
  pm.queue_depth.set(0.0);
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace odlp::util
